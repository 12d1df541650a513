//! The shared online knowledge base: the crowdsourcing layer of the
//! paper's *online* autotuning loop.
//!
//! A [`SharedKnowledge`] starts from design-time knowledge and keeps a
//! sliding observation window per `(operating point, metric)`, with the
//! same drop-and-count policy for non-finite samples as [`Monitor`](crate::Monitor).
//! Deployed instances *publish* their runtime observations into it;
//! once a point has gathered enough observations, its expected EFP
//! values are the window means instead of the design-time predictions —
//! so the whole fleet converges onto what the deployment platform
//! actually does, even under drift (a machine running hotter or slower
//! than profiled).
//!
//! # Columnar arena
//!
//! Points are stored in a dense **columnar arena** rather than a map of
//! monitors per point: configs are interned to `(shard, slot)` indices
//! at construction, and each shard keeps one structure-of-arrays column
//! per metric — a flat `slots × window` ring-buffer block plus parallel
//! `start`/`len`/`total` vectors. A publish is an O(1) index lookup
//! followed by a ring write; no per-observation allocation, no tree
//! rebalancing, and window means stream over contiguous memory.
//!
//! # Per-point state
//!
//! Operating points fold independently: a publish touches only its own
//! slot's windows, and every epoch is a sum of per-point change counts.
//! [`point_state`](SharedKnowledge::point_state) captures one point's
//! windows, totals, change count and dropped-value count;
//! [`restore_point`](SharedKnowledge::restore_point) puts them back,
//! moving the epochs by the change-count difference. That is the
//! rollback primitive of a replica that refolds only the point a late
//! observation touched.
//!
//! # Sharding
//!
//! The points are split into `S` **lock shards** (deterministic
//! config-hash → shard), so concurrent publishes to different operating
//! points contend only when they land in the same shard — the layer
//! scales with the fleet instead of serialising every instance on one
//! global mutex. Batch publishes ([`publish_batch`]) group a whole
//! round of observations by shard and merge each group under a single
//! lock acquisition.
//!
//! # Versioning
//!
//! A global **epoch counter** plus one epoch per shard let readers
//! detect refreshed knowledge with one atomic load. Epochs advance
//! **iff an effective value actually changed**: a publish that leaves
//! every window mean where it was (an empty observation, or a value
//! equal to the current mean) does not invalidate anybody's snapshot.
//! Changed points are tracked as a per-shard *dirty set*; a coordinator
//! drains them straight out of the arena — patching its cached
//! [`Knowledge`] in place with [`drain_changes_into`], or materialising
//! a [`KnowledgeDelta`] for the wire with [`drain_changes`] — instead
//! of rebuilding the whole effective knowledge.
//!
//! [`publish_batch`]: SharedKnowledge::publish_batch
//! [`drain_changes`]: SharedKnowledge::drain_changes
//! [`drain_changes_into`]: SharedKnowledge::drain_changes_into

use crate::knowledge::{Knowledge, OperatingPoint};
use crate::metric::{Metric, MetricValues};
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default number of lock shards ([`SharedKnowledge::with_shards`]).
pub const DEFAULT_SHARDS: usize = 16;

/// The immutable half of the arena: design points, the config →
/// `(shard, slot)` index, and the slot → knowledge-position map.
#[derive(Debug)]
struct Layout<K> {
    design: Knowledge<K>,
    /// Config → shard/slot, fixed at construction, so a publish is an
    /// O(1) lookup that touches only its own shard's lock.
    index: HashMap<K, PointRef>,
    /// `positions[shard][slot]` = position of that slot's point in the
    /// effective [`Knowledge`] (the design knowledge's insertion
    /// order), so sharding never reorders the published view.
    positions: Vec<Vec<usize>>,
    window: usize,
}

/// One metric's structure-of-arrays column within a shard: a flat
/// `slots × window` block of ring buffers plus parallel ring
/// bookkeeping, mirroring [`Monitor`](crate::Monitor)'s sliding-window semantics
/// bit-for-bit (same push order, same oldest→newest summation).
#[derive(Debug)]
struct MetricCol {
    /// Ring storage; slot `s` owns `buf[s*window .. (s+1)*window]`.
    buf: Vec<f64>,
    /// Ring start (index of the oldest sample) per slot.
    start: Vec<u32>,
    /// Samples currently in the ring per slot.
    len: Vec<u32>,
    /// Total accepted observations ever per slot (ages past the
    /// window), gating `min_observations` exactly like
    /// [`Monitor::total_observations`](crate::Monitor::total_observations).
    total: Vec<u64>,
}

impl MetricCol {
    fn new(slots: usize, window: usize) -> Self {
        MetricCol {
            buf: vec![0.0; slots * window],
            start: vec![0; slots],
            len: vec![0; slots],
            total: vec![0; slots],
        }
    }

    /// Pushes one (finite) sample into `slot`'s ring, evicting the
    /// oldest at capacity — the [`Monitor::push`](crate::Monitor::push) accept path.
    fn push(&mut self, slot: usize, window: usize, value: f64) {
        let base = slot * window;
        let start = self.start[slot] as usize;
        let len = self.len[slot] as usize;
        if len == window {
            self.buf[base + start] = value;
            self.start[slot] = ((start + 1) % window) as u32;
        } else {
            self.buf[base + (start + len) % window] = value;
            self.len[slot] = (len + 1) as u32;
        }
        self.total[slot] += 1;
    }

    /// Window mean of `slot`, summing oldest→newest from 0.0 — the
    /// exact float-order of [`Monitor::mean`](crate::Monitor::mean), so the arena is
    /// bit-identical to the monitor-per-point representation.
    fn mean(&self, slot: usize, window: usize) -> Option<f64> {
        let len = self.len[slot] as usize;
        if len == 0 {
            return None;
        }
        let base = slot * window;
        let start = self.start[slot] as usize;
        let mut sum = 0.0;
        for i in 0..len {
            sum += self.buf[base + (start + i) % window];
        }
        Some(sum / len as f64)
    }

    /// The ring contents of `slot`, oldest→newest.
    fn ordered(&self, slot: usize, window: usize) -> impl Iterator<Item = f64> + '_ {
        let base = slot * window;
        let start = self.start[slot] as usize;
        (0..self.len[slot] as usize).map(move |i| self.buf[base + (start + i) % window])
    }

    /// Replaces `slot`'s ring with `values` (oldest→newest, at most
    /// `window` of them) and its all-time count with `total`.
    fn set(&mut self, slot: usize, window: usize, values: &[f64], total: u64) {
        let base = slot * window;
        self.buf[base..base + values.len()].copy_from_slice(values);
        self.start[slot] = 0;
        self.len[slot] = values.len() as u32;
        self.total[slot] = total;
    }
}

/// One lock shard: the mutable columnar state for its slots plus the
/// dirty slots whose effective values changed since the last drain.
#[derive(Debug)]
struct Shard {
    state: Mutex<ShardState>,
    /// This shard's epoch: advanced once per publish that changed an
    /// effective value of one of its points. Lock-free to read.
    epoch: AtomicU64,
}

#[derive(Debug)]
struct ShardState {
    /// Number of slots (points) in this shard.
    slots: usize,
    /// Metric universe of this shard in first-published order;
    /// parallel to `cols`.
    metrics: Vec<Metric>,
    cols: Vec<MetricCol>,
    /// Per slot: publishes that changed the point's effective values.
    /// The shard epoch is their sum.
    changes: Vec<u64>,
    /// Per slot: non-finite values dropped at publish. The global
    /// dropped count is their sum over all shards.
    dropped: Vec<u64>,
    /// Slots whose effective point changed since the last drain,
    /// ordered so drains are deterministic.
    dirty: BTreeSet<usize>,
}

impl ShardState {
    fn col_index(&self, metric: &Metric) -> Option<usize> {
        self.metrics.iter().position(|m| m == metric)
    }

    fn ensure_col(&mut self, metric: &Metric, window: usize) -> usize {
        match self.col_index(metric) {
            Some(i) => i,
            None => {
                self.metrics.push(metric.clone());
                self.cols.push(MetricCol::new(self.slots, window));
                self.cols.len() - 1
            }
        }
    }

    /// The effective value of one metric of `slot`: the window mean
    /// once it is sufficiently observed (and finite), the design-time
    /// expectation otherwise.
    fn effective_value(
        &self,
        slot: usize,
        metric: &Metric,
        design: &MetricValues,
        window: usize,
        min_observations: u64,
    ) -> Option<f64> {
        if let Some(c) = self.col_index(metric) {
            let col = &self.cols[c];
            if col.total[slot] >= min_observations {
                if let Some(mean) = col.mean(slot, window) {
                    if mean.is_finite() {
                        return Some(mean);
                    }
                }
            }
        }
        design.get(metric)
    }
}

/// Where a config lives: `(shard, slot within the shard)`.
#[derive(Debug, Clone, Copy)]
struct PointRef {
    shard: usize,
    slot: usize,
}

/// The fold state of one operating point, captured by
/// [`SharedKnowledge::point_state`] and put back by
/// [`SharedKnowledge::restore_point`]: the point's observation windows
/// and all-time counts, how many publishes changed its effective
/// values, and how many of its values were dropped as non-finite.
/// Opaque: restoring it is the only thing to do with it.
#[derive(Debug, Clone, PartialEq)]
pub struct PointState {
    position: usize,
    /// `(metric, samples in the window, all-time count)` for every
    /// metric the point has accepted a sample of.
    windows: Vec<(Metric, usize, u64)>,
    /// The windows' samples back to back, each oldest→newest.
    values: Vec<f64>,
    changes: u64,
    dropped: u64,
}

/// Moves `counter` from holding a contribution of `from` to one of
/// `to`.
fn shift(counter: &AtomicU64, from: u64, to: u64) {
    if to >= from {
        counter.fetch_add(to - from, Ordering::AcqRel);
    } else {
        counter.fetch_sub(from - to, Ordering::AcqRel);
    }
}

/// A batch of refreshed operating points between two epochs: what a
/// coordinator hands its instances instead of a full [`Knowledge`]
/// clone. Each entry is `(position in the knowledge, new effective
/// point)`.
///
/// Produced from [`SharedKnowledge::drain_changes`]; applied with
/// [`KnowledgeDelta::apply_to`]. An instance whose knowledge is at
/// `from_epoch` lands exactly on the `to_epoch` knowledge — bit-
/// identical to adopting a full snapshot.
///
/// Deltas encode with the binary wire codec in the `socrates` crate,
/// so a coordinator can ship them over a wire instead of a shared
/// address space — the distributed runtime's knowledge-exchange
/// payload (`socrates::transport`). The format is pinned by a golden
/// file in the `socrates` crate.
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeDelta<K> {
    /// The epoch the receiver must be at for the patch to be exact.
    pub from_epoch: u64,
    /// The epoch the receiver is at after applying the patch.
    pub to_epoch: u64,
    /// `(position, refreshed point)` pairs, ascending by position.
    pub changed: Vec<(usize, OperatingPoint<K>)>,
}

impl<K: Clone + PartialEq> KnowledgeDelta<K> {
    /// Patches the changed points into `knowledge`. Returns `false`
    /// (and changes nothing) if any position is out of range or names a
    /// different configuration — the receiver's knowledge does not
    /// descend from the same design knowledge, and it must fall back to
    /// a full snapshot.
    ///
    /// **The caller is responsible for the epoch precondition**: a
    /// [`Knowledge`] carries no version, so this method cannot detect a
    /// receiver that is *behind* `from_epoch` (the configs still line
    /// up position by position). Applying a delta to knowledge older
    /// than `from_epoch` yields a mixed state that silently misses the
    /// points changed in between — check your tracked epoch against
    /// [`from_epoch`](Self::from_epoch) first and take a full
    /// [`SharedKnowledge::snapshot`] on mismatch, as the fleet's
    /// adoption path does.
    #[must_use]
    pub fn apply_to(&self, knowledge: &mut Knowledge<K>) -> bool {
        let compatible = self.changed.iter().all(|(pos, point)| {
            knowledge
                .points()
                .get(*pos)
                .is_some_and(|cur| cur.config == point.config)
        });
        if !compatible {
            return false;
        }
        for (pos, point) in &self.changed {
            knowledge.patch_point(*pos, point.clone());
        }
        true
    }

    /// Whether the delta patches nothing (the epochs may still differ
    /// for deltas constructed by external coordinators).
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// Number of patched points.
    pub fn len(&self) -> usize {
        self.changed.len()
    }
}

/// FNV-1a over the config's `Hash` impl: a *deterministic* hasher
/// (`RandomState` is seeded per process, which would make shard
/// assignment — and thus per-shard epochs — unreproducible between
/// runs).
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The deterministic shard `config` maps to under `shards` lock shards:
/// FNV-1a over the config's `Hash` impl — exactly the assignment
/// [`SharedKnowledge`] uses internally, exposed so detached artifacts
/// (serialised snapshots, wire-side replicas) can group points by shard
/// without a live knowledge base in hand.
pub fn shard_index<K: Hash>(config: &K, shards: usize) -> usize {
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    config.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// FNV-1a content digest over `(position, operating point)` pairs:
/// folds each position, the config (via its `Hash` impl) and every
/// `(metric name, f64 bit pattern)` pair in metric order. Feed it one
/// shard's points in ascending position order and it reproduces
/// [`SharedKnowledge::shard_hash`] for that shard — the bit-identity
/// check between a live knowledge base and an external reconstruction
/// (e.g. a decoded snapshot fast-forwarded through its delta chain).
pub fn shard_content_hash<'a, K, I>(points: I) -> u64
where
    K: Hash + 'a,
    I: IntoIterator<Item = (usize, &'a OperatingPoint<K>)>,
{
    let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
    for (pos, point) in points {
        hasher.write_u64(pos as u64);
        point.config.hash(&mut hasher);
        hasher.write_u64(point.metrics.len() as u64);
        for (metric, value) in point.metrics.iter() {
            hasher.write(metric.as_str().as_bytes());
            hasher.write_u64(value.to_bits());
        }
    }
    hasher.finish()
}

/// A thread-safe, versioned knowledge base shared by a fleet of
/// adaptive-application instances.
///
/// # Examples
///
/// ```
/// use margot::{Knowledge, Metric, MetricValues, OperatingPoint, SharedKnowledge};
///
/// let mut design = Knowledge::new();
/// design.add(OperatingPoint::new(
///     1u32,
///     MetricValues::new().with(Metric::power(), 80.0),
/// ));
/// let shared = SharedKnowledge::new(design, 4);
/// let before = shared.epoch();
/// // The deployed machine runs hotter than the design-time profile.
/// shared.publish(&1, &MetricValues::new().with(Metric::power(), 96.0));
/// assert!(shared.epoch() > before);
/// let learned = shared.knowledge();
/// assert_eq!(learned.points()[0].metric(&Metric::power()), Some(96.0));
/// ```
#[derive(Debug)]
pub struct SharedKnowledge<K> {
    layout: Layout<K>,
    shards: Vec<Shard>,
    /// Global epoch: total number of effective-knowledge changes.
    epoch: AtomicU64,
    min_observations: u64,
    /// Non-finite observed values dropped at publish (the
    /// [`Monitor::push`](crate::Monitor::push) policy, counted at the shared-knowledge
    /// level).
    dropped: AtomicU64,
}

impl<K: Clone + Eq + Hash> SharedKnowledge<K> {
    /// Wraps a design-time knowledge base; every published observation
    /// is merged through a sliding window of `window` samples per
    /// `(point, metric)`. Points are spread over [`DEFAULT_SHARDS`]
    /// lock shards ([`with_shards`](Self::with_shards) to tune).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (same contract as [`Monitor::new`](crate::Monitor::new)).
    pub fn new(design: Knowledge<K>, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let (layout, shards) = Self::build(design, window, DEFAULT_SHARDS);
        SharedKnowledge {
            layout,
            shards,
            epoch: AtomicU64::new(0),
            min_observations: 1,
            dropped: AtomicU64::new(0),
        }
    }

    /// Builder-style: observations needed before a window mean overrides
    /// the design-time value of a metric (default 1).
    #[must_use]
    pub fn with_min_observations(mut self, min_observations: u64) -> Self {
        self.min_observations = min_observations.max(1);
        self
    }

    /// Builder-style: redistributes the points over `shards` lock
    /// shards. One shard reproduces the unsharded reference behaviour
    /// (every publish serialises on a single lock); the output is
    /// bit-identical at any shard count.
    ///
    /// Must be called **before the first publish**: resharding resets
    /// the per-shard epochs and dirty sets, which cannot be re-
    /// attributed once observations have merged.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, or if anything was already
    /// published (the epoch has moved).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert_eq!(
            self.epoch(),
            0,
            "with_shards must be called before the first publish: resharding would \
             discard the per-shard epochs and dirty sets"
        );
        if shards == self.shards.len() {
            return self; // already laid out like this (e.g. the default)
        }
        // Window contents and dropped values can exist at epoch 0
        // (published values that exactly reproduce the design
        // expectations change nothing); carry them over to the new
        // layout, keyed by position.
        let carried: Vec<PointState> = (0..self.len())
            .filter_map(|pos| self.point_state(pos))
            .filter(|state| !state.windows.is_empty() || state.dropped > 0)
            .collect();
        let (layout, new_shards) =
            Self::build(self.layout.design.clone(), self.layout.window, shards);
        self.layout = layout;
        self.shards = new_shards;
        // Each restore adds its point's dropped values back.
        self.dropped = AtomicU64::new(0);
        for state in &carried {
            self.restore_point(state);
        }
        // Nothing effective changed: no drain owes anyone these points.
        for shard in &mut self.shards {
            shard
                .state
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .dirty
                .clear();
        }
        self
    }

    /// Builds the immutable layout plus empty per-shard column state.
    fn build(design: Knowledge<K>, window: usize, shards: usize) -> (Layout<K>, Vec<Shard>) {
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut index = HashMap::with_capacity(design.len());
        for (pos, point) in design.points().iter().enumerate() {
            let shard = shard_index(&point.config, shards);
            index.insert(
                point.config.clone(),
                PointRef {
                    shard,
                    slot: positions[shard].len(),
                },
            );
            positions[shard].push(pos);
        }
        let shard_vec = positions
            .iter()
            .map(|group| Shard {
                state: Mutex::new(ShardState {
                    slots: group.len(),
                    metrics: Vec::new(),
                    cols: Vec::new(),
                    changes: vec![0; group.len()],
                    dropped: vec![0; group.len()],
                    dirty: BTreeSet::new(),
                }),
                epoch: AtomicU64::new(0),
            })
            .collect();
        (
            Layout {
                design,
                index,
                positions,
                window,
            },
            shard_vec,
        )
    }

    fn lock_shard(&self, shard: usize) -> MutexGuard<'_, ShardState> {
        self.shards[shard]
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current knowledge version: the number of publishes that
    /// changed an effective value. Readers compare it against their
    /// last synced epoch to detect refreshed knowledge without cloning.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of lock shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The epoch of shard `shard`: how many publishes changed an
    /// effective value of one of its points.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch.load(Ordering::Acquire)
    }

    /// The shard `config` lives in, or `None` for unknown configs.
    pub fn shard_of(&self, config: &K) -> Option<usize> {
        self.layout.index.get(config).map(|r| r.shard)
    }

    /// The position of `config` in the effective [`Knowledge`] (the
    /// design knowledge's order), or `None` for unknown configs.
    pub fn position_of(&self, config: &K) -> Option<usize> {
        let at = self.layout.index.get(config)?;
        Some(self.layout.positions[at.shard][at.slot])
    }

    /// Where the point at `position` lives, or `None` out of range.
    fn point_ref(&self, position: usize) -> Option<PointRef> {
        let config = &self.layout.design.points().get(position)?.config;
        self.layout.index.get(config).copied()
    }

    /// Captures the fold state of the point at `position`: its
    /// windows, all-time counts, change count and dropped-value count.
    /// `None` when `position` is out of range.
    pub fn point_state(&self, position: usize) -> Option<PointState> {
        let at = self.point_ref(position)?;
        let state = self.lock_shard(at.shard);
        let window = self.layout.window;
        let mut windows = Vec::new();
        let mut values = Vec::new();
        for (metric, col) in state.metrics.iter().zip(&state.cols) {
            let total = col.total[at.slot];
            if total > 0 {
                windows.push((metric.clone(), col.len[at.slot] as usize, total));
                values.extend(col.ordered(at.slot, window));
            }
        }
        Some(PointState {
            position,
            windows,
            values,
            changes: state.changes[at.slot],
            dropped: state.dropped[at.slot],
        })
    }

    /// Puts a point back into the fold state `saved` captured: every
    /// window and all-time count of the point, its change count and its
    /// dropped-value count. The global and shard epochs move by the
    /// change-count difference and
    /// [`dropped_observations`](Self::dropped_observations) by the
    /// dropped-count difference, so they stay sums over the points. No
    /// other point is touched. The point is marked dirty, so the next
    /// drain re-reads it.
    ///
    /// Returns `false` (and changes nothing) when `saved` does not fit
    /// this knowledge base: a position out of range, or a window longer
    /// than this base's. Restore into the base the state was captured
    /// from, or one over the same design knowledge and window.
    pub fn restore_point(&self, saved: &PointState) -> bool {
        let window = self.layout.window;
        let Some(at) = self.point_ref(saved.position) else {
            return false;
        };
        if saved.windows.iter().any(|&(_, len, _)| len > window) {
            return false;
        }
        let mut state = self.lock_shard(at.shard);
        for col in &mut state.cols {
            col.set(at.slot, window, &[], 0);
        }
        let mut values = saved.values.as_slice();
        for (metric, len, total) in &saved.windows {
            let (ring, rest) = values.split_at(*len);
            let c = state.ensure_col(metric, window);
            state.cols[c].set(at.slot, window, ring, *total);
            values = rest;
        }
        let changes = std::mem::replace(&mut state.changes[at.slot], saved.changes);
        shift(&self.shards[at.shard].epoch, changes, saved.changes);
        shift(&self.epoch, changes, saved.changes);
        let dropped = std::mem::replace(&mut state.dropped[at.slot], saved.dropped);
        shift(&self.dropped, dropped, saved.dropped);
        state.dirty.insert(at.slot);
        true
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.layout.design.len()
    }

    /// Whether the shared knowledge has no points.
    pub fn is_empty(&self) -> bool {
        self.layout.design.is_empty()
    }

    /// Non-finite observed values dropped (and counted) by
    /// [`publish`](Self::publish)/[`publish_batch`](Self::publish_batch)
    /// instead of being folded into a window — the shared-knowledge
    /// mirror of [`Monitor::push`](crate::Monitor::push)'s policy. Values can reach this path
    /// from the wire, whose decoders deliberately perform no finiteness
    /// validation ([`MetricValues::from_unvalidated`]).
    pub fn dropped_observations(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Merges `observed` into `slot`'s columns; returns whether the
    /// point's effective values changed. Only the observed metrics are
    /// compared — untouched columns cannot change — so the hot publish
    /// path stays O(|observed|) with no point clones. Caller holds the
    /// shard lock.
    fn merge_into(
        &self,
        state: &mut ShardState,
        slot: usize,
        design: &MetricValues,
        observed: &MetricValues,
    ) -> bool {
        let window = self.layout.window;
        let mut changed = false;
        for (metric, value) in observed.iter() {
            if !value.is_finite() {
                // The Monitor::push policy at the shared level: drop
                // and count, never poison a window mean.
                state.dropped[slot] += 1;
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let before = state.effective_value(slot, metric, design, window, self.min_observations);
            let c = state.ensure_col(metric, window);
            state.cols[c].push(slot, window, value);
            // Effective values are finite by construction (non-finite
            // means fall back to the finite design value), so `!=` on
            // the options is an exact change test.
            changed |= before
                != state.effective_value(slot, metric, design, window, self.min_observations);
        }
        changed
    }

    /// Records that a publish changed the effective values of
    /// `(shard, slot)`: marks it dirty and advances its change count
    /// and both epochs. Caller holds the shard lock.
    fn record_change(&self, state: &mut ShardState, shard: usize, slot: usize) {
        state.dirty.insert(slot);
        state.changes[slot] += 1;
        self.shards[shard].epoch.fetch_add(1, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// The effective operating point of `(shard, slot)`: window means
    /// override the design values for every metric with at least
    /// `min_observations`. Caller holds the shard lock.
    fn effective_point(&self, state: &ShardState, shard: usize, slot: usize) -> OperatingPoint<K> {
        let pos = self.layout.positions[shard][slot];
        let design = &self.layout.design.points()[pos];
        let mut metrics = design.metrics.clone();
        for (c, metric) in state.metrics.iter().enumerate() {
            let col = &state.cols[c];
            if col.total[slot] >= self.min_observations {
                if let Some(mean) = col.mean(slot, self.layout.window) {
                    if mean.is_finite() {
                        metrics.insert(metric.clone(), mean);
                    }
                }
            }
        }
        OperatingPoint::new(design.config.clone(), metrics)
    }

    /// Merges one runtime observation of `config` into the shared
    /// windows. Returns `false` (and changes nothing) when `config` is
    /// not a known operating point.
    ///
    /// The global and per-shard epochs advance **iff** the publish
    /// changed an effective value — an empty [`MetricValues`], or an
    /// observation that leaves every window mean unchanged, merges
    /// without invalidating anybody's snapshot.
    ///
    /// Non-finite values (possible on the wire-ingress path, which does
    /// not validate) are dropped and counted
    /// ([`dropped_observations`](Self::dropped_observations)) instead
    /// of poisoning a window mean.
    pub fn publish(&self, config: &K, observed: &MetricValues) -> bool {
        let Some(&at) = self.layout.index.get(config) else {
            return false;
        };
        let pos = self.layout.positions[at.shard][at.slot];
        let design = &self.layout.design.points()[pos].metrics;
        let mut state = self.lock_shard(at.shard);
        if self.merge_into(&mut state, at.slot, design, observed) {
            self.record_change(&mut state, at.shard, at.slot);
        }
        true
    }

    /// Merges one observation and — when it changed an effective value
    /// — patches the updated point **straight into** `cache` under the
    /// same shard lock: the merge-on-publish path of an event-driven
    /// runtime, where knowledge folds in per publish event instead of
    /// at a round barrier. Windows, dirty sets and epochs advance
    /// exactly as [`publish`](Self::publish) (the slot stays dirty so
    /// *other* caches still see the change on their next drain), so a
    /// sequence of `publish_into` calls is bit-identical to the same
    /// sequence of `publish` + [`drain_changes_into`](Self::drain_changes_into)
    /// — without the all-shards drain sweep per event.
    ///
    /// Returns `None` when `config` is not a known operating point,
    /// otherwise `Some((position, changed))`. `cache` must descend from
    /// the same design knowledge (same length and point order).
    ///
    /// # Panics
    ///
    /// Panics if `cache` is shorter than the design knowledge.
    pub fn publish_into(
        &self,
        config: &K,
        observed: &MetricValues,
        cache: &mut Knowledge<K>,
    ) -> Option<(usize, bool)> {
        let &at = self.layout.index.get(config)?;
        let pos = self.layout.positions[at.shard][at.slot];
        let design = &self.layout.design.points()[pos].metrics;
        let mut state = self.lock_shard(at.shard);
        let changed = self.merge_into(&mut state, at.slot, design, observed);
        if changed {
            self.record_change(&mut state, at.shard, at.slot);
            cache.patch_point(pos, self.effective_point(&state, at.shard, at.slot));
        }
        Some((pos, changed))
    }

    /// Merges a whole batch of observations — e.g. one fleet round —
    /// grouping them by shard and taking each shard's lock **once** for
    /// its whole group. Within a shard, observations merge in the order
    /// given, so a deterministic input order (instance order at a round
    /// barrier) yields bit-identical windows and epochs to publishing
    /// one by one. Unknown configs are skipped; returns the number of
    /// accepted observations.
    pub fn publish_batch<'a, I>(&self, observations: I) -> usize
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, &'a MetricValues)>,
    {
        let mut by_shard: Vec<Vec<(usize, &MetricValues)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut accepted = 0;
        for (config, observed) in observations {
            if let Some(&at) = self.layout.index.get(config) {
                by_shard[at.shard].push((at.slot, observed));
                accepted += 1;
            }
        }
        for (shard, group) in by_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let mut state = self.lock_shard(shard);
            let mut changed = 0u64;
            for (slot, observed) in group {
                let pos = self.layout.positions[shard][slot];
                let design = &self.layout.design.points()[pos].metrics;
                if self.merge_into(&mut state, slot, design, observed) {
                    state.dirty.insert(slot);
                    state.changes[slot] += 1;
                    changed += 1;
                }
            }
            if changed > 0 {
                self.shards[shard]
                    .epoch
                    .fetch_add(changed, Ordering::AcqRel);
                self.epoch.fetch_add(changed, Ordering::AcqRel);
            }
        }
        accepted
    }

    /// Marks every point of `seed` that this knowledge base knows as
    /// *fully observed* at its shipped metric values: each metric's
    /// ring is filled with `copies` identical samples, so the
    /// `min_observations` gate opens immediately and one fresh (noisy)
    /// observation shifts the window mean by only `1/window` of its
    /// deviation — the statistical state of a converged deployment,
    /// reconstructed from its snapshot. Without this, a warm boot
    /// that merely rewrites the design values relives the whole
    /// noise-damping transient: the first few online samples displace
    /// the seed the moment the gate opens.
    ///
    /// Configs unknown to this layout are skipped and non-finite
    /// metric values dropped (the [`publish`](Self::publish) policy).
    /// Seeding is deterministic — the same `(design, seed, copies)`
    /// always produces bit-identical windows and epochs — but the
    /// window mean of `n` identical samples can differ from the
    /// shipped value in the last ulp (float summation rounds), so
    /// seeding may advance epochs. Returns the number of seeded
    /// points.
    pub fn seed_observations(&self, seed: &Knowledge<K>, copies: usize) -> usize {
        let mut seeded = 0;
        for p in seed.points() {
            if !self.layout.index.contains_key(&p.config) {
                continue;
            }
            for _ in 0..copies {
                self.publish(&p.config, &p.metrics);
            }
            seeded += 1;
        }
        seeded
    }

    /// Drains every shard's dirty set: the effective points that
    /// changed since the last drain, as `(position, point)` pairs in
    /// ascending position order, paired with the epoch the drain is
    /// consistent with. A coordinator patches the points into its
    /// cached [`Knowledge`] (one [`Knowledge::patch_point`] per changed
    /// point) and records the returned epoch, instead of rebuilding the
    /// effective knowledge from scratch — the incremental-refresh half
    /// of the scaling story.
    ///
    /// All shard locks are held for the drain (like
    /// [`snapshot`](Self::snapshot)), so the `(epoch, changes)` pair is
    /// consistent even while other threads publish: a cache patched
    /// with the changes *is* the `epoch` knowledge, and a later
    /// `epoch() == recorded` comparison can safely skip re-draining.
    pub fn drain_changes(&self) -> (u64, Vec<(usize, OperatingPoint<K>)>) {
        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut out = Vec::new();
        for (shard, state) in guards.iter_mut().enumerate() {
            let dirty = std::mem::take(&mut state.dirty);
            for slot in dirty {
                let pos = self.layout.positions[shard][slot];
                out.push((pos, self.effective_point(state, shard, slot)));
            }
        }
        out.sort_by_key(|(pos, _)| *pos);
        (epoch, out)
    }

    /// Drains the dirty slots **straight into** `cache`, patching the
    /// changed positions in place — the arena-view counterpart of
    /// [`drain_changes`](Self::drain_changes) that skips the
    /// intermediate point list entirely (the coordinator's hot refresh
    /// path). Returns the epoch the patched cache is consistent with
    /// and the number of points patched. `cache` must descend from the
    /// same design knowledge (same length and point order).
    ///
    /// # Panics
    ///
    /// Panics if `cache` is shorter than the design knowledge.
    pub fn drain_changes_into(&self, cache: &mut Knowledge<K>) -> (u64, usize) {
        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut patched = 0;
        for (shard, state) in guards.iter_mut().enumerate() {
            let dirty = std::mem::take(&mut state.dirty);
            for slot in dirty {
                let pos = self.layout.positions[shard][slot];
                cache.patch_point(pos, self.effective_point(state, shard, slot));
                patched += 1;
            }
        }
        (epoch, patched)
    }

    /// The effective knowledge: design-time points with every
    /// sufficiently-observed metric replaced by its window mean.
    pub fn knowledge(&self) -> Knowledge<K> {
        self.snapshot().1
    }

    /// Epoch and effective knowledge read with all shard locks held, so
    /// the pair is consistent even while other threads publish.
    pub fn snapshot(&self) -> (u64, Knowledge<K>) {
        let guards: Vec<MutexGuard<'_, ShardState>> =
            (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        let epoch = self.epoch.load(Ordering::Acquire);
        let total = self.layout.design.len();
        let mut points: Vec<Option<OperatingPoint<K>>> = vec![None; total];
        for (shard, state) in guards.iter().enumerate() {
            for slot in 0..self.layout.positions[shard].len() {
                let pos = self.layout.positions[shard][slot];
                points[pos] = Some(self.effective_point(state, shard, slot));
            }
        }
        let knowledge = points
            .into_iter()
            .map(|p| p.expect("every position is covered by exactly one shard"))
            .collect();
        (epoch, knowledge)
    }

    /// Content hash of shard `shard`'s effective points:
    /// [`shard_content_hash`] over its `(position, point)` pairs in
    /// ascending position order. Two knowledge bases (or a knowledge
    /// base and a decoded snapshot) with equal hashes for every shard
    /// hold bit-identical effective knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_hash(&self, shard: usize) -> u64 {
        let state = self.lock_shard(shard);
        self.shard_hash_locked(&state, shard)
    }

    /// All per-shard content hashes, read with every shard lock held
    /// (like [`snapshot`](Self::snapshot)) so the vector is consistent
    /// even while other threads publish.
    pub fn shard_hashes(&self) -> Vec<u64> {
        let guards: Vec<MutexGuard<'_, ShardState>> =
            (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        guards
            .iter()
            .enumerate()
            .map(|(shard, state)| self.shard_hash_locked(state, shard))
            .collect()
    }

    fn shard_hash_locked(&self, state: &ShardState, shard: usize) -> u64 {
        // positions[shard] ascends by construction (design order), so
        // slot order is ascending position order.
        let points: Vec<(usize, OperatingPoint<K>)> = (0..self.layout.positions[shard].len())
            .map(|slot| {
                (
                    self.layout.positions[shard][slot],
                    self.effective_point(state, shard, slot),
                )
            })
            .collect();
        shard_content_hash(points.iter().map(|(pos, point)| (*pos, point)))
    }

    /// Epoch, per-shard epoch vector and effective knowledge read with
    /// all shard locks held — the consistent triple a full-state
    /// snapshot is cut from. Shard epochs only advance under their
    /// shard's state lock, so the vector cannot move mid-read.
    pub fn versioned_snapshot(&self) -> (u64, Vec<u64>, Knowledge<K>) {
        let guards: Vec<MutexGuard<'_, ShardState>> =
            (0..self.shards.len()).map(|s| self.lock_shard(s)).collect();
        let epoch = self.epoch.load(Ordering::Acquire);
        let shard_epochs: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.epoch.load(Ordering::Acquire))
            .collect();
        let total = self.layout.design.len();
        let mut points: Vec<Option<OperatingPoint<K>>> = vec![None; total];
        for (shard, state) in guards.iter().enumerate() {
            for slot in 0..self.layout.positions[shard].len() {
                let pos = self.layout.positions[shard][slot];
                points[pos] = Some(self.effective_point(state, shard, slot));
            }
        }
        let knowledge = points
            .into_iter()
            .map(|p| p.expect("every position is covered by exactly one shard"))
            .collect();
        (epoch, shard_epochs, knowledge)
    }

    /// Number of operating points whose runtime observations have
    /// crossed the `min_observations` threshold (i.e. whose effective
    /// metrics are online values rather than design-time predictions)
    /// — the fleet's online coverage of the design space.
    pub fn observed_points(&self) -> usize {
        (0..self.shards.len())
            .map(|shard| {
                let state = self.lock_shard(shard);
                (0..self.layout.positions[shard].len())
                    .filter(|&slot| {
                        state
                            .cols
                            .iter()
                            .any(|c| c.total[slot] >= self.min_observations)
                    })
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design() -> Knowledge<u32> {
        let mk = |cfg, t: f64, p: f64| {
            OperatingPoint::new(
                cfg,
                MetricValues::new()
                    .with(Metric::exec_time(), t)
                    .with(Metric::power(), p),
            )
        };
        [mk(1, 1.0, 50.0), mk(2, 0.4, 80.0)].into_iter().collect()
    }

    #[test]
    fn starts_as_the_design_knowledge_at_epoch_zero() {
        let shared = SharedKnowledge::new(design(), 4);
        assert_eq!(shared.epoch(), 0);
        assert_eq!(shared.knowledge(), design());
        assert_eq!(shared.observed_points(), 0);
        assert_eq!(shared.len(), 2);
        assert_eq!(shared.shard_count(), DEFAULT_SHARDS);
        for s in 0..shared.shard_count() {
            assert_eq!(shared.shard_epoch(s), 0);
        }
    }

    #[test]
    fn publish_overrides_design_values_with_window_means() {
        let shared = SharedKnowledge::new(design(), 4);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 70.0));
        let k = shared.knowledge();
        let p1 = &k.points()[0];
        assert_eq!(p1.metric(&Metric::power()), Some(65.0));
        // Unobserved metrics keep their design-time expectations.
        assert_eq!(p1.metric(&Metric::exec_time()), Some(1.0));
        // Untouched points are unchanged.
        assert_eq!(k.points()[1], design().points()[1]);
        assert_eq!(shared.observed_points(), 1);
    }

    #[test]
    fn epoch_advances_only_on_accepted_publishes() {
        let shared = SharedKnowledge::new(design(), 4);
        assert!(!shared.publish(&99, &MetricValues::new().with(Metric::power(), 1.0)));
        assert_eq!(shared.epoch(), 0);
        assert!(shared.publish(&2, &MetricValues::new().with(Metric::power(), 85.0)));
        assert_eq!(shared.epoch(), 1);
    }

    #[test]
    fn empty_or_no_change_publishes_do_not_bump_the_epoch() {
        let shared = SharedKnowledge::new(design(), 4);
        // Empty observation: accepted (the config is known) but nothing
        // can change, so nobody's snapshot is invalidated.
        assert!(shared.publish(&1, &MetricValues::new()));
        assert_eq!(shared.epoch(), 0);
        // First real observation changes the effective power.
        assert!(shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0)));
        assert_eq!(shared.epoch(), 1);
        let shard = shared.shard_of(&1).unwrap();
        assert_eq!(shared.shard_epoch(shard), 1);
        // Re-observing the exact window mean leaves the effective value
        // where it was: no bump, globally or in the shard.
        assert!(shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0)));
        assert_eq!(shared.epoch(), 1);
        assert_eq!(shared.shard_epoch(shard), 1);
        assert_eq!(
            shared.knowledge().points()[0].metric(&Metric::power()),
            Some(60.0)
        );
    }

    #[test]
    fn non_finite_observations_are_dropped_and_counted() {
        let shared = SharedKnowledge::new(design(), 4);
        // The wire decoders perform no finiteness validation, so NaNs
        // can legitimately reach publish; they must never fold into a
        // window.
        let poisoned = MetricValues::from_unvalidated([
            (Metric::power(), f64::NAN),
            (Metric::exec_time(), 0.5),
        ]);
        assert!(shared.publish(&1, &poisoned), "the config is known");
        assert_eq!(shared.dropped_observations(), 1);
        let k = shared.knowledge();
        let p1 = &k.points()[0];
        assert_eq!(p1.metric(&Metric::power()), Some(50.0), "design value kept");
        assert_eq!(
            p1.metric(&Metric::exec_time()),
            Some(0.5),
            "finite value merged"
        );
        // A fully non-finite publish changes nothing: no epoch bump.
        let epoch = shared.epoch();
        let all_nan = MetricValues::from_unvalidated([(Metric::power(), f64::INFINITY)]);
        assert!(shared.publish(&1, &all_nan));
        assert_eq!(shared.epoch(), epoch);
        assert_eq!(shared.dropped_observations(), 2);
    }

    #[test]
    fn shard_epochs_split_the_global_epoch() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(4);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        shared.publish(&2, &MetricValues::new().with(Metric::power(), 85.0));
        assert_eq!(shared.epoch(), 2);
        let s1 = shared.shard_of(&1).unwrap();
        let s2 = shared.shard_of(&2).unwrap();
        let total: u64 = (0..shared.shard_count())
            .map(|s| shared.shard_epoch(s))
            .sum();
        assert_eq!(total, 2);
        assert!(shared.shard_epoch(s1) >= 1);
        assert!(shared.shard_epoch(s2) >= 1);
    }

    #[test]
    fn windows_slide_so_old_observations_age_out() {
        let shared = SharedKnowledge::new(design(), 2);
        for p in [10.0, 20.0, 30.0] {
            shared.publish(&1, &MetricValues::new().with(Metric::power(), p));
        }
        let k = shared.knowledge();
        assert_eq!(k.points()[0].metric(&Metric::power()), Some(25.0));
    }

    #[test]
    fn min_observations_gates_the_override() {
        let shared = SharedKnowledge::new(design(), 4).with_min_observations(3);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 90.0));
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 90.0));
        assert_eq!(
            shared.knowledge().points()[0].metric(&Metric::power()),
            Some(50.0),
            "two observations must not override yet"
        );
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 90.0));
        assert_eq!(
            shared.knowledge().points()[0].metric(&Metric::power()),
            Some(90.0)
        );
    }

    #[test]
    fn snapshot_pairs_epoch_and_knowledge() {
        let shared = SharedKnowledge::new(design(), 4);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        let (epoch, k) = shared.snapshot();
        assert_eq!(epoch, 1);
        assert_eq!(k.points()[0].metric(&Metric::power()), Some(60.0));
    }

    #[test]
    fn publish_batch_matches_one_by_one_publishes() {
        let batch = SharedKnowledge::new(design(), 4).with_shards(3);
        let single = SharedKnowledge::new(design(), 4).with_shards(3);
        let observations: Vec<(u32, MetricValues)> = vec![
            (1, MetricValues::new().with(Metric::power(), 60.0)),
            (2, MetricValues::new().with(Metric::power(), 85.0)),
            (1, MetricValues::new().with(Metric::power(), 70.0)),
            (99, MetricValues::new().with(Metric::power(), 1.0)),
        ];
        let accepted = batch.publish_batch(observations.iter().map(|(c, m)| (c, m)));
        assert_eq!(accepted, 3, "the unknown config is skipped");
        for (config, observed) in &observations {
            single.publish(config, observed);
        }
        assert_eq!(batch.knowledge(), single.knowledge());
        assert_eq!(batch.epoch(), single.epoch());
        for s in 0..batch.shard_count() {
            assert_eq!(batch.shard_epoch(s), single.shard_epoch(s));
        }
    }

    #[test]
    fn drain_changes_patches_a_cache_to_the_snapshot() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(2);
        let mut cache = shared.knowledge();
        let mut cache_epoch = shared.epoch();
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        shared.publish(&2, &MetricValues::new().with(Metric::exec_time(), 0.5));
        let (to_epoch, changed) = shared.drain_changes();
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[0].0, 0, "ascending position order");
        assert_eq!(changed[1].0, 1);
        let delta = KnowledgeDelta {
            from_epoch: cache_epoch,
            to_epoch,
            changed,
        };
        assert!(delta.apply_to(&mut cache));
        cache_epoch = delta.to_epoch;
        assert_eq!(cache, shared.knowledge());
        assert_eq!(cache_epoch, shared.epoch());
        // A second drain with no publishes in between is empty.
        assert!(shared.drain_changes().1.is_empty());
    }

    #[test]
    fn drain_changes_into_patches_in_place() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(2);
        let twin = SharedKnowledge::new(design(), 4).with_shards(2);
        let mut cache = shared.knowledge();
        for (config, power) in [(1u32, 60.0), (2, 85.0), (1, 70.0)] {
            let observed = MetricValues::new().with(Metric::power(), power);
            shared.publish(&config, &observed);
            twin.publish(&config, &observed);
        }
        let (epoch, patched) = shared.drain_changes_into(&mut cache);
        assert_eq!(patched, 2);
        assert_eq!(epoch, shared.epoch());
        assert_eq!(cache, twin.knowledge(), "in-place drain == snapshot");
        // Nothing left to drain.
        assert_eq!(shared.drain_changes_into(&mut cache).1, 0);
    }

    #[test]
    fn publish_into_matches_publish_plus_drain() {
        // The merge-on-publish path must be bit-identical — cache,
        // epochs, shard epochs, dirty bookkeeping — to the barrier
        // path: publish one-by-one, then drain into the cache.
        let streamed = SharedKnowledge::new(design(), 4).with_shards(2);
        let barriered = SharedKnowledge::new(design(), 4).with_shards(2);
        let mut stream_cache = streamed.knowledge();
        let mut barrier_cache = barriered.knowledge();
        let sequence = [(1u32, 60.0), (2, 85.0), (1, 70.0), (2, 95.0), (1, 64.0)];
        for (config, power) in sequence {
            let observed = MetricValues::new().with(Metric::power(), power);
            let (pos, _) = streamed
                .publish_into(&config, &observed, &mut stream_cache)
                .expect("known config");
            assert_eq!(pos, config as usize - 1);
            barriered.publish(&config, &observed);
        }
        barriered.drain_changes_into(&mut barrier_cache);
        assert_eq!(stream_cache, barrier_cache);
        assert_eq!(streamed.epoch(), barriered.epoch());
        assert_eq!(streamed.shard_hashes(), barriered.shard_hashes());
        for s in 0..streamed.shard_count() {
            assert_eq!(streamed.shard_epoch(s), barriered.shard_epoch(s));
        }
        // The slot stays dirty for *other* caches: a fresh drain sees
        // every change the streamed cache already has.
        let mut late = streamed.layout.design.clone();
        let (_, patched) = streamed.drain_changes_into(&mut late);
        assert_eq!(patched, 2);
        assert_eq!(late, stream_cache);
    }

    #[test]
    fn publish_into_rejects_unknown_configs_and_skips_no_ops() {
        let shared = SharedKnowledge::new(design(), 4);
        let mut cache = shared.knowledge();
        assert_eq!(
            shared.publish_into(
                &99,
                &MetricValues::new().with(Metric::power(), 1.0),
                &mut cache
            ),
            None
        );
        // Empty observation: accepted, position reported, nothing changed.
        assert_eq!(
            shared.publish_into(&1, &MetricValues::new(), &mut cache),
            Some((0, false))
        );
        assert_eq!(shared.epoch(), 0);
        assert_eq!(cache, shared.knowledge());
    }

    #[test]
    fn delta_refuses_mismatched_knowledge() {
        let shared = SharedKnowledge::new(design(), 4);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        let (to_epoch, changed) = shared.drain_changes();
        let delta = KnowledgeDelta {
            from_epoch: 0,
            to_epoch,
            changed,
        };
        let mut reversed: Knowledge<u32> = design().points().iter().rev().cloned().collect();
        let before = reversed.clone();
        assert!(!delta.apply_to(&mut reversed), "configs do not line up");
        assert_eq!(reversed, before, "a refused delta changes nothing");
    }

    #[test]
    fn one_shard_is_the_unsharded_reference() {
        let sharded = SharedKnowledge::new(design(), 4).with_shards(5);
        let reference = SharedKnowledge::new(design(), 4).with_shards(1);
        for (config, power) in [(1u32, 60.0), (2, 85.0), (1, 70.0), (2, 95.0)] {
            sharded.publish(&config, &MetricValues::new().with(Metric::power(), power));
            reference.publish(&config, &MetricValues::new().with(Metric::power(), power));
        }
        assert_eq!(sharded.knowledge(), reference.knowledge());
        assert_eq!(sharded.epoch(), reference.epoch());
        assert_eq!(reference.shard_count(), 1);
        assert_eq!(reference.shard_epoch(0), reference.epoch());
    }

    fn power(value: f64) -> MetricValues {
        MetricValues::new().with(Metric::power(), value)
    }

    #[test]
    fn restore_point_rewinds_one_point_and_its_epochs() {
        // min_observations 2 makes the all-time totals observable, and
        // five samples through a window of 4 wrap the ring.
        let base = || {
            SharedKnowledge::new(design(), 4)
                .with_min_observations(2)
                .with_shards(3)
        };
        let shared = base();
        for p in [60.0, 61.0, 62.0, 63.0, 64.0] {
            shared.publish(&1, &power(p));
        }
        let saved = shared.point_state(0).expect("position 0 exists");
        // Move point 1 on, and touch point 2 (in whichever shard).
        shared.publish(&1, &power(90.0));
        shared.publish(&1, &power(91.0));
        shared.publish(&2, &power(99.0));
        shared.publish(&2, &power(98.0));
        assert!(shared.restore_point(&saved));
        assert_eq!(shared.point_state(0).as_ref(), Some(&saved));
        // A twin fed only what the restored state covers: point 1's
        // windows, totals and change count are back, point 2 keeps its
        // publishes, and the epochs moved by point 1's changes alone.
        let twin = base();
        for p in [60.0, 61.0, 62.0, 63.0, 64.0] {
            twin.publish(&1, &power(p));
        }
        twin.publish(&2, &power(99.0));
        twin.publish(&2, &power(98.0));
        assert_eq!(shared.knowledge(), twin.knowledge());
        assert_eq!(shared.epoch(), twin.epoch());
        for s in 0..shared.shard_count() {
            assert_eq!(shared.shard_epoch(s), twin.shard_epoch(s));
        }
        // The restored point continues bit-identically to the twin.
        for p in [70.0, 71.0] {
            shared.publish(&1, &power(p));
            twin.publish(&1, &power(p));
        }
        assert_eq!(shared.knowledge(), twin.knowledge());
        assert_eq!(shared.epoch(), twin.epoch());
        assert_eq!(shared.shard_hashes(), twin.shard_hashes());
        // The restore left the point dirty for the next drain.
        let (_, changed) = shared.drain_changes();
        assert!(changed.iter().any(|(pos, _)| *pos == 0));
    }

    #[test]
    fn restore_point_refuses_states_that_do_not_fit() {
        let shared = SharedKnowledge::new(design(), 4);
        assert_eq!(shared.point_state(2), None, "out of range");
        let wide = SharedKnowledge::new(design(), 4);
        for p in [60.0, 61.0, 62.0] {
            wide.publish(&1, &power(p));
        }
        let saved = wide.point_state(0).unwrap();
        let narrow = SharedKnowledge::new(design(), 2);
        assert!(!narrow.restore_point(&saved), "three samples, window 2");
        assert_eq!(
            narrow.knowledge(),
            design(),
            "a refused restore changes nothing"
        );
        let mut longer: Vec<OperatingPoint<u32>> = design().points().to_vec();
        longer.push(OperatingPoint::new(3, power(70.0)));
        let longer = SharedKnowledge::new(longer.into_iter().collect(), 4);
        longer.publish(&3, &power(75.0));
        assert!(!shared.restore_point(&longer.point_state(2).unwrap()));
        assert_eq!(shared.epoch(), 0);
    }

    #[test]
    fn resharding_carries_pre_epoch_windows() {
        // A published value equal to the design expectation changes no
        // effective value (epoch stays 0) but still seeds the window;
        // with_shards must carry that data to the new layout.
        let shared = SharedKnowledge::new(design(), 4).with_min_observations(2);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 50.0));
        assert_eq!(shared.epoch(), 0, "design-equal publish changes nothing");
        let resharded = shared.with_shards(2);
        resharded.publish(&1, &MetricValues::new().with(Metric::power(), 70.0));
        assert_eq!(
            resharded.knowledge().points()[0].metric(&Metric::power()),
            Some(60.0),
            "the carried observation still counts toward the window mean"
        );
    }

    #[test]
    fn shard_hashes_match_an_external_reconstruction() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(3);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        shared.publish(&2, &MetricValues::new().with(Metric::exec_time(), 0.5));
        // Rebuild the per-shard point groups from the effective
        // knowledge alone, exactly as a decoded snapshot would.
        let (_, k) = shared.snapshot();
        let shards = shared.shard_count();
        let mut groups: Vec<Vec<(usize, OperatingPoint<u32>)>> = vec![Vec::new(); shards];
        for (pos, point) in k.points().iter().enumerate() {
            groups[shard_index(&point.config, shards)].push((pos, point.clone()));
        }
        for (s, group) in groups.iter().enumerate() {
            assert_eq!(
                shared.shard_hash(s),
                shard_content_hash(group.iter().map(|(pos, p)| (*pos, p))),
                "shard {s}"
            );
        }
        assert_eq!(
            shared.shard_hashes(),
            (0..shards)
                .map(|s| shared.shard_hash(s))
                .collect::<Vec<_>>()
        );
        // Hashes are content hashes: diverging one point changes
        // exactly that point's shard.
        let before = shared.shard_hashes();
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 90.0));
        let after = shared.shard_hashes();
        let s1 = shared.shard_of(&1).unwrap();
        for s in 0..shards {
            if s == s1 {
                assert_ne!(before[s], after[s]);
            } else {
                assert_eq!(before[s], after[s]);
            }
        }
    }

    #[test]
    fn versioned_snapshot_is_consistent() {
        let shared = SharedKnowledge::new(design(), 4).with_shards(3);
        shared.publish(&1, &MetricValues::new().with(Metric::power(), 60.0));
        let (epoch, shard_epochs, k) = shared.versioned_snapshot();
        assert_eq!(epoch, shared.epoch());
        assert_eq!(k, shared.knowledge());
        assert_eq!(shard_epochs.len(), shared.shard_count());
        for (s, e) in shard_epochs.iter().enumerate() {
            assert_eq!(*e, shared.shard_epoch(s));
        }
    }

    #[test]
    fn restore_point_brings_back_the_dropped_count() {
        // Regression: a restore (the replica rollback primitive) must
        // bring back the point's share of the drop counter — a rollback
        // would otherwise count replayed drops twice.
        let shared = SharedKnowledge::new(design(), 4).with_shards(3);
        let nan = MetricValues::from_unvalidated([(Metric::power(), f64::NAN)]);
        shared.publish(&1, &nan);
        shared.publish(&2, &nan);
        let saved = shared.point_state(0).unwrap();
        shared.publish(&1, &nan);
        shared.publish(&2, &nan);
        assert_eq!(shared.dropped_observations(), 4);
        assert!(shared.restore_point(&saved));
        assert_eq!(
            shared.dropped_observations(),
            3,
            "point 1 is back to one drop, point 2 keeps its two"
        );
        // Resharding (epoch still 0: NaN publishes never bump it) must
        // also carry the counter, per point, through the rebuild.
        let resharded = shared.with_shards(2);
        assert_eq!(resharded.dropped_observations(), 3);
        assert!(
            resharded.drain_changes().1.is_empty(),
            "carrying changes no effective value, so it dirties nothing"
        );
        // A state captured before the rebuild still restores by position.
        assert!(resharded.restore_point(&saved));
        assert_eq!(resharded.dropped_observations(), 3);
    }

    #[test]
    fn concurrent_publishes_are_all_merged() {
        let shared = std::sync::Arc::new(SharedKnowledge::new(design(), 1024));
        let threads = 8u32;
        let per_thread = 50u32;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let v = f64::from(t * per_thread + i);
                        shared.publish(&1, &MetricValues::new().with(Metric::power(), v));
                    }
                });
            }
        });
        // Every publish that changed the running mean bumped the epoch;
        // interleavings where a pushed value equals the current mean do
        // not, so the epoch is at most one per publish but at least one
        // (the first observation always changes the effective value).
        let epoch = shared.epoch();
        assert!(
            epoch >= 1 && epoch <= u64::from(threads * per_thread),
            "{epoch}"
        );
        // All 400 observations landed in the (large) window: the mean is
        // the mean of 0..400 regardless of interleaving.
        let mean = shared.knowledge().points()[0]
            .metric(&Metric::power())
            .unwrap();
        let expect = f64::from(threads * per_thread - 1) / 2.0;
        assert!((mean - expect).abs() < 1e-9, "{mean} vs {expect}");
    }
}
