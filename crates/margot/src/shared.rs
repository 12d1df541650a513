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
//! Points are stored in one dense **columnar arena** indexed by
//! knowledge position rather than a map of monitors per point: configs
//! are interned to positions at construction, and the arena keeps one
//! structure-of-arrays column per metric — a flat `points × window`
//! ring-buffer block plus parallel `start`/`len`/`total` vectors. A
//! publish is an O(1) index lookup followed by a ring write; no
//! per-observation allocation, no tree rebalancing, and window means
//! stream over contiguous memory.
//!
//! The arena has a single owner: it sits behind one `RefCell`, so a
//! knowledge base is `Send` but not `Sync`. Every runtime folds its
//! observations on one thread — the lockstep barrier in instance order,
//! the event loop per publish event, a replica per received
//! observation — and sharing one knowledge base across threads does
//! not compile.
//!
//! # Per-point state
//!
//! Operating points fold independently: a publish touches only its own
//! point's windows, and every epoch is a sum of per-point change counts.
//! [`point_state`](SharedKnowledge::point_state) captures one point's
//! windows, totals, change count and dropped-value count;
//! [`restore_point`](SharedKnowledge::restore_point) puts them back,
//! moving the epochs by the change-count difference. That is the
//! rollback primitive of a replica that refolds only the point a late
//! observation touched.
//!
//! # Shards
//!
//! The points are partitioned into `S` **shards** (deterministic
//! config-hash → shard). Shards hold no data of their own: they are
//! the unit epoch vectors and snapshots are cut along
//! ([`shard_epoch`], [`versioned_snapshot`]), so two replicas can
//! compare their folds shard by shard. The effective knowledge is
//! bit-identical at any shard count.
//!
//! # Versioning
//!
//! One epoch counter per shard, plus the global epoch (their sum), let
//! readers detect refreshed knowledge without cloning it. Epochs
//! advance **iff an effective value actually changed**: a publish that
//! leaves every window mean where it was (an empty observation, or a
//! value equal to the current mean) does not invalidate anybody's
//! snapshot. Changed points are tracked in a *dirty set*; a coordinator
//! drains them straight out of the arena — patching its cached
//! [`Knowledge`] in place with [`drain_changes_into`], or materialising
//! a [`KnowledgeDelta`] for the wire with [`drain_changes`] — instead
//! of rebuilding the whole effective knowledge.
//!
//! [`shard_epoch`]: SharedKnowledge::shard_epoch
//! [`versioned_snapshot`]: SharedKnowledge::versioned_snapshot
//! [`drain_changes`]: SharedKnowledge::drain_changes
//! [`drain_changes_into`]: SharedKnowledge::drain_changes_into

use crate::knowledge::{Knowledge, OperatingPoint};
use crate::metric::{Metric, MetricValues};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Default number of shards ([`SharedKnowledge::with_shards`]).
pub const DEFAULT_SHARDS: usize = 16;

/// One metric's structure-of-arrays column: a flat `points × window`
/// block of ring buffers plus parallel ring bookkeeping, mirroring
/// [`Monitor`](crate::Monitor)'s sliding-window semantics bit-for-bit
/// (same push order, same oldest→newest summation).
#[derive(Debug)]
struct MetricCol {
    /// Ring storage; position `p` owns `buf[p*window .. (p+1)*window]`.
    buf: Vec<f64>,
    /// Ring start (index of the oldest sample) per position.
    start: Vec<u32>,
    /// Samples currently in the ring per position.
    len: Vec<u32>,
    /// Total accepted observations ever per position (ages past the
    /// window), gating `min_observations` exactly like
    /// [`Monitor::total_observations`](crate::Monitor::total_observations).
    total: Vec<u64>,
}

impl MetricCol {
    fn new(points: usize, window: usize) -> Self {
        MetricCol {
            buf: vec![0.0; points * window],
            start: vec![0; points],
            len: vec![0; points],
            total: vec![0; points],
        }
    }

    /// Pushes one (finite) sample into `pos`'s ring, evicting the
    /// oldest at capacity — the [`Monitor::push`](crate::Monitor::push) accept path.
    fn push(&mut self, pos: usize, window: usize, value: f64) {
        let base = pos * window;
        let start = self.start[pos] as usize;
        let len = self.len[pos] as usize;
        if len == window {
            self.buf[base + start] = value;
            self.start[pos] = ((start + 1) % window) as u32;
        } else {
            self.buf[base + (start + len) % window] = value;
            self.len[pos] = (len + 1) as u32;
        }
        self.total[pos] += 1;
    }

    /// Window mean of `pos`, summing oldest→newest from 0.0 — the
    /// exact float-order of [`Monitor::mean`](crate::Monitor::mean), so the arena is
    /// bit-identical to the monitor-per-point representation.
    fn mean(&self, pos: usize, window: usize) -> Option<f64> {
        let len = self.len[pos] as usize;
        if len == 0 {
            return None;
        }
        Some(self.ordered(pos, window).fold(0.0, |sum, v| sum + v) / len as f64)
    }

    /// The value this column contributes to `pos`'s effective point:
    /// the window mean once `min_observations` samples were accepted
    /// and the mean is finite, `None` otherwise (the design-time
    /// expectation stands).
    fn learned(&self, pos: usize, window: usize, min_observations: u64) -> Option<f64> {
        if self.total[pos] < min_observations {
            return None;
        }
        self.mean(pos, window).filter(|mean| mean.is_finite())
    }

    /// The ring contents of `pos` as two slices: the older samples,
    /// then the ones that wrapped around to the front of the ring.
    fn ring(&self, pos: usize, window: usize) -> (&[f64], &[f64]) {
        let ring = &self.buf[pos * window..(pos + 1) * window];
        let (start, len) = (self.start[pos] as usize, self.len[pos] as usize);
        match (start + len).checked_sub(window) {
            Some(wrapped) if wrapped > 0 => (&ring[start..], &ring[..wrapped]),
            _ => (&ring[start..start + len], &[]),
        }
    }

    /// The ring contents of `pos`, oldest→newest.
    fn ordered(&self, pos: usize, window: usize) -> impl Iterator<Item = f64> + '_ {
        let (oldest, newest) = self.ring(pos, window);
        oldest.iter().chain(newest).copied()
    }

    /// Replaces `pos`'s ring with `values` (oldest→newest, at most
    /// `window` of them) and its all-time count with `total`.
    fn set(&mut self, pos: usize, window: usize, values: &[f64], total: u64) {
        let base = pos * window;
        self.buf[base..base + values.len()].copy_from_slice(values);
        self.start[pos] = 0;
        self.len[pos] = values.len() as u32;
        self.total[pos] = total;
    }
}

/// The mutable half of a [`SharedKnowledge`]: the metric columns over
/// every point plus the change bookkeeping, all indexed by knowledge
/// position.
#[derive(Debug)]
struct Arena {
    /// Metric universe in first-published order; parallel to `cols`.
    metrics: Vec<Metric>,
    cols: Vec<MetricCol>,
    /// Per position: publishes that changed the point's effective
    /// values.
    changes: Vec<u64>,
    /// Per position: non-finite values dropped at publish.
    dropped: Vec<u64>,
    /// Positions whose effective point changed since the last drain,
    /// each once (`is_dirty` marks them); drains sort them first, so
    /// they patch in ascending position order.
    dirty: Vec<usize>,
    is_dirty: Vec<bool>,
    /// Per shard: the sum of its points' change counts.
    shard_epochs: Vec<u64>,
}

impl Arena {
    fn new(points: usize, shards: usize) -> Self {
        Arena {
            metrics: Vec::new(),
            cols: Vec::new(),
            changes: vec![0; points],
            dropped: vec![0; points],
            dirty: Vec::new(),
            is_dirty: vec![false; points],
            shard_epochs: vec![0; shards],
        }
    }

    fn epoch(&self) -> u64 {
        self.shard_epochs.iter().sum()
    }

    fn mark_dirty(&mut self, pos: usize) {
        if !self.is_dirty[pos] {
            self.is_dirty[pos] = true;
            self.dirty.push(pos);
        }
    }

    /// Empties the dirty set, keeping its storage; returns how many
    /// positions it held.
    fn clear_dirty(&mut self) -> usize {
        for &pos in &self.dirty {
            self.is_dirty[pos] = false;
        }
        let drained = self.dirty.len();
        self.dirty.clear();
        drained
    }

    fn ensure_col(&mut self, metric: &Metric, window: usize) -> usize {
        match self.metrics.iter().position(|m| m == metric) {
            Some(i) => i,
            None => {
                self.metrics.push(metric.clone());
                self.cols.push(MetricCol::new(self.changes.len(), window));
                self.cols.len() - 1
            }
        }
    }
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
            knowledge.patch_point_from(*pos, point);
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

/// The deterministic shard `config` maps to under `shards` shards:
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
/// `(metric name, f64 bit pattern)` pair in metric order: a bit-identity
/// check between two folds of knowledge (a live knowledge base, a
/// decoded snapshot, another replica's fold), whole or one
/// [`shard_index`] group at a time.
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

/// A versioned knowledge base shared by a fleet of adaptive-application
/// instances.
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
    design: Knowledge<K>,
    /// Config → position in the effective [`Knowledge`] (the design
    /// knowledge's order), fixed at construction.
    index: HashMap<K, usize>,
    /// Position → shard.
    shards: Vec<usize>,
    window: usize,
    min_observations: u64,
    arena: RefCell<Arena>,
}

impl<K: Clone + Eq + Hash> SharedKnowledge<K> {
    /// Wraps a design-time knowledge base; every published observation
    /// is merged through a sliding window of `window` samples per
    /// `(point, metric)`. Points are spread over [`DEFAULT_SHARDS`]
    /// shards ([`with_shards`](Self::with_shards) to tune).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (same contract as [`Monitor::new`](crate::Monitor::new)).
    pub fn new(design: Knowledge<K>, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        let index = design
            .points()
            .iter()
            .enumerate()
            .map(|(pos, point)| (point.config.clone(), pos))
            .collect();
        let arena = RefCell::new(Arena::new(design.len(), DEFAULT_SHARDS));
        SharedKnowledge {
            shards: Self::partition(&design, DEFAULT_SHARDS),
            design,
            index,
            window,
            min_observations: 1,
            arena,
        }
    }

    /// Each position's shard under `shards` shards.
    fn partition(design: &Knowledge<K>, shards: usize) -> Vec<usize> {
        design
            .points()
            .iter()
            .map(|point| shard_index(&point.config, shards))
            .collect()
    }

    /// Builder-style: observations needed before a window mean overrides
    /// the design-time value of a metric (default 1).
    #[must_use]
    pub fn with_min_observations(mut self, min_observations: u64) -> Self {
        self.min_observations = min_observations.max(1);
        self
    }

    /// Builder-style: repartitions the points over `shards` shards.
    /// Shards only partition snapshots, deltas and epoch-vector repair;
    /// the effective knowledge and the global epoch are bit-identical
    /// at any shard count.
    ///
    /// Must be called **before the first publish**: the shard epochs
    /// restart from zero.
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
            "with_shards must be called before the first publish: the shard epochs \
             restart from zero"
        );
        self.shards = Self::partition(&self.design, shards);
        let arena = self.arena.get_mut();
        arena.shard_epochs = vec![0; shards];
        // Nothing effective has changed yet, so no drain owes anyone a
        // point.
        arena.clear_dirty();
        self
    }

    /// The current knowledge version: the number of publishes that
    /// changed an effective value. Readers compare it against their
    /// last synced epoch to detect refreshed knowledge without cloning.
    pub fn epoch(&self) -> u64 {
        self.arena.borrow().epoch()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.arena.borrow().shard_epochs.len()
    }

    /// The epoch of shard `shard`: how many publishes changed an
    /// effective value of one of its points.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.arena.borrow().shard_epochs[shard]
    }

    /// The position of `config` in the effective [`Knowledge`] (the
    /// design knowledge's order), or `None` for unknown configs.
    pub fn position_of(&self, config: &K) -> Option<usize> {
        self.index.get(config).copied()
    }

    /// Captures the fold state of the point at `position`: its
    /// windows, all-time counts, change count and dropped-value count.
    /// `None` when `position` is out of range.
    pub fn point_state(&self, position: usize) -> Option<PointState> {
        let mut state = PointState {
            position,
            windows: Vec::new(),
            values: Vec::new(),
            changes: 0,
            dropped: 0,
        };
        self.point_state_into(position, &mut state).then_some(state)
    }

    /// [`point_state`](Self::point_state) over a state captured before,
    /// reusing its buffers: what a caller that keeps saving states of
    /// its points writes instead of allocating a fresh one each time.
    /// Returns `false` (and leaves `state` as it was) when `position`
    /// is out of range.
    pub fn point_state_into(&self, position: usize, state: &mut PointState) -> bool {
        if position >= self.len() {
            return false;
        }
        let arena = self.arena.borrow();
        state.position = position;
        state.windows.clear();
        state.values.clear();
        for (metric, col) in arena.metrics.iter().zip(&arena.cols) {
            let total = col.total[position];
            if total > 0 {
                state
                    .windows
                    .push((metric.clone(), col.len[position] as usize, total));
                state.values.extend(col.ordered(position, self.window));
            }
        }
        state.changes = arena.changes[position];
        state.dropped = arena.dropped[position];
        true
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
        let (pos, window) = (saved.position, self.window);
        if pos >= self.len() || saved.windows.iter().any(|&(_, len, _)| len > window) {
            return false;
        }
        let mut arena = self.arena.borrow_mut();
        let arena = &mut *arena;
        for col in &mut arena.cols {
            col.set(pos, window, &[], 0);
        }
        let mut values = saved.values.as_slice();
        for (metric, len, total) in &saved.windows {
            let (ring, rest) = values.split_at(*len);
            let c = arena.ensure_col(metric, window);
            arena.cols[c].set(pos, window, ring, *total);
            values = rest;
        }
        let shard_epoch = &mut arena.shard_epochs[self.shards[pos]];
        *shard_epoch = *shard_epoch - arena.changes[pos] + saved.changes;
        arena.changes[pos] = saved.changes;
        arena.dropped[pos] = saved.dropped;
        arena.mark_dirty(pos);
        true
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.design.len()
    }

    /// Whether the shared knowledge has no points.
    pub fn is_empty(&self) -> bool {
        self.design.is_empty()
    }

    /// Non-finite observed values dropped (and counted) by
    /// [`publish`](Self::publish)/[`publish_batch`](Self::publish_batch)
    /// instead of being folded into a window — the shared-knowledge
    /// mirror of [`Monitor::push`](crate::Monitor::push)'s policy. Values can reach this path
    /// from the wire, whose decoders deliberately perform no finiteness
    /// validation ([`MetricValues::from_unvalidated`]).
    pub fn dropped_observations(&self) -> u64 {
        self.arena.borrow().dropped.iter().sum()
    }

    /// Merges `observed` into the point at `pos` and, when one of its
    /// effective values changed, marks it dirty and advances its change
    /// count and shard epoch. Only the observed metrics are compared —
    /// untouched columns cannot change — and only until the first one
    /// moves, so the hot publish path stays O(|observed|) with no point
    /// clones. Returns whether the point changed.
    fn merge(&self, arena: &mut Arena, pos: usize, observed: &MetricValues) -> bool {
        let design = &self.design.points()[pos].metrics;
        let (window, min_observations) = (self.window, self.min_observations);
        let mut changed = false;
        for (metric, value) in observed.iter() {
            if !value.is_finite() {
                // The Monitor::push policy at the shared level: drop
                // and count, never poison a window mean.
                arena.dropped[pos] += 1;
                continue;
            }
            // A fresh column has no samples, so it leaves the design
            // value in force exactly like a missing one.
            let c = arena.ensure_col(metric, window);
            let col = &mut arena.cols[c];
            if changed {
                // The point already moved; no later metric can undo it.
                col.push(pos, window, value);
                continue;
            }
            let effective = |col: &MetricCol| {
                col.learned(pos, window, min_observations)
                    .or_else(|| design.get(metric))
            };
            let before = effective(col);
            col.push(pos, window, value);
            // Effective values are finite by construction (non-finite
            // means fall back to the finite design value), so `!=` on
            // the options is an exact change test.
            changed = before != effective(col);
        }
        if changed {
            arena.mark_dirty(pos);
            arena.changes[pos] += 1;
            arena.shard_epochs[self.shards[pos]] += 1;
        }
        changed
    }

    /// The effective operating point at `pos`: window means override
    /// the design values for every metric with at least
    /// `min_observations`.
    fn effective_point(&self, arena: &Arena, pos: usize) -> OperatingPoint<K> {
        let mut point = self.design.points()[pos].clone();
        self.learn(arena, pos, &mut point.metrics);
        point
    }

    /// Overwrites `point` with the effective point at `pos` in place,
    /// reusing its storage.
    fn write_effective(&self, arena: &Arena, pos: usize, point: &mut OperatingPoint<K>) {
        point.clone_from(&self.design.points()[pos]);
        self.learn(arena, pos, &mut point.metrics);
    }

    /// Puts every learned window mean of `pos` over its design values.
    fn learn(&self, arena: &Arena, pos: usize, metrics: &mut MetricValues) {
        for (metric, col) in arena.metrics.iter().zip(&arena.cols) {
            if let Some(mean) = col.learned(pos, self.window, self.min_observations) {
                metrics.insert(metric.clone(), mean);
            }
        }
    }

    /// The whole effective knowledge, in design order.
    fn effective(&self, arena: &Arena) -> Knowledge<K> {
        (0..self.len())
            .map(|pos| self.effective_point(arena, pos))
            .collect()
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
        self.index
            .get(config)
            .is_some_and(|&pos| self.publish_at(pos, observed))
    }

    /// [`publish`](Self::publish) by knowledge position, for a caller
    /// that already resolved the config
    /// ([`position_of`](Self::position_of)), as
    /// [`point_state`](Self::point_state) and
    /// [`restore_point`](Self::restore_point) take one. Returns `false`
    /// (and changes nothing) when `pos` is out of range.
    pub fn publish_at(&self, pos: usize, observed: &MetricValues) -> bool {
        if pos >= self.len() {
            return false;
        }
        self.merge(&mut self.arena.borrow_mut(), pos, observed);
        true
    }

    /// Merges one observation and — when it changed an effective value
    /// — patches the updated point **straight into** `cache`: the
    /// merge-on-publish path of an event-driven runtime, where
    /// knowledge folds in per publish event instead of at a round
    /// barrier. Windows, dirty sets and epochs advance exactly as
    /// [`publish`](Self::publish) (the point stays dirty so *other*
    /// caches still see the change on their next drain), so a sequence
    /// of `publish_into` calls is bit-identical to the same sequence of
    /// `publish` + [`drain_changes_into`](Self::drain_changes_into) —
    /// without the drain per event.
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
        let &pos = self.index.get(config)?;
        let mut arena = self.arena.borrow_mut();
        let changed = self.merge(&mut arena, pos, observed);
        if changed {
            cache.patch_point_with(pos, |point| self.write_effective(&arena, pos, point));
        }
        Some((pos, changed))
    }

    /// Merges a whole batch of observations — e.g. one fleet round — in
    /// the order given, so a deterministic input order (instance order
    /// at a round barrier) yields bit-identical windows and epochs to
    /// publishing one by one. Unknown configs are skipped; returns the
    /// number of accepted observations.
    pub fn publish_batch<'a, I>(&self, observations: I) -> usize
    where
        K: 'a,
        I: IntoIterator<Item = (&'a K, &'a MetricValues)>,
    {
        let mut accepted = 0;
        for (config, observed) in observations {
            accepted += usize::from(self.publish(config, observed));
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
            if !self.index.contains_key(&p.config) {
                continue;
            }
            for _ in 0..copies {
                self.publish(&p.config, &p.metrics);
            }
            seeded += 1;
        }
        seeded
    }

    /// Drains the dirty set: the effective points that changed since
    /// the last drain, as `(position, point)` pairs in ascending
    /// position order, paired with the epoch the drain is consistent
    /// with. A coordinator patches the points into its cached
    /// [`Knowledge`] (one [`Knowledge::patch_point`] per changed point)
    /// and records the returned epoch, instead of rebuilding the
    /// effective knowledge from scratch — the incremental-refresh half
    /// of the scaling story. A cache patched with the changes *is* the
    /// `epoch` knowledge, so a later `epoch() == recorded` comparison
    /// can safely skip re-draining.
    pub fn drain_changes(&self) -> (u64, Vec<(usize, OperatingPoint<K>)>) {
        let mut arena = self.arena.borrow_mut();
        arena.dirty.sort_unstable();
        let changed = arena
            .dirty
            .iter()
            .map(|&pos| (pos, self.effective_point(&arena, pos)))
            .collect();
        arena.clear_dirty();
        (arena.epoch(), changed)
    }

    /// Drains the dirty points **straight into** `cache`, patching the
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
        let mut arena = self.arena.borrow_mut();
        arena.dirty.sort_unstable();
        for &pos in &arena.dirty {
            cache.patch_point_with(pos, |point| self.write_effective(&arena, pos, point));
        }
        let drained = arena.clear_dirty();
        (arena.epoch(), drained)
    }

    /// Overwrites `out` with the positions the next drain patches, in
    /// ascending order: what a caller keeping two caches learns about
    /// the one it does not drain into.
    pub fn dirty_positions_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend_from_slice(&self.arena.borrow().dirty);
        out.sort_unstable();
    }

    /// The effective knowledge: design-time points with every
    /// sufficiently-observed metric replaced by its window mean.
    pub fn knowledge(&self) -> Knowledge<K> {
        self.effective(&self.arena.borrow())
    }

    /// The epoch and the effective knowledge at that epoch.
    pub fn snapshot(&self) -> (u64, Knowledge<K>) {
        let arena = self.arena.borrow();
        (arena.epoch(), self.effective(&arena))
    }

    /// Epoch, per-shard epoch vector and effective knowledge at that
    /// epoch — the consistent triple a full-state snapshot is cut from.
    pub fn versioned_snapshot(&self) -> (u64, Vec<u64>, Knowledge<K>) {
        let arena = self.arena.borrow();
        (
            arena.epoch(),
            arena.shard_epochs.clone(),
            self.effective(&arena),
        )
    }

    /// Number of operating points whose runtime observations have
    /// crossed the `min_observations` threshold (i.e. whose effective
    /// metrics are online values rather than design-time predictions)
    /// — the fleet's online coverage of the design space.
    pub fn observed_points(&self) -> usize {
        let arena = self.arena.borrow();
        (0..self.len())
            .filter(|&pos| {
                arena
                    .cols
                    .iter()
                    .any(|c| c.total[pos] >= self.min_observations)
            })
            .count()
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

    /// The bit-exact digest of the effective knowledge.
    fn content_hash(shared: &SharedKnowledge<u32>) -> u64 {
        shard_content_hash(shared.knowledge().points().iter().enumerate())
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
        let shard = shard_index(&1u32, shared.shard_count());
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
        let s1 = shard_index(&1u32, shared.shard_count());
        let s2 = shard_index(&2u32, shared.shard_count());
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
        assert_eq!(streamed.knowledge(), barriered.knowledge());
        assert_eq!(content_hash(&streamed), content_hash(&barriered));
        for s in 0..streamed.shard_count() {
            assert_eq!(streamed.shard_epoch(s), barriered.shard_epoch(s));
        }
        // The slot stays dirty for *other* caches: a fresh drain sees
        // every change the streamed cache already has.
        let mut late = streamed.design.clone();
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
        // Capturing into a state of another point reuses it in place;
        // out of range leaves it as it was.
        let mut reused = shared.point_state(1).expect("position 1 exists");
        assert!(shared.point_state_into(0, &mut reused));
        assert_eq!(reused, saved);
        assert!(!shared.point_state_into(2, &mut reused));
        assert_eq!(reused, saved);
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
        assert_eq!(content_hash(&shared), content_hash(&twin));
        assert_eq!(shared.epoch(), twin.epoch());
        for s in 0..shared.shard_count() {
            assert_eq!(shared.shard_epoch(s), twin.shard_epoch(s));
        }
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
        // with_shards must keep that data.
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
        // also keep the counter, per point.
        let resharded = shared.with_shards(2);
        assert_eq!(resharded.dropped_observations(), 3);
        assert!(
            resharded.drain_changes().1.is_empty(),
            "resharding changes no effective value, so it dirties nothing"
        );
        // A state captured before the reshard still restores by position.
        assert!(resharded.restore_point(&saved));
        assert_eq!(resharded.dropped_observations(), 3);
    }
}
