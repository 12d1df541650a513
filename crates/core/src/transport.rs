//! Distributed knowledge exchange over a deterministic simulated
//! transport — the layer that turns the online runtime from one
//! process into a system.
//!
//! SOCRATES' online phase is *crowdsourced*: many deployed instances
//! exchange runtime observations, not a shared address space. This
//! module provides the three pieces the [`crate::DistributedFleet`]
//! builds on:
//!
//! - [`SimNet`] — a simulated message transport driven by the fleet's
//!   virtual clock (one tick per synchronized round). Every link gets
//!   a seeded per-link RNG drawing latency (which reorders messages),
//!   drops and duplicates, so any lossy schedule is **deterministic
//!   and replayable** from the [`LinkConfig`] seed.
//! - [`WireMessage`] — the gossip protocol: observation batches,
//!   summaries, and the join request and log snapshot of churn. On the
//!   wire, messages travel as length-prefixed **binary frames**
//!   ([`crate::wire_to_bytes`]). A frame is encoded once and queued as
//!   one shared `Arc<[u8]>` for every target and duplicate copy; the
//!   distributed fleet writes its frames straight from its replica's
//!   log with the by-reference writers ([`crate::write_ops_frame`],
//!   [`crate::write_welcome_log_frame`], byte-identical to
//!   `wire_to_bytes`). [`SimNet::poll_due`] decodes
//!   on delivery, so every distributed test exercises the codec. A
//!   receiver that already holds some of a frame's observations skips
//!   building them ([`SimNet::poll_due_keeping`]). The frame format is
//!   pinned by the binary golden files under `tests/golden/`.
//! - [`Replica`] — a replicated observation log with a **canonical
//!   fold order**. Observations are totally ordered by `(round,
//!   origin)`; a replica folds its log into a [`SharedKnowledge`] in
//!   that order regardless of arrival order. Operating points fold
//!   independently, so a late arrival rolls back and replays only the
//!   point it observed. Two replicas holding the same set of
//!   observations therefore expose bit-identical effective knowledge
//!   *and* per-shard epoch vectors — the invariant reconciliation
//!   reduces to, and the one the transport property tests pin against
//!   a single-shard [`SharedKnowledge`] reference.
//!
//!   A replica keeps each observation once, in an append-only **arena**
//!   addressed by `u32` slot. The canonical `(round, origin)` map, each
//!   operating point's keys, each origin's sequence numbers and the
//!   fleet's rumor outboxes hold slots; [`Replica::missing_for`] and
//!   [`Replica::ops`] hand out references. Folds and replays read an
//!   observation where it lies, and a frame is written from those
//!   references, so an observation is copied only when it is decoded
//!   from the wire. Saved fold states are buffers reused through
//!   [`SharedKnowledge::point_state_into`].
//!
//! Reconciliation is gossip ([`DistTopology::Gossip`]): every node
//! holds a full [`Replica`] and rumors new observations to a rotating
//! set of `fanout` peers; periodic [`WireMessage::Summary`] exchanges
//! (per-origin contiguous sequence watermarks) let any pair retransmit
//! exactly what the other is missing, so the logs — and with them the
//! folded knowledge — converge once the links drain.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::SocratesError;
use margot::{Knowledge, KnowledgeDelta, MetricValues, PointState, SharedKnowledge};
use platform_sim::KnobConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Identifies one participant of the exchange. Nodes are numbered in
/// spawn order, so the canonical observation order matches the
/// in-process fleet's instance order.
pub type NodeId = u32;

/// One runtime observation on the wire: which node observed which
/// metrics under which configuration, in which synchronized round.
///
/// `(round, origin)` is the observation's identity *and* its position
/// in the canonical fold order; `seq` is the origin's contiguous
/// per-node counter (what summaries watermark against).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The node that measured this observation.
    pub origin: NodeId,
    /// The origin's own contiguous observation counter (0, 1, 2, …).
    pub seq: u64,
    /// The synchronized round the observation was taken in.
    pub round: u64,
    /// The software-knob configuration that was running.
    pub config: KnobConfig,
    /// The measured metric values.
    pub observed: MetricValues,
}

impl Observation {
    /// The observation's identity and canonical-order key.
    pub fn op_id(&self) -> (u64, NodeId) {
        (self.round, self.origin)
    }
}

/// The knowledge-exchange protocol. Frames are encoded with
/// [`crate::wire_to_bytes`] / [`crate::wire_from_bytes`]; the format is
/// pinned by `tests/golden/wire_messages.bin`.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage {
    /// A node announces itself (mid-run churn); a peer answers with
    /// [`WireMessage::WelcomeLog`]. Resent until the log arrives.
    Join {
        /// The joining node.
        node: NodeId,
    },
    /// A batch of observations (rumor forwarding and anti-entropy
    /// retransmissions).
    Ops {
        /// The observations, in canonical `(round, origin)` order.
        ops: Vec<Observation>,
    },
    /// Anti-entropy: what the sender's replica holds, as per-origin
    /// contiguous sequence watermarks. The receiver retransmits what
    /// the sender is missing, and if `reply` is set answers with its
    /// own summary so one exchange reconciles both directions.
    Summary {
        /// `(origin, contiguous count)`: the sender holds every
        /// observation of `origin` with `seq < count`.
        counts: Vec<(NodeId, u64)>,
        /// Whether the receiver should answer with its own summary.
        reply: bool,
    },
    /// Peer → joining node: a snapshot of the full observation log;
    /// the joiner folds it and catches up via gossiped ops.
    WelcomeLog {
        /// Every observation the peer holds, in canonical order.
        ops: Vec<Observation>,
    },
}

/// The seeded loss/latency model applied independently to every
/// directed link of a [`SimNet`].
///
/// Latencies are in **virtual-clock ticks** (the fleet ticks once per
/// synchronized round). A latency of 0 delivers in the next round's
/// delivery phase — or within the *same* phase for replies generated
/// while delivering, which is what makes an ideal link behave exactly
/// like the in-process barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Seed of the per-link RNG streams (links are independent:
    /// traffic on one link never perturbs another's schedule).
    pub seed: u64,
    /// Minimum per-message latency, ticks.
    pub min_latency: u64,
    /// Maximum per-message latency, ticks (uniform in
    /// `min..=max`; jitter is what reorders messages).
    pub max_latency: u64,
    /// Probability a message copy is silently dropped. Must be `< 1`.
    pub drop_prob: f64,
    /// Probability a message is transmitted twice (each copy with its
    /// own latency and drop draw).
    pub dup_prob: f64,
}

impl LinkConfig {
    /// A lossless, zero-latency, duplicate-free link: the wire
    /// equivalent of the in-process round barrier.
    pub fn ideal(seed: u64) -> Self {
        LinkConfig {
            seed,
            min_latency: 0,
            max_latency: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// Checks the model for values that could never converge (drop
    /// probability 1) or are malformed (inverted latency range,
    /// non-finite probabilities).
    ///
    /// # Errors
    ///
    /// Returns a transport-stage [`SocratesError`] naming the field.
    pub fn validate(&self) -> Result<(), SocratesError> {
        if self.min_latency > self.max_latency {
            return Err(SocratesError::transport(format!(
                "link min_latency {} exceeds max_latency {}",
                self.min_latency, self.max_latency
            )));
        }
        let p = self.drop_prob;
        if !(p.is_finite() && (0.0..1.0).contains(&p)) {
            return Err(SocratesError::transport(format!(
                "link drop_prob = {p} must be a finite probability in [0, 1) \
                 (1 would mean no message is ever delivered)"
            )));
        }
        let p = self.dup_prob;
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(SocratesError::transport(format!(
                "link dup_prob = {p} must be a finite probability in [0, 1] \
                 (1 duplicates every message — replicas deduplicate, so that is a \
                 legitimate stress model)"
            )));
        }
        Ok(())
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::ideal(0)
    }
}

/// How the participants are wired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistTopology {
    /// Every node holds a full replica and rumors new observations to
    /// `fanout` rotating peers per round, with summary-based
    /// anti-entropy repairing drops.
    Gossip {
        /// Peers contacted per round (clamped to the peer count;
        /// `fanout >= peers` is a full broadcast mesh).
        fanout: usize,
    },
}

/// Policy of a distributed deployment ([`crate::DistributedFleet`]),
/// carried inside [`crate::FleetConfig::distributed`].
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedConfig {
    /// Who talks to whom.
    pub topology: DistTopology,
    /// The seeded loss/latency model of every link.
    pub link: LinkConfig,
    /// Anti-entropy cadence, rounds: how often nodes proactively send
    /// a summary. Must be ≥ 1.
    pub sync_interval: u64,
    /// Round budget of [`crate::DistributedFleet::drain`] before it
    /// gives up with a transport error. Must be ≥ 1.
    pub max_drain_rounds: u64,
}

/// Full-mesh gossip over an ideal link: over it the distributed fleet
/// is bit-identical to the in-process [`crate::Fleet`].
impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            topology: DistTopology::Gossip { fanout: usize::MAX },
            link: LinkConfig::default(),
            sync_interval: 4,
            max_drain_rounds: 10_000,
        }
    }
}

impl DistributedConfig {
    /// Checks the policy ([`LinkConfig::validate`] plus the cadence
    /// and fan-out bounds).
    ///
    /// # Errors
    ///
    /// Returns a transport-stage [`SocratesError`] naming the field.
    pub fn validate(&self) -> Result<(), SocratesError> {
        self.link.validate()?;
        if self.sync_interval == 0 {
            return Err(SocratesError::transport(
                "sync_interval must be >= 1: without periodic anti-entropy, dropped \
                 messages are never repaired",
            ));
        }
        if self.max_drain_rounds == 0 {
            return Err(SocratesError::transport(
                "max_drain_rounds must be >= 1: a drain needs at least one round",
            ));
        }
        let DistTopology::Gossip { fanout } = self.topology;
        if fanout == 0 {
            return Err(SocratesError::transport(
                "gossip fanout must be >= 1: a node that contacts nobody never \
                 disseminates its observations",
            ));
        }
        Ok(())
    }
}

/// Message counters of a [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to [`SimNet::send`].
    pub sent: u64,
    /// Message copies delivered to their destination.
    pub delivered: u64,
    /// Message copies dropped by the loss model.
    pub dropped: u64,
    /// Messages the duplication model transmitted twice.
    pub duplicated: u64,
    /// Encoded frame bytes handed to the wire (per transmitted copy).
    pub bytes_sent: u64,
    /// Encoded frame bytes delivered to their destination.
    pub bytes_delivered: u64,
}

/// One in-flight (or delivered) message.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Sending participant.
    pub from: NodeId,
    /// Receiving participant.
    pub to: NodeId,
    /// Payload.
    pub msg: WireMessage,
}

/// A queued message copy in its on-the-wire form: the binary frame,
/// encoded once and shared by every target and duplicate copy.
#[derive(Debug, Clone)]
struct WireEnvelope {
    from: NodeId,
    to: NodeId,
    frame: Arc<[u8]>,
}

/// The deterministic simulated transport: bounded virtual-clock
/// message queues with seeded per-link latency, reordering, drop and
/// duplication.
///
/// Determinism contract: given the same [`LinkConfig`] and the same
/// sequence of [`send`](Self::send) calls at the same ticks, the
/// delivery schedule — order, timing, drops, duplicates — is
/// bit-identical. Messages become deliverable once the clock reaches
/// their scheduled tick and are handed out in `(deliver_tick,
/// send_sequence)` order.
#[derive(Debug)]
pub struct SimNet {
    config: LinkConfig,
    now: u64,
    seq: u64,
    queue: BTreeMap<(u64, u64), WireEnvelope>,
    links: HashMap<(NodeId, NodeId), ChaCha8Rng>,
    stats: NetStats,
}

impl SimNet {
    /// An empty network under the given link model.
    pub fn new(config: LinkConfig) -> Self {
        SimNet {
            config,
            now: 0,
            seq: 0,
            queue: BTreeMap::new(),
            links: HashMap::new(),
            stats: NetStats::default(),
        }
    }

    /// The virtual clock, ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the virtual clock by one tick (one synchronized
    /// round).
    pub fn tick(&mut self) {
        self.now += 1;
    }

    /// Messages scheduled but not yet delivered (including ones due
    /// now).
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Message counters so far.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Transmits `msg` from `from` to `to` through the link's seeded
    /// loss/latency model. A duplicated message is transmitted twice;
    /// every copy draws its own latency and drop.
    ///
    /// The message is encoded to its binary frame here; duplicate
    /// copies share the frame, and [`Self::poll_due`] decodes on
    /// delivery — the simulated wire carries bytes, not in-memory
    /// structures.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: &WireMessage) {
        let frame = encode_frame(&mut Vec::new(), |out| {
            crate::knowledge_io::write_frame(out, msg)
        });
        self.send_frame(from, to, &frame);
    }

    /// [`send`](Self::send) of a frame the caller already encoded, with
    /// [`encode_frame`]: every target and duplicate copy queues the
    /// same shared bytes, so a message sent to many receivers is
    /// encoded once. The delivery schedule and the counted bytes are
    /// those of [`send`](Self::send) with the decoded message.
    pub(crate) fn send_frame(&mut self, from: NodeId, to: NodeId, frame: &Arc<[u8]>) {
        self.stats.sent += 1;
        let config = &self.config;
        let rng = self.links.entry((from, to)).or_insert_with(|| {
            // Independent stream per directed link, derived from the
            // shared seed so the whole schedule replays from one
            // number.
            let mut state =
                config.seed ^ (u64::from(from) << 32) ^ u64::from(to) ^ 0x9e37_79b9_7f4a_7c15;
            ChaCha8Rng::seed_from_u64(rand::split_mix_64(&mut state))
        });
        let copies = if config.dup_prob > 0.0 && rng.gen_bool(config.dup_prob) {
            self.stats.duplicated += 1;
            2
        } else {
            1
        };
        for _ in 0..copies {
            self.stats.bytes_sent += frame.len() as u64;
            let latency = if config.max_latency > config.min_latency {
                rng.gen_range(config.min_latency..=config.max_latency)
            } else {
                config.min_latency
            };
            let dropped = config.drop_prob > 0.0 && rng.gen_bool(config.drop_prob);
            if dropped {
                self.stats.dropped += 1;
                continue;
            }
            let key = (self.now + latency, self.seq);
            self.seq += 1;
            self.queue.insert(
                key,
                WireEnvelope {
                    from,
                    to,
                    frame: Arc::clone(frame),
                },
            );
        }
    }

    /// Pops the next message due at (or before) the current tick, in
    /// deterministic `(deliver_tick, send_sequence)` order; `None`
    /// once everything deliverable now has been handed out. The frame
    /// is decoded from its wire bytes here.
    pub fn poll_due(&mut self) -> Option<Envelope> {
        self.poll_due_keeping(|_, _| true)
    }

    /// [`poll_due`](Self::poll_due) that builds only the observations
    /// `keep(receiver, (round, origin))` accepts, in frame order
    /// ([`crate::wire_from_bytes_keeping`]): a receiver skips what its
    /// replica already holds. The delivery, its order and its counted
    /// bytes are those of [`poll_due`](Self::poll_due).
    #[expect(
        clippy::expect_used,
        reason = "every queued frame was written by the codec's encoders, through send \
                  or encode_frame"
    )]
    pub fn poll_due_keeping(
        &mut self,
        mut keep: impl FnMut(NodeId, (u64, NodeId)) -> bool,
    ) -> Option<Envelope> {
        let (&(tick, _), _) = self.queue.first_key_value()?;
        if tick > self.now {
            return None;
        }
        let (_, env) = self.queue.pop_first()?;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += env.frame.len() as u64;
        let to = env.to;
        let msg = crate::knowledge_io::wire_from_bytes_keeping(&env.frame, |op| keep(to, op))
            .expect("decoding a frame this SimNet encoded");
        Some(Envelope {
            from: env.from,
            to,
            msg,
        })
    }
}

/// Writes one frame with `write` into `buf` (a buffer reused across
/// frames) and returns it as the shared bytes that
/// [`SimNet::send_frame`] queues for every target and duplicate copy.
#[expect(
    clippy::expect_used,
    reason = "a frame fails to encode only past u32::MAX elements in one sequence, \
              which no message of the simulated exchange can hold in memory"
)]
pub(crate) fn encode_frame(
    buf: &mut Vec<u8>,
    write: impl FnOnce(&mut Vec<u8>) -> Result<(), SocratesError>,
) -> Arc<[u8]> {
    write(buf).expect("a simulated message fits the wire format's u32 counts");
    Arc::from(buf.as_slice())
}

/// Saved-state cadence of a [`Replica`]: one saved fold state of a
/// point every this many of that point's own observations.
const SAVE_EVERY: usize = 8;

/// Where a [`Replica`] keeps one observation: its index in the
/// replica's append-only arena.
pub(crate) type Slot = u32;

/// One operating point's share of a [`Replica`]: the slots of its
/// observations in canonical order and its fold state saved along them.
#[derive(Debug, Default)]
struct PointLog {
    /// Slots of the point's logged observations, ascending by
    /// `(round, origin)`.
    keys: Vec<Slot>,
    /// `saved[j]` for `j < saves` is the point's state after folding
    /// `keys[..j * SAVE_EVERY]`; entry 0 is its boot state (warm seed
    /// included), captured when its first observation arrives. Entries
    /// from `saves` on are spare buffers a later save overwrites.
    saved: Vec<PointState>,
    saves: usize,
    /// The live state is the fold of `keys[..folded]`, unless `stale`.
    folded: usize,
    /// An observation arrived below `folded`: the live state must roll
    /// back to `saved[saves - 1]` before the replay.
    stale: bool,
    /// The point is in the replica's pending list.
    pending: bool,
}

impl PointLog {
    /// Saves the point's live state after the valid ones, into a spare
    /// buffer when there is one.
    fn save(&mut self, folded: &SharedKnowledge<KnobConfig>, pos: usize) {
        let saved = match self.saved.get_mut(self.saves) {
            Some(spare) => folded.point_state_into(pos, spare),
            None => folded
                .point_state(pos)
                .map(|state| self.saved.push(state))
                .is_some(),
        };
        self.saves += usize::from(saved);
    }
}

/// One origin's share of a [`Replica`]'s log.
#[derive(Debug, Default)]
struct OriginLog {
    /// Logged sequence number → slot.
    seqs: BTreeMap<u64, Slot>,
    /// Every sequence number below this one is logged.
    contiguous: u64,
}

/// A replicated observation log folded into a [`SharedKnowledge`] in
/// the canonical `(round, origin)` order.
///
/// Every logged observation sits once in an append-only arena,
/// addressed by slot. The canonical map, each operating point's keys
/// and each origin's sequence numbers hold slots into it, so logging,
/// folding, retransmitting ([`missing_for`](Self::missing_for)) and
/// welcoming a joiner ([`ops`](Self::ops)) read the observation where
/// it lies instead of copying it.
///
/// The fold is a pure function of the log *set*. Operating points fold
/// independently, so each point keeps the slots of its own
/// observations plus a saved state every 8 of them. An
/// observation that arrives below what its point already folded rolls
/// that point alone back to its newest saved state at or below the
/// insertion and replays the point's suffix (counted in
/// [`refolds`](Self::refolds) and
/// [`refold_ops_replayed`](Self::refold_ops_replayed)). Two replicas
/// holding the same observations therefore expose bit-identical
/// effective knowledge and per-shard epoch vectors, no matter how the
/// network interleaved, dropped or duplicated the messages in between,
/// and a late arrival costs the suffix of one point, not of the log.
#[derive(Debug)]
pub struct Replica {
    /// Every logged observation, once, in arrival order.
    arena: Vec<Observation>,
    /// Canonical `(round, origin)` order → slot.
    log: BTreeMap<(u64, NodeId), Slot>,
    per_origin: BTreeMap<NodeId, OriginLog>,
    folded: SharedKnowledge<KnobConfig>,
    /// Per knowledge position.
    points: Vec<PointLog>,
    /// Positions with logged observations not yet folded, each once.
    pending: Vec<usize>,
    /// The epoch at the last [`take_changes`](Self::take_changes).
    taken_epoch: u64,
    refolds: u64,
    refold_ops_replayed: u64,
}

impl Replica {
    /// An empty replica over `design` knowledge, folding observations
    /// through sliding windows of `window` samples, overriding design
    /// values after `min_observations`, across `shards` shards (the
    /// shard count fixes the epoch-vector layout).
    ///
    /// # Panics
    ///
    /// Panics if `window` or `shards` is zero (same contracts as
    /// [`SharedKnowledge::new`] / `with_shards`); the fleet validates
    /// these through [`crate::FleetConfig::validate`] first.
    pub fn new(
        design: Knowledge<KnobConfig>,
        window: usize,
        min_observations: u64,
        shards: usize,
    ) -> Self {
        let points = (0..design.len()).map(|_| PointLog::default()).collect();
        Replica {
            arena: Vec::new(),
            log: BTreeMap::new(),
            per_origin: BTreeMap::new(),
            folded: SharedKnowledge::new(design, window)
                .with_min_observations(min_observations)
                .with_shards(shards),
            points,
            pending: Vec::new(),
            taken_epoch: 0,
            refolds: 0,
            refold_ops_replayed: 0,
        }
    }

    /// Builder-style: warm-boots the fold from a shipped snapshot,
    /// filling every shipped point's observation windows with `copies`
    /// identical samples ([`SharedKnowledge::seed_observations`])
    /// *before* any logged observation replays over them. The seed is
    /// part of every point's boot state, so two replicas constructed
    /// with the same `(design, seed, log set)` stay bit-identical no
    /// matter how the network reorders delivery. The seeded points that
    /// moved are in the first [`take_changes`](Self::take_changes).
    ///
    /// # Panics
    ///
    /// Panics if observations were already logged: a seed slid under
    /// an existing log would not be in the boot states captured before
    /// it existed.
    #[must_use]
    pub fn with_warm_seed(self, seed: Knowledge<KnobConfig>, copies: usize) -> Self {
        assert!(
            self.log.is_empty(),
            "warm seed must be installed before the first logged observation"
        );
        self.folded.seed_observations(&seed, copies);
        self
    }

    /// Whether the observation `op_id` (its `(round, origin)`) is
    /// logged — the cheap duplicate test before decoding a rumor.
    pub fn contains(&self, op_id: (u64, NodeId)) -> bool {
        self.log.contains_key(&op_id)
    }

    /// Records one observation; returns `false` for duplicates (same
    /// `(round, origin)`), which merge idempotently. An observation
    /// sorting below what its point already folded marks that point
    /// for a rollback to its newest saved state at or below the
    /// insertion; [`fold_pending`](Self::fold_pending) replays only the
    /// point's suffix.
    pub fn insert(&mut self, op: Observation) -> bool {
        self.log_observation(op).is_some()
    }

    /// [`insert`](Self::insert) that returns the new observation's
    /// slot, `None` for a duplicate.
    #[expect(
        clippy::expect_used,
        reason = "u32::MAX observations, the first slot past the u32 range, would \
                  take hundreds of GB: no replica holds them in memory"
    )]
    pub(crate) fn log_observation(&mut self, op: Observation) -> Option<Slot> {
        let key = op.op_id();
        let Entry::Vacant(entry) = self.log.entry(key) else {
            return None;
        };
        let slot = Slot::try_from(self.arena.len()).expect("an arena slot fits in u32");
        entry.insert(slot);
        if let Some(pos) = self.folded.position_of(&op.config) {
            let point = &mut self.points[pos];
            if point.saves == 0 {
                // The point's first observation: nothing of it is
                // folded yet, so its live state is its boot state.
                point.save(&self.folded, pos);
            }
            let arena = &self.arena;
            let at = point
                .keys
                .partition_point(|&s| arena[s as usize].op_id() < key);
            point.keys.insert(at, slot);
            if at < point.folded {
                // Saved states past the insertion no longer cover a
                // prefix of the point's keys.
                point.stale = true;
                point.saves = point.saves.min(at / SAVE_EVERY + 1);
            }
            if !point.pending {
                point.pending = true;
                self.pending.push(pos);
            }
        }
        let origin = self.per_origin.entry(op.origin).or_default();
        origin.seqs.insert(op.seq, slot);
        while origin.seqs.contains_key(&origin.contiguous) {
            origin.contiguous += 1;
        }
        self.arena.push(op);
        Some(slot)
    }

    /// The observation logged at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` was not handed out by this replica.
    pub(crate) fn observation(&self, slot: Slot) -> &Observation {
        &self.arena[slot as usize]
    }

    /// Folds every logged observation that is not yet reflected in the
    /// effective knowledge. Each point with new observations either
    /// folds them on top of its live state or, after a late arrival,
    /// rolls back to its newest saved state at or below it and
    /// re-publishes its suffix in canonical order, reading each
    /// observation from the arena.
    pub fn fold_pending(&mut self) {
        self.pending.sort_unstable();
        for &pos in &self.pending {
            let point = &mut self.points[pos];
            point.pending = false;
            if std::mem::take(&mut point.stale) && point.saves > 0 {
                let newest = point.saves - 1;
                let at = newest * SAVE_EVERY;
                self.folded.restore_point(&point.saved[newest]);
                self.refolds += 1;
                self.refold_ops_replayed += (point.folded - at) as u64;
                point.folded = at;
            }
            while let Some(&slot) = point.keys.get(point.folded) {
                self.folded
                    .publish_at(pos, &self.arena[slot as usize].observed);
                point.folded += 1;
                if point.folded.is_multiple_of(SAVE_EVERY) {
                    point.save(&self.folded, pos);
                }
            }
        }
        self.pending.clear();
    }

    /// Whether observations are logged but not yet folded.
    pub fn pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The folded knowledge epoch: the sum of the per-shard epochs,
    /// equal across replicas holding the same observations once folded.
    pub fn epoch(&self) -> u64 {
        self.folded.epoch()
    }

    /// The operating points whose effective values moved since the
    /// previous call — every point a fold changed or rolled back, and
    /// at boot every point the warm seed moved — as a delta from the
    /// knowledge of the previous call (`from_epoch`) to the current
    /// fold (`to_epoch`), ascending by position. Patching the previous
    /// call's knowledge with it reproduces [`knowledge`](Self::knowledge)
    /// exactly; before the first call, that is the design knowledge the
    /// replica was built over.
    pub fn take_changes(&mut self) -> KnowledgeDelta<KnobConfig> {
        let (to_epoch, changed) = self.folded.drain_changes();
        KnowledgeDelta {
            from_epoch: std::mem::replace(&mut self.taken_epoch, to_epoch),
            to_epoch,
            changed,
        }
    }

    /// How many times a late arrival rolled one point's fold back to
    /// one of its saved states.
    pub fn refolds(&self) -> u64 {
        self.refolds
    }

    /// Total observations re-folded by rollbacks: the replay overhead
    /// late arrivals actually cost, as opposed to the first-time folds.
    /// Each rollback replays the suffix of one point, not of the log.
    pub fn refold_ops_replayed(&self) -> u64 {
        self.refold_ops_replayed
    }

    /// The folded per-shard epoch vector: bit-identical across
    /// replicas holding the same observations.
    pub fn shard_epochs(&self) -> Vec<u64> {
        self.shard_epoch_iter().collect()
    }

    fn shard_epoch_iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.folded.shard_count()).map(|s| self.folded.shard_epoch(s))
    }

    /// The effective knowledge under the canonical fold.
    pub fn knowledge(&self) -> Knowledge<KnobConfig> {
        self.folded.knowledge()
    }

    /// Per-origin contiguous watermarks: `(origin, count)` meaning
    /// every observation of `origin` with `seq < count` is present.
    pub fn summary(&self) -> Vec<(NodeId, u64)> {
        self.per_origin
            .iter()
            .map(|(&origin, log)| (origin, log.contiguous))
            .collect()
    }

    /// The observations this replica holds that a peer summarising
    /// itself as `counts` provably lacks, in canonical order (the
    /// anti-entropy retransmission set; gaps above a peer's watermark
    /// may cause benign re-sends, which deduplicate on insert): every
    /// logged observation at or above the watermark `counts` gives its
    /// origin (the last one it gives; 0 when it gives none). The
    /// observations are read in place, for a frame writer.
    pub fn missing_for(&self, counts: &[(NodeId, u64)]) -> Vec<&Observation> {
        let mut out = Vec::new();
        for (&origin, log) in &self.per_origin {
            let have = counts
                .iter()
                .rev()
                .find(|&&(node, _)| node == origin)
                .map_or(0, |&(_, count)| count);
            out.extend(
                log.seqs
                    .range(have..)
                    .map(|(_, &slot)| self.observation(slot)),
            );
        }
        // Op ids are unique in the log, so the unstable sort is exact.
        out.sort_unstable_by_key(|op| op.op_id());
        out
    }

    /// Every logged observation, in canonical order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = &Observation> + '_ {
        self.log.values().map(|&slot| self.observation(slot))
    }

    /// Whether `other` logs the same observations (by canonical op id)
    /// as this replica and folds them to the same per-shard epochs,
    /// with nothing left to fold on either side.
    pub(crate) fn agrees_with(&self, other: &Replica) -> bool {
        !self.pending()
            && !other.pending()
            && self.log.keys().eq(other.log.keys())
            && self.shard_epoch_iter().eq(other.shard_epoch_iter())
    }

    /// Number of logged observations.
    pub fn len(&self) -> usize {
        self.log.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.log.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use margot::{Metric, OperatingPoint};
    use platform_sim::{BindingPolicy, CompilerOptions, OptLevel};

    fn cfg(tn: u32) -> KnobConfig {
        KnobConfig::new(
            CompilerOptions::level(OptLevel::O2),
            tn,
            BindingPolicy::Close,
        )
    }

    fn design() -> Knowledge<KnobConfig> {
        [1u32, 2, 4, 8]
            .into_iter()
            .map(|tn| {
                OperatingPoint::new(
                    cfg(tn),
                    MetricValues::new()
                        .with(Metric::exec_time(), 1.0 / f64::from(tn))
                        .with(Metric::power(), 50.0 + f64::from(tn)),
                )
            })
            .collect()
    }

    fn op(origin: NodeId, seq: u64, round: u64, tn: u32, power: f64) -> Observation {
        Observation {
            origin,
            seq,
            round,
            config: cfg(tn),
            observed: MetricValues::new().with(Metric::power(), power),
        }
    }

    #[test]
    fn ideal_links_deliver_next_tick_in_send_order() {
        let mut net = SimNet::new(LinkConfig::ideal(7));
        net.send(0, 1, &WireMessage::Join { node: 0 });
        net.send(2, 1, &WireMessage::Join { node: 2 });
        assert!(net.poll_due().is_some(), "due at the current tick");
        // Remaining message still in flight until polled.
        assert_eq!(net.in_flight(), 1);
        net.tick();
        let env = net.poll_due().expect("second message due");
        assert_eq!(env.from, 2);
        assert!(net.poll_due().is_none());
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().dropped, 0);
    }

    #[test]
    fn lossy_schedules_replay_bit_identically_from_the_seed() {
        let lossy = LinkConfig {
            seed: 42,
            min_latency: 0,
            max_latency: 5,
            drop_prob: 0.4,
            dup_prob: 0.2,
        };
        let run = || {
            let mut net = SimNet::new(lossy.clone());
            let mut deliveries = Vec::new();
            for t in 0..30u32 {
                net.send(0, 1, &WireMessage::Join { node: t });
                net.send(1, 0, &WireMessage::Join { node: t });
                while let Some(env) = net.poll_due() {
                    deliveries.push((net.now(), env.from, env.msg));
                }
                net.tick();
            }
            (deliveries, net.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "the delivery schedule must replay exactly");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0, "a 40% loss model must drop something");
        assert!(sa.duplicated > 0, "a 20% dup model must duplicate");
    }

    #[test]
    fn link_config_rejects_certain_loss() {
        assert!(LinkConfig {
            drop_prob: 1.0,
            ..LinkConfig::ideal(0)
        }
        .validate()
        .is_err());
        assert!(LinkConfig {
            min_latency: 3,
            max_latency: 1,
            ..LinkConfig::ideal(0)
        }
        .validate()
        .is_err());
        assert!(LinkConfig::ideal(0).validate().is_ok());
    }

    #[test]
    fn replica_fold_is_independent_of_arrival_order() {
        let ops = vec![
            op(0, 0, 0, 1, 60.0),
            op(1, 0, 0, 1, 70.0),
            op(0, 1, 1, 2, 90.0),
            op(1, 1, 1, 1, 80.0),
        ];
        let mut canonical = Replica::new(design(), 4, 1, 3);
        for o in &ops {
            canonical.insert(o.clone());
        }
        canonical.fold_pending();
        // Reversed arrival (with a duplicate thrown in) must converge
        // to the same knowledge AND the same shard epoch vector.
        let mut scrambled = Replica::new(design(), 4, 1, 3);
        for o in ops.iter().rev() {
            scrambled.insert(o.clone());
            scrambled.fold_pending();
        }
        assert!(!scrambled.insert(ops[2].clone()), "duplicate is idempotent");
        scrambled.fold_pending();
        assert!(scrambled.refolds() > 0, "late arrivals must refold");
        assert_eq!(canonical.refolds(), 0);
        assert_eq!(canonical.knowledge(), scrambled.knowledge());
        assert_eq!(canonical.shard_epochs(), scrambled.shard_epochs());
        assert_eq!(canonical.epoch(), scrambled.epoch());
    }

    #[test]
    fn replica_matches_the_single_mutex_reference() {
        let ops = vec![
            op(0, 0, 0, 1, 60.0),
            op(1, 0, 0, 1, 70.0),
            op(0, 1, 1, 2, 90.0),
        ];
        let mut replica = Replica::new(design(), 4, 1, 5);
        for o in ops.iter().rev() {
            replica.insert(o.clone());
        }
        replica.fold_pending();
        let reference = SharedKnowledge::new(design(), 4).with_shards(1);
        for o in &ops {
            reference.publish(&o.config, &o.observed);
        }
        assert_eq!(replica.knowledge(), reference.knowledge());
    }

    #[test]
    fn rollbacks_hand_out_points_that_moved_back() {
        // Window 2, two observations to override: 61 then 61 moves
        // the point to 61. A late 41 between them makes every replayed
        // publish leave the mean at the design value 51, so no publish
        // marks the point changed — the rollback itself must.
        let mut replica = Replica::new(design(), 2, 2, 3);
        replica.insert(op(0, 0, 1, 1, 61.0));
        replica.insert(op(0, 1, 3, 1, 61.0));
        replica.fold_pending();
        let mut known = design();
        assert!(replica.take_changes().apply_to(&mut known));
        assert_eq!(known.points()[0].metric(&Metric::power()), Some(61.0));
        replica.insert(op(1, 0, 2, 1, 41.0));
        replica.fold_pending();
        assert_eq!(replica.refolds(), 1);
        assert_eq!(replica.refold_ops_replayed(), 2);
        let delta = replica.take_changes();
        assert_eq!(delta.len(), 1);
        assert!(delta.apply_to(&mut known));
        assert_eq!(known, design(), "the point moved back to its design values");
        assert_eq!(known, replica.knowledge());
    }

    #[test]
    fn summaries_and_missing_sets_reconcile_two_replicas() {
        let mut a = Replica::new(design(), 4, 1, 2);
        let mut b = Replica::new(design(), 4, 1, 2);
        let ops = vec![
            op(0, 0, 0, 1, 60.0),
            op(0, 1, 1, 2, 61.0),
            op(1, 0, 0, 4, 62.0),
            op(1, 1, 1, 8, 63.0),
        ];
        // a holds everything; b holds a gap (missing (0, seq 0)).
        for o in &ops {
            a.insert(o.clone());
        }
        b.insert(ops[1].clone());
        b.insert(ops[2].clone());
        assert_eq!(b.summary(), vec![(0, 0), (1, 1)], "gap keeps watermark 0");
        let missing = a.missing_for(&b.summary());
        // Everything above b's watermarks: both origin-0 ops (benign
        // re-send of seq 1) and origin-1 seq 1.
        assert_eq!(missing.len(), 3);
        for o in missing {
            b.insert(o.clone());
        }
        a.fold_pending();
        b.fold_pending();
        assert_eq!(a.knowledge(), b.knowledge());
        assert_eq!(a.shard_epochs(), b.shard_epochs());
        assert!(a.missing_for(&b.summary()).is_empty());
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
    }

    #[test]
    fn replicas_agree_on_the_same_log_with_nothing_left_to_fold() {
        // Observations of a configuration outside the design knowledge
        // are logged but fold into no point, so every replica below
        // keeps the boot epochs and only the logs can differ.
        let foreign = |seq: u64| Observation {
            config: cfg(3),
            ..op(0, seq, seq, 1, 60.0)
        };
        let replica = |seqs: &[u64]| {
            let mut r = Replica::new(design(), 4, 1, 2);
            for &seq in seqs {
                assert!(r.insert(foreign(seq)));
            }
            r.fold_pending();
            r
        };
        assert!(replica(&[0, 1]).agrees_with(&replica(&[1, 0])));
        assert!(!replica(&[0, 1]).agrees_with(&replica(&[0])));
        assert!(!replica(&[0, 2]).agrees_with(&replica(&[0, 3])));
        // Nothing left to fold is part of agreeing.
        let mut unfolded = replica(&[0, 1]);
        unfolded.insert(op(1, 0, 0, 1, 61.0));
        assert!(!unfolded.agrees_with(&unfolded));
    }

    #[test]
    fn distributed_config_validation_names_the_field() {
        let bad_sync = DistributedConfig {
            sync_interval: 0,
            ..DistributedConfig::default()
        };
        let err = bad_sync.validate().expect_err("zero sync interval");
        assert!(err.to_string().contains("sync_interval"), "{err}");
        let bad_fanout = DistributedConfig {
            topology: DistTopology::Gossip { fanout: 0 },
            ..DistributedConfig::default()
        };
        let err = bad_fanout.validate().expect_err("zero fanout");
        assert!(err.to_string().contains("fanout"), "{err}");
        assert!(DistributedConfig::default().validate().is_ok());
    }
}
