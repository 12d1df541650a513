//! The distributed fleet: SOCRATES' crowdsourced online loop over a
//! lossy wire instead of a shared address space.
//!
//! A [`DistributedFleet`] steps N [`AdaptiveApplication`] instances on
//! the synchronized virtual clock, exactly like the in-process
//! [`crate::Fleet`] — but every knowledge exchange travels through the
//! deterministic simulated transport of [`crate::transport`]. Each node
//! holds a [`Replica`] of the observation log and gossips: it rumors
//! new observations to rotating peers and exchanges summaries with
//! them, all subject to seeded per-link latency, reordering, drop and
//! duplication.
//!
//! # Round structure
//!
//! Each synchronized round ticks the virtual clock and then runs four
//! phases:
//!
//! 1. **deliver** — due messages are handed out in deterministic
//!    order and handled; zero-latency replies deliver within the same
//!    phase, so an ideal link behaves exactly like the in-process
//!    barrier;
//! 2. **adopt** — each node folds its newly logged observations in the
//!    canonical `(round, origin)` order and patches the operating
//!    points that moved into its AS-RTM;
//! 3. **step** — every due instance performs one MAPE-K step, in node
//!    order;
//! 4. **publish** — each stepped node logs its observation and rumors
//!    it, with the fresh observations it received, to `fanout`
//!    rotating peers, plus a periodic summary (anti-entropy).
//!
//! # Determinism and convergence contract
//!
//! Over a lossless zero-latency link with a full mesh (the default
//! [`DistributedConfig`]) the distributed fleet is **bit-identical** to
//! the in-process [`crate::Fleet`] — same traces, same learned
//! knowledge (pinned by `tests/fleet_dist_equivalence.rs`). Under any
//! seeded loss/latency model and any fanout,
//! [`DistributedFleet::drain`] runs anti-entropy until every connected
//! node holds the same effective knowledge — equal to the canonical
//! single-shard fold of all observations (pinned by
//! `tests/transport_props.rs`) — and reports how many repair rounds
//! that took.
//!
//! Scope: one enhanced application per distributed fleet (the
//! in-process fleet's multi-pool bookkeeping is orthogonal to the
//! wire), no cooperative exploration (`exploration_interval` must be
//! 0 — assignment hand-off needs a coordination channel this
//! transport does not model yet) and no power arbitration
//! (`power_budget_w` must be `None` for the same reason).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::error::SocratesError;
use crate::events::{EventObserver, FleetEvent, FleetRuntime};
use crate::fleet::{dense_id, FleetConfig};
use crate::knowledge_io::{write_frame, write_ops_frame, write_welcome_log_frame};
use crate::runtime::{AdaptiveApplication, TraceSample};
use crate::toolchain::EnhancedApp;
use crate::transport::{
    encode_frame, DistTopology, DistributedConfig, Envelope, NetStats, NodeId, Observation,
    Replica, SimNet, Slot, WireMessage,
};
use margot::{Knowledge, Rank};
use platform_sim::{KnobConfig, Machine};
use polybench::App;
use std::sync::Arc;

/// One distributed fleet member: an adaptive application plus its
/// replica of the observation log and its rumor outbox.
struct DistNode {
    id: NodeId,
    app: AdaptiveApplication,
    active: bool,
    /// Whether the node holds the fleet's log (founding members start
    /// joined; a mid-run joiner resends [`WireMessage::Join`] until a
    /// [`WireMessage::WelcomeLog`] arrives).
    joined: bool,
    /// Next own-observation sequence number.
    seq: u64,
    replica: Replica,
    /// Slots in `replica` of the observations newly learned this round
    /// (own step + fresh arrivals), forwarded to the next rotation
    /// targets.
    outbox: Vec<Slot>,
}

/// Membership, health and exchange counters of a
/// [`DistributedFleet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistStats {
    /// Instances ever added (including retired ones).
    pub instances: usize,
    /// Instances still stepping.
    pub active: usize,
    /// Rounds stepped so far (drain repair rounds included).
    pub rounds: u64,
    /// Total per-point rollbacks across all replicas: how often an
    /// out-of-canonical-order arrival rolled the one operating point it
    /// observed back to that point's newest saved state below it.
    pub refolds: u64,
    /// Total observations those rollbacks re-folded: the actual replay
    /// overhead, the suffix of one point per rollback.
    pub refold_ops_replayed: u64,
    /// Transport counters.
    pub net: NetStats,
}

/// A fleet of adaptive-application instances exchanging runtime
/// knowledge as messages over a simulated lossy transport (see the
/// module docs above for the protocol and its guarantees).
///
/// # Examples
///
/// ```no_run
/// use socrates::{DistributedFleet, FleetConfig, LinkConfig, Toolchain};
/// use margot::Rank;
/// use polybench::App;
///
/// let enhanced = Toolchain::default().enhance(App::TwoMm).unwrap();
/// let config = FleetConfig {
///     exploration_interval: 0,
///     distributed: Some(socrates::DistributedConfig {
///         link: LinkConfig {
///             drop_prob: 0.2,
///             max_latency: 3,
///             ..LinkConfig::ideal(7)
///         },
///         ..Default::default()
///     }),
///     ..FleetConfig::default()
/// };
/// let mut fleet = DistributedFleet::new(config, &enhanced).unwrap();
/// fleet.spawn(&Rank::throughput_per_watt2(), 42, 8);
/// socrates::FleetRuntime::run_until(&mut fleet, 30.0); // 30 virtual s
/// let repair_rounds = fleet.drain().unwrap();
/// assert!(fleet.converged());
/// println!("converged after {repair_rounds} repair rounds");
/// ```
pub struct DistributedFleet {
    config: FleetConfig,
    dist: DistributedConfig,
    /// The app every node runs, shared by all of them.
    enhanced: Arc<EnhancedApp>,
    /// The design knowledge with a same-app warm-start snapshot merged
    /// over it, indexed under the rank of the latest joiner: what every
    /// replica folds over and every node boots on.
    design: Knowledge<KnobConfig>,
    net: SimNet,
    /// The buffer every frame is written into before it is shared with
    /// its targets.
    frame: Vec<u8>,
    nodes: Vec<DistNode>,
    rounds: u64,
    /// Registered event-stream observers ([`FleetRuntime::observe`]).
    /// Pure consumers fed from sequential code only — rounds are
    /// bit-identical with or without them.
    observers: Vec<EventObserver>,
}

impl DistributedFleet {
    /// An empty distributed fleet for one enhanced application.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy is invalid
    /// ([`FleetConfig::validate`]), if [`FleetConfig::distributed`]
    /// is `None` (use [`crate::Fleet::new`] for the in-process mode),
    /// or if it requests a capability the transport does not model
    /// yet (cooperative exploration, power arbitration, disabled
    /// knowledge sharing).
    pub fn new(config: FleetConfig, enhanced: &EnhancedApp) -> Result<Self, SocratesError> {
        config.validate()?;
        let Some(dist) = config.distributed.clone() else {
            return Err(SocratesError::invalid_config(
                "distributed fleet needs FleetConfig::distributed = Some(DistributedConfig); \
                 for the in-process shared-knowledge mode use Fleet::new",
            ));
        };
        if !config.share_knowledge {
            return Err(SocratesError::invalid_config(
                "share_knowledge must be on in distributed mode: a fleet that never \
                 publishes has nothing to exchange (use Fleet for frozen baselines)",
            ));
        }
        if config.exploration_interval != 0 {
            return Err(SocratesError::invalid_config(
                "exploration_interval must be 0 in distributed mode: cooperative \
                 exploration assignments need a coordination channel the transport does \
                 not model yet",
            ));
        }
        if config.power_budget_w.is_some() {
            return Err(SocratesError::invalid_config(
                "power_budget_w must be None in distributed mode: the power arbiter is \
                 not distributed yet",
            ));
        }
        // Warm start: merge the shipped snapshot's learned metrics over
        // the design knowledge before anything derives from it — every
        // replica folds over the seed and every node, late joiners
        // included, boots on it. Same-app snapshots only: the
        // distributed runtime has no exploration sweep, so a foreign
        // (cross-app) hint that mis-ranks the space would never be
        // corrected — the greedy fleet samples only what the hint
        // recommends and can pin itself in a suboptimal absorbing
        // state. A foreign snapshot is therefore ignored here and the
        // fleet boots cold (the in-process `Fleet`, whose cooperative
        // sweep re-samples every configuration, does accept it).
        let design = match &config.warm_start {
            Some(snapshot) if config.warm_seed_copies_for(enhanced.app) > 0 => {
                snapshot.apply_to_design(&enhanced.knowledge)
            }
            _ => enhanced.knowledge.clone(),
        };
        Ok(DistributedFleet {
            net: SimNet::new(dist.link.clone()),
            frame: Vec::new(),
            dist,
            enhanced: Arc::new(enhanced.clone()),
            design,
            nodes: Vec::new(),
            rounds: 0,
            config,
            observers: Vec::new(),
        })
    }

    /// A fold replica booted the way every replica of this fleet must
    /// be: over the (already warm-merged) design knowledge, with the
    /// shipped snapshot's observation seed installed when the fleet is
    /// warm-started from a snapshot of the *same* application (a
    /// foreign snapshot only merges values — see
    /// [`FleetConfig::warm_seed_copies_for`]). Every construction
    /// site goes through here —
    /// replicas seeded differently would fold the same log to
    /// different effective knowledge and break the equivalence
    /// invariant.
    fn boot_replica(config: &FleetConfig, design: &Knowledge<KnobConfig>, app: App) -> Replica {
        let replica = Replica::new(
            design.clone(),
            config.knowledge_window,
            config.min_observations,
            config.knowledge_shards,
        );
        match &config.warm_start {
            Some(snapshot) => match config.warm_seed_copies_for(app) {
                0 => replica,
                copies => replica.with_warm_seed(snapshot.knowledge.clone(), copies),
            },
            None => replica,
        }
    }

    /// The fleet policy.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of instances ever added (including retired ones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no instances.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of instances still stepping.
    pub fn active_instances(&self) -> usize {
        self.nodes.iter().filter(|n| n.active).count()
    }

    /// Rounds run so far (drain repair rounds included).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Membership and exchange counters in one read.
    pub fn stats(&self) -> DistStats {
        DistStats {
            instances: self.nodes.len(),
            active: self.active_instances(),
            rounds: self.rounds,
            refolds: self.nodes.iter().map(|n| n.replica.refolds()).sum(),
            refold_ops_replayed: self
                .nodes
                .iter()
                .map(|n| n.replica.refold_ops_replayed())
                .sum(),
            net: self.net.stats(),
        }
    }

    /// Boots one instance on a specific machine and returns its id.
    /// Instances added before the first round are founding members
    /// (no handshake); later additions are *churn*: the node asks the
    /// lowest-id active peer for its log with [`WireMessage::Join`],
    /// folds the answering [`WireMessage::WelcomeLog`] and catches up
    /// via gossip.
    pub fn add_instance(&mut self, rank: Rank, machine: Machine) -> usize {
        let id = self.nodes.len() as NodeId;
        // A founding member needs no log, and neither does a joiner
        // with nobody to learn from.
        let seed = if self.rounds == 0 {
            None
        } else {
            self.seed_peer(id)
        };
        // Indexed once per fleet: every node's AS-RTM clones the index
        // with the knowledge, adoptions reuse it, and patches re-key it.
        self.design.rank_by(&rank);
        self.nodes.push(DistNode {
            id,
            app: AdaptiveApplication::with_knowledge(
                Arc::clone(&self.enhanced),
                self.design.clone(),
                rank,
                machine,
            ),
            active: true,
            joined: seed.is_none(),
            seq: 0,
            replica: Self::boot_replica(&self.config, &self.design, self.enhanced.app),
            outbox: Vec::new(),
        });
        if let Some(seed) = seed {
            // Churn: announced over the (lossy) wire; resent every sync
            // interval until the log arrives.
            self.net.send(id, seed, &WireMessage::Join { node: id });
        }
        let t_s = self.nodes[id as usize].app.now_s();
        self.emit(FleetEvent::Arrived {
            id: dense_id(id as usize),
            t_s,
        });
        id as usize
    }

    /// Boots `count` instances on machines forked from the app's own
    /// platform (mirrors [`crate::Fleet::spawn`], including the fork
    /// stream offset, so traces line up with the in-process fleet).
    pub fn spawn(&mut self, rank: &Rank, base_seed: u64, count: usize) -> Vec<usize> {
        let base = self.enhanced.platform.machine(base_seed);
        self.spawn_on(rank, &base, count)
    }

    /// Boots `count` instances on forks of an explicit base machine.
    pub fn spawn_on(&mut self, rank: &Rank, base: &Machine, count: usize) -> Vec<usize> {
        let stream_offset = self.nodes.len() as u64;
        (0..count)
            .map(|i| self.add_instance(rank.clone(), base.fork(stream_offset + i as u64)))
            .collect()
    }

    /// Retires an instance: it stops stepping and its peers stop
    /// rumoring to it. Returns `false` if it was already retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn retire_instance(&mut self, id: usize) -> bool {
        if !self.nodes[id].active {
            return false;
        }
        self.nodes[id].active = false;
        let t_s = self.nodes[id].app.now_s();
        self.emit(FleetEvent::Retired {
            id: dense_id(id),
            t_s,
        });
        true
    }

    /// The execution trace of instance `id` so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn trace(&self, id: usize) -> Vec<TraceSample> {
        self.nodes[id].app.trace().to_vec()
    }

    /// Virtual time of instance `id`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn now_s(&self, id: usize) -> f64 {
        self.nodes[id].app.now_s()
    }

    /// Total energy drawn by instance `id`, joules.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn energy_j(&self, id: usize) -> f64 {
        self.nodes[id].app.energy_j()
    }

    /// Instance `id`'s current view of the shared knowledge: its
    /// replica's fold.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_knowledge(&self, id: usize) -> Knowledge<KnobConfig> {
        self.nodes[id].replica.knowledge()
    }

    /// Instance `id`'s folded per-shard epoch vector. Equal across all
    /// connected nodes once the links drain.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn epoch_vector(&self, id: usize) -> Vec<u64> {
        self.nodes[id].replica.shard_epochs()
    }

    /// The replica of the first active node, whose fold every other
    /// node's equals after [`drain`](Self::drain).
    fn authority(&self) -> Option<&Replica> {
        self.nodes.iter().find(|n| n.active).map(|n| &n.replica)
    }

    /// The authoritative effective knowledge: the first active node's
    /// fold (equal to everyone else's after [`drain`](Self::drain)).
    /// The design knowledge if no node is active.
    pub fn authoritative_knowledge(&self) -> Knowledge<KnobConfig> {
        self.authority()
            .map_or_else(|| self.design.clone(), Replica::knowledge)
    }

    /// Every observation the first active node has logged, in
    /// canonical `(round, origin)` order — the input of the
    /// single-shard reference fold the property tests compare
    /// against. Complete once [`drain`](Self::drain) returned.
    pub fn canonical_ops(&self) -> Vec<Observation> {
        self.authority()
            .map(|r| r.ops().cloned().collect())
            .unwrap_or_default()
    }

    /// One synchronized round over all active instances; returns the
    /// number of steps taken.
    fn step_all(&mut self) -> usize {
        let due: Vec<bool> = self.nodes.iter().map(|n| n.active).collect();
        self.round_with(&due)
    }

    /// Runs anti-entropy repair rounds — no application steps — until
    /// every connected node holds the same effective knowledge and
    /// nothing is left in flight; returns how many repair rounds that
    /// took. This is the "link drains" operation of the convergence
    /// contract: after it, [`converged`](Self::converged) holds and
    /// every node's knowledge equals the canonical fold of
    /// [`canonical_ops`](Self::canonical_ops).
    ///
    /// # Errors
    ///
    /// Returns a transport-stage error if convergence was not reached
    /// within [`DistributedConfig::max_drain_rounds`] (only possible
    /// under adversarial loss models; the seeded drop draws are
    /// independent per retransmission, so any `drop_prob < 1`
    /// converges with overwhelming probability).
    pub fn drain(&mut self) -> Result<u64, SocratesError> {
        for round in 0..self.dist.max_drain_rounds {
            self.net.tick();
            self.deliver_phase();
            self.adopt_phase();
            let content_ok = self.content_converged();
            let pending = self.exchange_pending();
            if content_ok && !pending && self.net.in_flight() == 0 {
                return Ok(round);
            }
            if !content_ok || pending {
                self.anti_entropy();
            }
            self.rounds += 1;
        }
        Err(SocratesError::transport(format!(
            "drain did not converge within {} repair rounds (loss model too adversarial \
             or max_drain_rounds too small)",
            self.dist.max_drain_rounds
        )))
    }

    /// Whether every connected node currently holds the same
    /// effective knowledge and epoch vector, with nothing in flight
    /// or waiting in an outbox.
    pub fn converged(&self) -> bool {
        self.content_converged() && !self.exchange_pending() && self.net.in_flight() == 0
    }

    // ---- round phases --------------------------------------------------

    fn round_with(&mut self, due: &[bool]) -> usize {
        assert_eq!(due.len(), self.nodes.len());
        self.net.tick();
        self.deliver_phase();
        self.adopt_phase();
        let stepped = self.step_phase(due);
        let steps = stepped.iter().filter(|s| s.is_some()).count();
        self.publish_phase(&stepped);
        self.rounds += 1;
        if !self.observers.is_empty() {
            // Sequential, after the barrier: observers see the round's
            // steps in node order, then each node's publish with its
            // own post-round epoch view. Pure consumers — the round is
            // bit-identical with or without them.
            for (idx, sample) in stepped.iter().enumerate() {
                let Some(sample) = sample else { continue };
                self.emit(FleetEvent::Stepped {
                    id: dense_id(idx),
                    t_start_s: sample.t_start_s,
                    time_s: sample.time_s,
                    power_w: sample.power_w,
                    forced: sample.forced,
                });
            }
            for (idx, sample) in stepped.iter().enumerate() {
                let Some(sample) = sample else { continue };
                // The distributed epoch is the node's own view: its
                // folded epoch, the sum of its per-shard epoch vector.
                let epoch = self.nodes[idx].replica.epoch();
                self.emit(FleetEvent::Published {
                    id: dense_id(idx),
                    t_s: sample.t_start_s + sample.time_s,
                    epoch,
                });
            }
        }
        steps
    }

    fn emit(&mut self, event: FleetEvent) {
        for observer in &mut self.observers {
            observer(&event);
        }
    }

    /// Hands out every due message in deterministic order; a reply sent
    /// with zero latency is due at once and delivers within the phase
    /// (the property that makes an ideal link match the in-process
    /// barrier). A receiver gets only the observations its replica
    /// does not log yet: [`Self::handle`] would drop the others unread.
    fn deliver_phase(&mut self) {
        while let Some(env) = self.net.poll_due_keeping(|to, op| {
            self.nodes
                .get(to as usize)
                .is_none_or(|node| !node.replica.contains(op))
        }) {
            self.handle(env);
        }
    }

    fn adopt_phase(&mut self) {
        for node in self.nodes.iter_mut().filter(|n| n.active) {
            // The node holds the replica's knowledge as of the previous
            // take, so the delta patches it exactly.
            node.replica.fold_pending();
            let delta = node.replica.take_changes();
            if !delta.is_empty() && !node.app.apply_knowledge_delta(&delta) {
                node.app.set_knowledge(node.replica.knowledge());
            }
        }
    }

    fn step_phase(&mut self, due: &[bool]) -> Vec<Option<TraceSample>> {
        self.nodes
            .iter_mut()
            .zip(due)
            .map(|(node, &due)| (due && node.active).then(|| node.app.step()))
            .collect()
    }

    fn publish_phase(&mut self, stepped: &[Option<TraceSample>]) {
        let round = self.rounds;
        let sync_due = round.is_multiple_of(self.dist.sync_interval);
        let active_ids = self.active_ids();
        let DistTopology::Gossip { fanout } = self.dist.topology;
        for (idx, sample) in stepped.iter().enumerate() {
            let node = &mut self.nodes[idx];
            if !node.active {
                continue;
            }
            if let Some(sample) = sample {
                let op = Observation {
                    origin: node.id,
                    seq: node.seq,
                    round,
                    config: sample.config.clone(),
                    observed: sample.observed_metrics(),
                };
                node.seq += 1;
                node.outbox.extend(node.replica.log_observation(op));
            }
            let targets = gossip_targets(&active_ids, node.id, fanout, round);
            if !targets.is_empty() {
                // One frame each, written once and sent to every target.
                let ops = (!node.outbox.is_empty()).then(|| outbox_frame(&mut self.frame, node));
                let summary = sync_due.then(|| summary_frame(&mut self.frame, &node.replica, true));
                for (i, &target) in targets.iter().enumerate() {
                    if let Some(ops) = &ops {
                        self.net.send_frame(node.id, target, ops);
                    }
                    if let (0, Some(summary)) = (i, &summary) {
                        self.net.send_frame(node.id, target, summary);
                    }
                }
            }
            node.outbox.clear();
            if !node.joined && sync_due {
                self.resend_join(idx);
            }
        }
    }

    /// Drain-time repair traffic: every active node flushes its outbox
    /// and sends a summary to its first rotation target.
    fn anti_entropy(&mut self) {
        let round = self.rounds;
        let active_ids = self.active_ids();
        let DistTopology::Gossip { fanout } = self.dist.topology;
        for idx in 0..self.nodes.len() {
            let node = &mut self.nodes[idx];
            if !node.active {
                continue;
            }
            if let Some(&target) = gossip_targets(&active_ids, node.id, fanout, round).first() {
                if !node.outbox.is_empty() {
                    let ops = outbox_frame(&mut self.frame, node);
                    self.net.send_frame(node.id, target, &ops);
                    node.outbox.clear();
                }
                let summary = summary_frame(&mut self.frame, &node.replica, true);
                self.net.send_frame(node.id, target, &summary);
            }
            if !node.joined {
                self.resend_join(idx);
            }
        }
    }

    fn active_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.active)
            .map(|n| n.id)
            .collect()
    }

    // ---- message handling ----------------------------------------------

    fn handle(&mut self, env: Envelope) {
        let Some(node) = self.nodes.get_mut(env.to as usize) else {
            return;
        };
        match env.msg {
            WireMessage::Ops { ops } => {
                for op in ops {
                    // A fresh rumor is logged and forwarded on the next
                    // rotation; a duplicate is dropped.
                    node.outbox.extend(node.replica.log_observation(op));
                }
            }
            WireMessage::Summary { counts, reply } => {
                let missing = node.replica.missing_for(&counts);
                if !missing.is_empty() {
                    let ops = encode_frame(&mut self.frame, |out| {
                        write_ops_frame(out, missing.iter().copied())
                    });
                    self.net.send_frame(env.to, env.from, &ops);
                }
                if reply {
                    let summary = summary_frame(&mut self.frame, &node.replica, false);
                    self.net.send_frame(env.to, env.from, &summary);
                }
            }
            WireMessage::WelcomeLog { ops } => {
                for op in ops {
                    node.replica.insert(op);
                }
                node.joined = true;
            }
            WireMessage::Join { node: joiner } => {
                // A peer asked us for a snapshot of the log.
                let log = encode_frame(&mut self.frame, |out| {
                    write_welcome_log_frame(out, node.replica.ops())
                });
                self.net.send_frame(env.to, joiner, &log);
            }
        }
    }

    fn resend_join(&mut self, idx: usize) {
        let id = self.nodes[idx].id;
        match self.seed_peer(id) {
            Some(seed) => self.net.send(id, seed, &WireMessage::Join { node: id }),
            None => self.nodes[idx].joined = true,
        }
    }

    /// The lowest-id active node other than `id` (who a joiner asks
    /// for the log).
    fn seed_peer(&self, id: NodeId) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.active && n.id != id)
            .map(|n| n.id)
    }

    // ---- convergence ---------------------------------------------------

    /// Whether all connected nodes hold the same logged observations
    /// and folded epoch vector, with nothing left to fold.
    fn content_converged(&self) -> bool {
        let mut active = self.nodes.iter().filter(|n| n.active);
        let Some(first) = active.next() else {
            return true;
        };
        first.joined
            && !first.replica.pending()
            && active.all(|node| node.joined && node.replica.agrees_with(&first.replica))
    }

    /// Whether any node still has unforwarded rumors.
    fn exchange_pending(&self) -> bool {
        self.nodes.iter().any(|n| n.active && !n.outbox.is_empty())
    }
}

impl FleetRuntime for DistributedFleet {
    /// Rounds until every active node's own virtual clock has reached
    /// the absolute time `t_s`; one scheduler event is one
    /// synchronized round (tick, deliver, adopt, step, publish).
    fn run_until(&mut self, t_s: f64) -> u64 {
        let mut rounds = 0;
        loop {
            let due: Vec<bool> = self
                .nodes
                .iter()
                .map(|n| n.active && n.app.now_s() < t_s)
                .collect();
            if !due.iter().any(|&d| d) {
                return rounds;
            }
            self.round_with(&due);
            rounds += 1;
        }
    }

    /// Runs `n` synchronized rounds (stopping early once no node is
    /// active); returns the rounds run.
    fn run_events(&mut self, n: u64) -> u64 {
        for done in 0..n {
            if self.step_all() == 0 {
                return done;
            }
        }
        n
    }

    fn observe(&mut self, observer: EventObserver) {
        self.observers.push(observer);
    }

    /// The furthest virtual clock any node has reached.
    fn virtual_now_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.app.now_s()).fold(0.0, f64::max)
    }

    fn active_count(&self) -> usize {
        self.active_instances()
    }
}

/// Writes the frame of `node`'s outbox into `buf`, reading each
/// observation where its replica keeps it.
fn outbox_frame(buf: &mut Vec<u8>, node: &DistNode) -> Arc<[u8]> {
    encode_frame(buf, |out| {
        write_ops_frame(
            out,
            node.outbox.iter().map(|&s| node.replica.observation(s)),
        )
    })
}

/// Writes `replica`'s summary frame into `buf`.
fn summary_frame(buf: &mut Vec<u8>, replica: &Replica, reply: bool) -> Arc<[u8]> {
    let summary = WireMessage::Summary {
        counts: replica.summary(),
        reply,
    };
    encode_frame(buf, |out| write_frame(out, &summary))
}

/// The rotation targets of node `id` in `round`: `fanout` distinct
/// active peers (all of them when `fanout` reaches the peer count),
/// cycling through the whole peer set over consecutive rounds so every
/// pair reconciles periodically.
fn gossip_targets(active_ids: &[NodeId], id: NodeId, fanout: usize, round: u64) -> Vec<NodeId> {
    let peers: Vec<NodeId> = active_ids.iter().copied().filter(|&p| p != id).collect();
    if peers.is_empty() {
        return Vec::new();
    }
    let k = fanout.min(peers.len());
    let start = (round as usize).wrapping_mul(k) % peers.len();
    (0..k).map(|j| peers[(start + j) % peers.len()]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain::Toolchain;
    use crate::transport::LinkConfig;
    use polybench::{App, Dataset};

    fn quick_enhanced() -> EnhancedApp {
        Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
        .enhance(App::TwoMm)
        .unwrap()
    }

    fn dist_config(dist: DistributedConfig) -> FleetConfig {
        FleetConfig {
            exploration_interval: 0,
            distributed: Some(dist),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn construction_rejects_unsupported_capabilities() {
        let enhanced = quick_enhanced();
        let missing = DistributedFleet::new(FleetConfig::default(), &enhanced);
        let err = missing.err().expect("distributed = None must be rejected");
        assert!(err.to_string().contains("distributed"), "{err}");

        let exploring = DistributedFleet::new(
            FleetConfig {
                exploration_interval: 4,
                distributed: Some(DistributedConfig::default()),
                ..FleetConfig::default()
            },
            &enhanced,
        );
        let err = exploring.err().expect("exploration must be rejected");
        assert!(err.to_string().contains("exploration_interval"), "{err}");

        let budgeted = DistributedFleet::new(
            FleetConfig {
                power_budget_w: Some(100.0),
                ..dist_config(DistributedConfig::default())
            },
            &enhanced,
        );
        let err = budgeted.err().expect("budget must be rejected");
        assert!(err.to_string().contains("power_budget_w"), "{err}");

        // And the in-process fleet rejects distributed configs.
        let wrong_door = crate::fleet::Fleet::new(dist_config(DistributedConfig::default()));
        let err = wrong_door.err().expect("Fleet must reject distributed");
        assert!(err.to_string().contains("DistributedFleet"), "{err}");
    }

    #[test]
    fn event_driven_schedules_cannot_go_distributed() {
        let enhanced = quick_enhanced();
        let err = DistributedFleet::new(
            FleetConfig {
                schedule: crate::fleet::Schedule::EventDriven,
                ..dist_config(DistributedConfig::default())
            },
            &enhanced,
        )
        .err()
        .expect("EventDriven + distributed is contradictory");
        assert!(err.to_string().contains("EventDriven"), "{err}");
        assert!(err.to_string().contains("Lockstep"), "{err}");
    }

    #[test]
    fn the_runtime_surface_matches_the_legacy_round_loop() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 9, 3);
        // From a fresh boot run_until(t) is the retired run_for(t) round
        // sequence, bit for bit: rounds, traces and the authoritative
        // knowledge are pinned to that loop's output.
        let rounds = fleet.run_until(2.0);
        assert_eq!(rounds, 90);
        assert_eq!(fleet.rounds(), 90);
        assert!(fleet.virtual_now_s() >= 2.0);
        assert_eq!(fleet.active_count(), 3);
        let digests: Vec<u64> = (0..3)
            .map(|id| crate::runtime::trace_digest(&fleet.trace(id)))
            .collect();
        assert_eq!(
            digests,
            [
                0xae14_1310_7e7a_2a48,
                0x0ef5_4683_d09d_8a03,
                0xfae7_60c9_dc8b_5bc5
            ]
        );
        let knowledge = fleet.authoritative_knowledge();
        assert_eq!(
            margot::shard_content_hash(knowledge.points().iter().enumerate()),
            0xcaf9_859c_2dc6_b3ec
        );
        // run_events(n) is n synchronized rounds.
        assert_eq!(fleet.run_events(2), 2);
        assert_eq!(fleet.rounds(), 92);
    }

    #[test]
    fn observers_see_distributed_rounds_without_perturbing_them() {
        use std::sync::{Arc, Mutex};
        let enhanced = quick_enhanced();
        let run = |observe: bool| {
            let mut fleet =
                DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced)
                    .unwrap();
            let seen = Arc::new(Mutex::new(Vec::new()));
            if observe {
                let sink = Arc::clone(&seen);
                fleet.observe(Box::new(move |e: &FleetEvent| {
                    sink.lock().unwrap().push(e.clone());
                }));
            }
            fleet.spawn(&Rank::throughput_per_watt2(), 4, 2);
            fleet.run_events(3);
            fleet.retire_instance(0);
            let traces: Vec<_> = (0..2).map(|id| fleet.trace(id)).collect();
            drop(fleet);
            let events = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
            (traces, events)
        };
        let (plain, none) = run(false);
        let (observed, events) = run(true);
        assert!(none.is_empty());
        assert_eq!(plain, observed, "observers must not perturb the rounds");
        let arrived = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Arrived { .. }))
            .count();
        assert_eq!(arrived, 2);
        let stepped = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Stepped { .. }))
            .count();
        assert_eq!(stepped, 6, "2 nodes x 3 rounds");
        let published = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Published { .. }))
            .count();
        assert_eq!(published, 6, "every step publishes over the wire");
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Retired { id, .. } if *id == dense_id(0))));
    }

    #[test]
    fn no_runtime_lowers_or_runs_the_weaved_program() {
        // Only the weaved program and its entry clone name change, to a
        // program whose pragma names a parameter the functional spec
        // does not bind: it cannot be lowered, and the runtimes, which
        // only dispatch versions, never try.
        let enhanced = quick_enhanced();
        let mut unlowerable = enhanced.clone();
        unlowerable.weaved = Arc::new(
            minic::parse(
                "double buf[NI];\n\
                 void kernel_free(double alpha, double beta) {\n\
                 #pragma omp parallel for num_threads(P_free)\n\
                 for (int i = 0; i < NI; i++) { buf[i] = alpha * beta; }\n\
                 }\n",
            )
            .unwrap(),
        );
        unlowerable.multiversioned.version_functions[0] = "kernel_free".to_string();
        let spec = crate::engine::functional_spec(App::TwoMm, enhanced.dataset, 1);
        let err = crate::engine::compile_kernel(
            &unlowerable.weaved,
            &unlowerable.kernel_entry(),
            App::TwoMm,
            &spec,
        )
        .expect_err("an unbound pragma parameter fails lowering");
        assert_eq!(err.stage(), crate::StageId::Lower);
        assert!(err.to_string().contains("P_free"), "{err}");

        let rank = Rank::throughput_per_watt2();
        let lockstep = |app: &EnhancedApp| {
            let mut fleet = crate::Fleet::new(FleetConfig::default()).unwrap();
            fleet.spawn(app, &rank, 3, 2);
            fleet.run_until(1.0);
            (0..fleet.len())
                .map(|id| fleet.trace(id))
                .collect::<Vec<_>>()
        };
        assert_eq!(lockstep(&unlowerable), lockstep(&enhanced));

        let events = |app: &EnhancedApp| {
            let config = FleetConfig {
                schedule: crate::Schedule::EventDriven,
                ..FleetConfig::default()
            };
            let mut fleet = crate::EventFleet::new(config).unwrap();
            fleet.spawn(app, &rank, 3, 2);
            fleet.run_until(1.0);
            (fleet.events_processed(), fleet.event_digest())
        };
        assert_eq!(events(&unlowerable), events(&enhanced));

        let distributed = |app: &EnhancedApp| {
            let config = dist_config(DistributedConfig::default());
            let mut fleet = DistributedFleet::new(config, app).unwrap();
            fleet.spawn(&rank, 3, 2);
            fleet.run_until(1.0);
            (0..fleet.len())
                .map(|id| fleet.trace(id))
                .collect::<Vec<_>>()
        };
        assert_eq!(distributed(&unlowerable), distributed(&enhanced));
    }

    #[test]
    fn ideal_full_mesh_fleet_steps_and_converges_every_round() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 3, 3);
        assert_eq!(fleet.active_instances(), 3);
        for _ in 0..4 {
            assert_eq!(fleet.step_all(), 3);
            // Each round's deliveries bring every replica level before
            // it folds: only the round's own steps are unfolded.
            assert!((0..3).all(|id| fleet.epoch_vector(id) == fleet.epoch_vector(0)));
        }
        // One repair round forwards the last round's rumors, which every
        // node already holds.
        assert_eq!(fleet.drain().unwrap(), 1);
        assert!(fleet.converged());
        let authoritative = fleet.authoritative_knowledge();
        assert_ne!(
            authoritative, enhanced.knowledge,
            "merged observations must refresh expectations"
        );
        for id in 0..3 {
            assert_eq!(
                fleet.node_knowledge(id),
                authoritative,
                "node {id} diverged"
            );
            assert_eq!(fleet.epoch_vector(id), fleet.epoch_vector(0));
        }
        assert_eq!(fleet.canonical_ops().len(), 12);
    }

    #[test]
    fn steady_rounds_patch_each_asrtm_in_place() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 7, 4);
        // The first patches copy the design knowledge every AS-RTM
        // booted sharing; from then on nothing is copied.
        for _ in 0..3 {
            fleet.step_all();
        }
        let storage = |fleet: &DistributedFleet| -> Vec<_> {
            fleet
                .nodes
                .iter()
                .map(|node| {
                    let k = node.app.manager().asrtm().knowledge();
                    let index = k.rank_index().map(|i| i as *const margot::RankIndex);
                    (k.points().as_ptr(), index)
                })
                .collect()
        };
        let booted = storage(&fleet);
        assert!(booted.iter().all(|(_, index)| index.is_some()));
        let mut moved = 0;
        for _ in 0..8 {
            let epochs: Vec<u64> = fleet.nodes.iter().map(|n| n.replica.epoch()).collect();
            fleet.step_all();
            moved += fleet
                .nodes
                .iter()
                .zip(&epochs)
                .filter(|(node, &epoch)| node.replica.epoch() != epoch)
                .count();
            assert_eq!(storage(&fleet), booted, "patched in place");
            for node in &fleet.nodes {
                let held = node.app.manager().asrtm().knowledge();
                assert_eq!(held, &node.replica.knowledge(), "adopted");
            }
        }
        assert!(moved > 0, "the rounds moved the knowledge");
    }

    #[test]
    fn lossy_gossip_fleet_converges_after_drain() {
        let enhanced = quick_enhanced();
        let dist = DistributedConfig {
            topology: DistTopology::Gossip { fanout: 1 },
            link: LinkConfig {
                seed: 11,
                min_latency: 0,
                max_latency: 3,
                drop_prob: 0.3,
                dup_prob: 0.1,
            },
            ..DistributedConfig::default()
        };
        let mut fleet = DistributedFleet::new(dist_config(dist), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 5, 4);
        for _ in 0..6 {
            fleet.step_all();
        }
        fleet.drain().expect("a 30% loss model must drain");
        assert!(fleet.converged());
        let reference = fleet.node_knowledge(0);
        for id in 1..4 {
            assert_eq!(fleet.node_knowledge(id), reference, "node {id} diverged");
            assert_eq!(fleet.epoch_vector(id), fleet.epoch_vector(0));
        }
        let stats = fleet.stats();
        assert!(stats.net.dropped > 0, "the loss model must have dropped");
        assert_eq!(stats.active, 4);
    }

    #[test]
    fn late_joiner_adopts_snapshot_and_catches_up() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 7, 2);
        for _ in 0..5 {
            fleet.step_all();
        }
        let late = fleet.add_instance(Rank::throughput_per_watt2(), enhanced.platform.machine(99));
        for _ in 0..5 {
            fleet.step_all();
        }
        fleet.drain().unwrap();
        assert_eq!(
            fleet.node_knowledge(late),
            fleet.authoritative_knowledge(),
            "the joiner must reach the fleet's knowledge exactly"
        );
        assert!(fleet.trace(late).len() >= 5, "the joiner stepped");
    }

    #[test]
    fn warm_started_nodes_and_late_joiners_boot_on_the_shipped_snapshot() {
        use crate::snapshot::SnapshotFingerprint;
        let enhanced = quick_enhanced();
        // A donor in-process fleet learns, then cuts the snapshot the
        // distributed deployment ships.
        let mut donor = crate::fleet::Fleet::new(FleetConfig::default()).unwrap();
        donor.spawn(&enhanced, &Rank::throughput_per_watt2(), 3, 2);
        donor.run_until(2.0);
        let snapshot = donor
            .knowledge_snapshot(
                App::TwoMm,
                SnapshotFingerprint::new(App::TwoMm.name(), "Medium", 0),
            )
            .unwrap();
        let warmed = snapshot.apply_to_design(&enhanced.knowledge);
        assert_ne!(warmed, enhanced.knowledge);

        let mut fleet = DistributedFleet::new(
            FleetConfig {
                warm_start: Some(snapshot),
                ..dist_config(DistributedConfig::default())
            },
            &enhanced,
        )
        .unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 7, 2);
        // Every node boots on the same seeded fold: the warmed design
        // with the shipped points' windows filled.
        let seeded = DistributedFleet::boot_replica(fleet.config(), &warmed, App::TwoMm);
        assert!(!seeded.pending(), "the seed is folded at boot");
        assert_ne!(seeded.knowledge(), enhanced.knowledge);
        for id in 0..2 {
            assert_eq!(
                fleet.node_knowledge(id),
                seeded.knowledge(),
                "node {id} booted cold"
            );
        }
        assert_eq!(fleet.authoritative_knowledge(), seeded.knowledge());
        fleet.step_all();
        // A churn joiner is welcomed with the warmed (and since
        // updated) knowledge, never the cold design state.
        let late = fleet.add_instance(Rank::throughput_per_watt2(), enhanced.platform.machine(42));
        fleet.step_all();
        fleet.drain().unwrap();
        assert_eq!(fleet.node_knowledge(late), fleet.authoritative_knowledge());
        assert_ne!(fleet.node_knowledge(late), enhanced.knowledge);
    }

    #[test]
    fn retired_instances_stop_stepping_but_the_rest_converge() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 3, 3);
        fleet.step_all();
        assert!(fleet.retire_instance(0));
        assert!(!fleet.retire_instance(0), "already retired");
        let frozen = fleet.trace(0).len();
        assert_eq!(fleet.step_all(), 2);
        assert_eq!(fleet.trace(0).len(), frozen);
        fleet.drain().unwrap();
        assert_eq!(fleet.node_knowledge(1), fleet.node_knowledge(2));
    }
}
