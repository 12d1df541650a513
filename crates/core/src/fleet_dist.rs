//! The distributed fleet: SOCRATES' crowdsourced online loop over a
//! lossy wire instead of a shared address space.
//!
//! A [`DistributedFleet`] steps N [`AdaptiveApplication`] instances on
//! the synchronized virtual clock, exactly like the in-process
//! [`crate::Fleet`] — but every knowledge exchange travels through the
//! deterministic simulated transport of [`crate::transport`]:
//! observations, acks, per-shard [`margot::KnowledgeDelta`]s,
//! epoch-vector syncs and gossip summaries, all subject to seeded
//! per-link latency, reordering, drop and duplication.
//!
//! # Round structure
//!
//! Each synchronized round ticks the virtual clock and then runs four
//! phases:
//!
//! 1. **deliver** — due messages are handed out in deterministic
//!    order and handled; the broker folds newly arrived observations
//!    (canonical `(round, origin)` order) and broadcasts per-shard
//!    deltas, cascading within the phase so an ideal link behaves
//!    exactly like the in-process barrier;
//! 2. **adopt** — nodes patch the operating points their effective
//!    knowledge moved on into their AS-RTM;
//! 3. **step** — every due instance performs one MAPE-K step, in node
//!    order;
//! 4. **publish** — each stepped node emits its observation into the
//!    exchange (star: resent until acked; gossip: rumored to rotating
//!    peers) plus periodic anti-entropy traffic.
//!
//! # Determinism and convergence contract
//!
//! Over a lossless zero-latency link ([`LinkConfig::ideal`]) the
//! distributed fleet is **bit-identical** to the in-process
//! [`crate::Fleet`] — same traces, same learned knowledge (pinned by
//! `tests/fleet_dist_equivalence.rs`). Under any seeded loss/latency
//! model, [`DistributedFleet::drain`] runs anti-entropy until every
//! connected node holds the same effective knowledge — equal to the
//! canonical single-shard fold of all observations (pinned by
//! `tests/transport_props.rs`) — and reports how many repair rounds
//! that took.
//!
//! Scope: one enhanced application per distributed fleet (the
//! in-process fleet's multi-pool bookkeeping is orthogonal to the
//! wire), no cooperative exploration (`exploration_interval` must be
//! 0 — assignment hand-off needs a coordination channel this
//! transport does not model yet) and no power arbitration
//! (`power_budget_w` must be `None` for the same reason).

use crate::error::SocratesError;
use crate::events::{EventObserver, FleetEvent, FleetRuntime};
use crate::fleet::{dense_id, FleetConfig};
use crate::runtime::{AdaptiveApplication, TraceSample};
use crate::toolchain::EnhancedApp;
use crate::transport::{
    DistTopology, DistributedConfig, Envelope, NetStats, NodeId, Observation, Replica, SimNet,
    WireMessage, BROKER,
};
use margot::{Knowledge, KnowledgeDelta, OperatingPoint, Rank};
use platform_sim::{KnobConfig, Machine};
use polybench::App;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The central knowledge service of a star deployment: owns the
/// authoritative canonical fold and the monotone per-shard broadcast
/// versions.
struct Broker {
    replica: Replica,
    /// What the broker last broadcast — the knowledge every member
    /// converges to.
    published: Knowledge<KnobConfig>,
    /// Monotone per-shard broadcast versions (the epoch vector nodes
    /// reconcile against).
    versions: Vec<u64>,
    members: BTreeSet<NodeId>,
}

/// Star-mode node state: an effective-knowledge cache reconciled via
/// the per-shard epoch vector.
struct StarState {
    /// Never shares storage with the node's AS-RTM, so patching it
    /// copies nothing.
    cache: Knowledge<KnobConfig>,
    versions: Vec<u64>,
    /// Own observations not yet acknowledged by the broker (resent
    /// every round until acked).
    unacked: BTreeMap<u64, Observation>,
    /// Cache positions patched since the node's AS-RTM last adopted.
    patched: BTreeSet<usize>,
}

/// Gossip-mode node state: a full replica plus the rumor outbox.
struct GossipState {
    replica: Replica,
    /// Observations newly learned this round (own step + fresh
    /// arrivals), forwarded to the next rotation targets.
    outbox: Vec<Observation>,
}

enum NodeSync {
    Star(StarState),
    /// Boxed: a full replica (log + per-point saved states) dwarfs
    /// the star node's cache-and-epoch-vector state.
    Gossip(Box<GossipState>),
}

/// One distributed fleet member: an adaptive application plus its
/// side of the knowledge exchange.
struct DistNode {
    id: NodeId,
    app: AdaptiveApplication,
    active: bool,
    /// Whether the node received its snapshot (founding members start
    /// joined; mid-run joiners resend [`WireMessage::Join`] until
    /// welcomed).
    joined: bool,
    /// Next own-observation sequence number.
    seq: u64,
    sync: NodeSync,
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
    /// Knowledge position → shard, fixed by the design knowledge and
    /// the configured shard count.
    shard_map: Vec<usize>,
    shard_count: usize,
    net: SimNet,
    broker: Option<Broker>,
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
        // the design knowledge before anything derives from it — the
        // probe replica, the broker's published state, every node's
        // boot cache and the Welcome snapshot handed to late joiners
        // all inherit the seed. Same-app snapshots only: the
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
        let probe = Self::boot_replica(&config, &design, enhanced.app);
        let shard_map: Vec<usize> = design
            .points()
            .iter()
            .map(|p| probe.shard_of(&p.config).expect("design config is known"))
            .collect();
        let broker = match dist.topology {
            DistTopology::BrokerStar => Some(Broker {
                replica: probe,
                published: design.clone(),
                versions: vec![0; config.knowledge_shards],
                members: BTreeSet::new(),
            }),
            DistTopology::Gossip { .. } => None,
        };
        Ok(DistributedFleet {
            net: SimNet::new(dist.link.clone()),
            dist,
            enhanced: Arc::new(enhanced.clone()),
            design,
            shard_map,
            shard_count: config.knowledge_shards,
            broker,
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
        let mut refolds = 0;
        let mut refold_ops_replayed = 0;
        for node in &self.nodes {
            if let NodeSync::Gossip(g) = &node.sync {
                refolds += g.replica.refolds();
                refold_ops_replayed += g.replica.refold_ops_replayed();
            }
        }
        if let Some(b) = &self.broker {
            refolds += b.replica.refolds();
            refold_ops_replayed += b.replica.refold_ops_replayed();
        }
        DistStats {
            instances: self.nodes.len(),
            active: self.active_instances(),
            rounds: self.rounds,
            refolds,
            refold_ops_replayed,
            net: self.net.stats(),
        }
    }

    /// Boots one instance on a specific machine and returns its id.
    /// Instances added before the first round are founding members
    /// (registered everywhere, no handshake); later additions are
    /// *churn*: the node announces itself with
    /// [`WireMessage::Join`], adopts the answering snapshot and
    /// catches up via deltas.
    pub fn add_instance(&mut self, rank: Rank, machine: Machine) -> usize {
        let id = self.nodes.len() as NodeId;
        let founding = self.rounds == 0;
        // Indexed once per fleet: every node's AS-RTM and star cache
        // clone the index with the knowledge, adoptions reuse it, and
        // patches re-key it.
        self.design.rank_by(&rank);
        let sync = match self.dist.topology {
            DistTopology::BrokerStar => NodeSync::Star(StarState {
                cache: self.design.clone(),
                versions: vec![0; self.shard_count],
                unacked: BTreeMap::new(),
                patched: BTreeSet::new(),
            }),
            DistTopology::Gossip { .. } => NodeSync::Gossip(Box::new(GossipState {
                replica: Self::boot_replica(&self.config, &self.design, self.enhanced.app),
                outbox: Vec::new(),
            })),
        };
        self.nodes.push(DistNode {
            id,
            app: AdaptiveApplication::with_knowledge(
                Arc::clone(&self.enhanced),
                self.design.clone(),
                rank,
                machine,
            ),
            active: true,
            joined: founding,
            seq: 0,
            sync,
        });
        if founding {
            if let Some(broker) = self.broker.as_mut() {
                broker.members.insert(id);
            }
        } else {
            // Churn: announce over the (lossy) wire; resent every
            // sync interval until a snapshot arrives.
            match self.dist.topology {
                DistTopology::BrokerStar => {
                    self.net.send(id, BROKER, &WireMessage::Join { node: id })
                }
                DistTopology::Gossip { .. } => {
                    if let Some(seed) = self.seed_peer(id) {
                        self.net.send(id, seed, &WireMessage::Join { node: id });
                    } else {
                        // Nobody to learn from: the sole member needs
                        // no snapshot.
                        self.nodes.last_mut().expect("just pushed").joined = true;
                    }
                }
            }
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

    /// Retires an instance: it stops stepping and (best-effort) tells
    /// the broker to stop broadcasting to it. Returns `false` if it
    /// was already retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn retire_instance(&mut self, id: usize) -> bool {
        if !self.nodes[id].active {
            return false;
        }
        self.nodes[id].active = false;
        let node_id = self.nodes[id].id;
        if matches!(self.dist.topology, DistTopology::BrokerStar) {
            self.net
                .send(node_id, BROKER, &WireMessage::Leave { node: node_id });
        }
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

    /// Instance `id`'s current view of the shared knowledge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_knowledge(&self, id: usize) -> Knowledge<KnobConfig> {
        match &self.nodes[id].sync {
            NodeSync::Star(s) => s.cache.clone(),
            NodeSync::Gossip(g) => g.replica.knowledge(),
        }
    }

    /// Instance `id`'s per-shard epoch vector: broadcast versions in
    /// star mode, folded shard epochs in gossip mode. Equal across
    /// all connected nodes once the links drain.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn epoch_vector(&self, id: usize) -> Vec<u64> {
        match &self.nodes[id].sync {
            NodeSync::Star(s) => s.versions.clone(),
            NodeSync::Gossip(g) => g.replica.shard_epochs(),
        }
    }

    /// The authoritative effective knowledge: the broker's published
    /// knowledge (star) or the first active replica's fold (gossip;
    /// equal to everyone else's after [`drain`](Self::drain)). The
    /// design knowledge if the fleet is empty.
    pub fn authoritative_knowledge(&self) -> Knowledge<KnobConfig> {
        if let Some(broker) = &self.broker {
            return broker.published.clone();
        }
        for node in &self.nodes {
            if node.active {
                if let NodeSync::Gossip(g) = &node.sync {
                    return g.replica.knowledge();
                }
            }
        }
        self.design.clone()
    }

    /// Every observation the authoritative participant has logged, in
    /// canonical `(round, origin)` order — the input of the
    /// single-shard reference fold the property tests compare
    /// against. Complete once [`drain`](Self::drain) returned.
    pub fn canonical_ops(&self) -> Vec<Observation> {
        if let Some(broker) = &self.broker {
            return broker.replica.ops().cloned().collect();
        }
        for node in &self.nodes {
            if node.active {
                if let NodeSync::Gossip(g) = &node.sync {
                    return g.replica.ops().cloned().collect();
                }
            }
        }
        Vec::new()
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
    /// or pending retransmission.
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
                // The distributed epoch is the node's own view: the
                // sum of its per-shard epoch vector (monotone under
                // broadcast/fold progress).
                let epoch = self.epoch_vector(idx).iter().sum();
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

    /// Hands out every due message in deterministic order, cascading
    /// broker flushes until the phase is quiescent (zero-latency
    /// replies deliver within the same phase — the property that
    /// makes an ideal link match the in-process barrier). A receiver
    /// holding a replica gets only the observations it does not log
    /// yet: [`Self::handle`] would drop the others unread.
    fn deliver_phase(&mut self) {
        loop {
            let mut any = false;
            while let Some(env) = self.net.poll_due_keeping(|to, op| {
                replica_of(&self.nodes, self.broker.as_ref(), to)
                    .is_none_or(|replica| !replica.contains(op))
            }) {
                any = true;
                self.handle(env);
            }
            if self.flush_broker() {
                any = true;
            }
            if !any {
                break;
            }
        }
    }

    fn adopt_phase(&mut self) {
        for node in &mut self.nodes {
            if !node.active {
                continue;
            }
            match &mut node.sync {
                NodeSync::Star(s) => {
                    // The node holds the cache as of its previous
                    // adoption, so the patched positions bring it level
                    // without copying either side. The per-shard
                    // versions track the cache; the delta's scalar
                    // epochs are not read here.
                    if !s.patched.is_empty() {
                        let epoch = s.versions.iter().sum();
                        let delta = KnowledgeDelta {
                            from_epoch: epoch,
                            to_epoch: epoch,
                            changed: std::mem::take(&mut s.patched)
                                .into_iter()
                                .map(|pos| (pos, s.cache.points()[pos].clone()))
                                .collect(),
                        };
                        if !node.app.apply_knowledge_delta(&delta) {
                            node.app.set_knowledge(s.cache.clone());
                        }
                    }
                }
                NodeSync::Gossip(g) => {
                    // The node holds the replica's knowledge as of the
                    // previous take, so the delta patches it exactly.
                    g.replica.fold_pending();
                    let delta = g.replica.take_changes();
                    if !delta.is_empty() && !node.app.apply_knowledge_delta(&delta) {
                        node.app.set_knowledge(g.replica.knowledge());
                    }
                }
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
        let active_ids: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.active)
            .map(|n| n.id)
            .collect();
        for (idx, sample) in stepped.iter().enumerate() {
            if !self.nodes[idx].active {
                continue;
            }
            let id = self.nodes[idx].id;
            // Emit this round's observation into the node's own side
            // of the exchange.
            if let Some(sample) = sample {
                let node = &mut self.nodes[idx];
                let op = Observation {
                    origin: id,
                    seq: node.seq,
                    round,
                    config: sample.config.clone(),
                    observed: sample.observed_metrics(),
                };
                node.seq += 1;
                match &mut node.sync {
                    NodeSync::Star(s) => {
                        s.unacked.insert(op.seq, op);
                    }
                    NodeSync::Gossip(g) => {
                        g.replica.insert(op.clone());
                        g.outbox.push(op);
                    }
                }
            }
            match &mut self.nodes[idx].sync {
                NodeSync::Star(s) => {
                    // Everything unacked goes (back) out every round;
                    // the broker deduplicates and acks a contiguous
                    // watermark.
                    if !s.unacked.is_empty() {
                        let ops: Vec<Observation> = s.unacked.values().cloned().collect();
                        self.net.send(id, BROKER, &WireMessage::Ops { ops });
                    }
                    if sync_due {
                        let versions = s.versions.clone();
                        self.net
                            .send(id, BROKER, &WireMessage::SyncRequest { versions });
                    }
                }
                NodeSync::Gossip(g) => {
                    let targets = gossip_targets(&active_ids, id, &self.dist.topology, round);
                    if !targets.is_empty() {
                        // One message each, sent to every target.
                        let outbox = std::mem::take(&mut g.outbox);
                        let ops = (!outbox.is_empty()).then_some(WireMessage::Ops { ops: outbox });
                        let summary = sync_due.then(|| WireMessage::Summary {
                            counts: g.replica.summary(),
                            reply: true,
                        });
                        for (i, &target) in targets.iter().enumerate() {
                            if let Some(ops) = &ops {
                                self.net.send(id, target, ops);
                            }
                            if let (0, Some(summary)) = (i, &summary) {
                                self.net.send(id, target, summary);
                            }
                        }
                    } else {
                        g.outbox.clear();
                    }
                }
            }
            if !self.nodes[idx].joined && sync_due {
                self.resend_join(idx);
            }
        }
    }

    /// Drain-time repair traffic: resend everything pending and
    /// request reconciliation from every active node.
    fn anti_entropy(&mut self) {
        let round = self.rounds;
        let active_ids: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|n| n.active)
            .map(|n| n.id)
            .collect();
        for idx in 0..self.nodes.len() {
            if !self.nodes[idx].active {
                continue;
            }
            let id = self.nodes[idx].id;
            match &mut self.nodes[idx].sync {
                NodeSync::Star(s) => {
                    if !s.unacked.is_empty() {
                        let ops: Vec<Observation> = s.unacked.values().cloned().collect();
                        self.net.send(id, BROKER, &WireMessage::Ops { ops });
                    }
                    let versions = s.versions.clone();
                    self.net
                        .send(id, BROKER, &WireMessage::SyncRequest { versions });
                }
                NodeSync::Gossip(g) => {
                    let targets = gossip_targets(&active_ids, id, &self.dist.topology, round);
                    if let Some(&target) = targets.first() {
                        let outbox = std::mem::take(&mut g.outbox);
                        if !outbox.is_empty() {
                            self.net.send(id, target, &WireMessage::Ops { ops: outbox });
                        }
                        self.net.send(
                            id,
                            target,
                            &WireMessage::Summary {
                                counts: g.replica.summary(),
                                reply: true,
                            },
                        );
                    }
                }
            }
            if !self.nodes[idx].joined {
                self.resend_join(idx);
            }
        }
    }

    // ---- message handling ----------------------------------------------

    fn handle(&mut self, env: Envelope) {
        if env.to == BROKER {
            self.handle_broker(env);
            return;
        }
        let idx = env.to as usize;
        if idx >= self.nodes.len() {
            return;
        }
        match env.msg {
            WireMessage::Delta { shard, delta } => self.node_delta(idx, shard, &delta),
            WireMessage::SyncResponse {
                shard,
                version,
                points,
            } => self.node_sync_response(idx, shard, version, points),
            WireMessage::Welcome {
                knowledge,
                versions,
            } => self.node_welcome(idx, &knowledge, &versions),
            WireMessage::Ack { count } => {
                if let NodeSync::Star(s) = &mut self.nodes[idx].sync {
                    s.unacked.retain(|&seq, _| seq >= count);
                }
            }
            WireMessage::Ops { ops } => {
                if let NodeSync::Gossip(g) = &mut self.nodes[idx].sync {
                    for op in ops {
                        if !g.replica.contains(op.op_id()) {
                            // Fresh rumor: log it and forward it on the
                            // next rotation.
                            g.outbox.push(op.clone());
                            g.replica.insert(op);
                        }
                    }
                }
            }
            WireMessage::Summary { counts, reply } => {
                let response = if let NodeSync::Gossip(g) = &self.nodes[idx].sync {
                    let missing = g.replica.missing_for(&counts);
                    let own = if reply {
                        Some(g.replica.summary())
                    } else {
                        None
                    };
                    Some((missing, own))
                } else {
                    None
                };
                if let Some((missing, own)) = response {
                    if !missing.is_empty() {
                        self.net
                            .send(env.to, env.from, &WireMessage::Ops { ops: missing });
                    }
                    if let Some(counts) = own {
                        self.net.send(
                            env.to,
                            env.from,
                            &WireMessage::Summary {
                                counts,
                                reply: false,
                            },
                        );
                    }
                }
            }
            WireMessage::WelcomeLog { ops } => {
                if let NodeSync::Gossip(g) = &mut self.nodes[idx].sync {
                    for op in ops {
                        g.replica.insert(op);
                    }
                }
                self.nodes[idx].joined = true;
            }
            WireMessage::Join { node } => {
                // A gossip peer asked us for a snapshot of the log.
                let ops: Option<Vec<Observation>> = match &self.nodes[idx].sync {
                    NodeSync::Gossip(g) => Some(g.replica.ops().cloned().collect()),
                    NodeSync::Star(_) => None,
                };
                if let Some(ops) = ops {
                    self.net
                        .send(env.to, node, &WireMessage::WelcomeLog { ops });
                }
            }
            WireMessage::Leave { .. } | WireMessage::SyncRequest { .. } => {}
        }
    }

    fn handle_broker(&mut self, env: Envelope) {
        let Some(broker) = self.broker.as_mut() else {
            return;
        };
        match env.msg {
            WireMessage::Ops { ops } => {
                for op in ops {
                    broker.replica.insert(op);
                }
                // Ack the sender's contiguous watermark so it can
                // stop retransmitting.
                let count = broker
                    .replica
                    .summary()
                    .iter()
                    .find(|(origin, _)| *origin == env.from)
                    .map_or(0, |&(_, count)| count);
                self.net.send(BROKER, env.from, &WireMessage::Ack { count });
            }
            WireMessage::SyncRequest { versions } => {
                for shard in 0..self.shard_count {
                    let theirs = versions.get(shard).copied().unwrap_or(0);
                    if broker.versions[shard] > theirs {
                        let points: Vec<(usize, OperatingPoint<KnobConfig>)> = broker
                            .published
                            .points()
                            .iter()
                            .enumerate()
                            .filter(|(pos, _)| self.shard_map[*pos] == shard)
                            .map(|(pos, point)| (pos, point.clone()))
                            .collect();
                        self.net.send(
                            BROKER,
                            env.from,
                            &WireMessage::SyncResponse {
                                shard,
                                version: broker.versions[shard],
                                points,
                            },
                        );
                    }
                }
            }
            WireMessage::Join { node } => {
                broker.members.insert(node);
                self.net.send(
                    BROKER,
                    node,
                    &WireMessage::Welcome {
                        knowledge: broker.published.clone(),
                        versions: broker.versions.clone(),
                    },
                );
            }
            WireMessage::Leave { node } => {
                broker.members.remove(&node);
            }
            _ => {}
        }
    }

    fn node_delta(&mut self, idx: usize, shard: usize, delta: &KnowledgeDelta<KnobConfig>) {
        let NodeSync::Star(s) = &mut self.nodes[idx].sync else {
            return;
        };
        if shard >= s.versions.len() || delta.to_epoch <= s.versions[shard] {
            return; // stale or duplicated broadcast
        }
        if delta.from_epoch == s.versions[shard] && delta.apply_to(&mut s.cache) {
            s.versions[shard] = delta.to_epoch;
            s.patched.extend(delta.changed.iter().map(|(pos, _)| *pos));
        } else {
            // A gap: at least one earlier broadcast for this shard
            // was lost or is still in flight. Ask for full state of
            // every stale shard.
            let versions = s.versions.clone();
            let id = self.nodes[idx].id;
            self.net
                .send(id, BROKER, &WireMessage::SyncRequest { versions });
        }
    }

    fn node_sync_response(
        &mut self,
        idx: usize,
        shard: usize,
        version: u64,
        points: Vec<(usize, OperatingPoint<KnobConfig>)>,
    ) {
        let NodeSync::Star(s) = &mut self.nodes[idx].sync else {
            return;
        };
        if shard >= s.versions.len() || version <= s.versions[shard] {
            return; // already repaired by a newer response
        }
        for (pos, point) in points {
            s.cache.patch_point(pos, point);
            s.patched.insert(pos);
        }
        s.versions[shard] = version;
    }

    fn node_welcome(&mut self, idx: usize, knowledge: &Knowledge<KnobConfig>, versions: &[u64]) {
        if let NodeSync::Star(s) = &mut self.nodes[idx].sync {
            let improved: Vec<usize> = (0..self.shard_count)
                .filter(|&shard| versions.get(shard).copied().unwrap_or(0) > s.versions[shard])
                .collect();
            if !improved.is_empty() {
                for (pos, point) in knowledge.points().iter().enumerate() {
                    if improved.contains(&self.shard_map[pos]) {
                        s.cache.patch_point_from(pos, point);
                        s.patched.insert(pos);
                    }
                }
                for &shard in &improved {
                    s.versions[shard] = versions[shard];
                }
            }
        }
        self.nodes[idx].joined = true;
    }

    /// Folds the broker's newly arrived observations and broadcasts
    /// one per-shard delta for every changed shard. Returns whether
    /// anything progressed (so the deliver phase can cascade).
    fn flush_broker(&mut self) -> bool {
        let Some(broker) = self.broker.as_mut() else {
            return false;
        };
        broker.replica.fold_pending();
        let moved = broker.replica.take_changes();
        if moved.is_empty() {
            return false;
        }
        // Only the points the fold moved can differ from what was
        // published; one that ended where it was published is not
        // re-broadcast.
        let mut by_shard: BTreeMap<usize, Vec<(usize, OperatingPoint<KnobConfig>)>> =
            BTreeMap::new();
        for (pos, new) in moved.changed {
            if broker.published.points()[pos] != new {
                broker.published.patch_point_from(pos, &new);
                by_shard
                    .entry(self.shard_map[pos])
                    .or_default()
                    .push((pos, new));
            }
        }
        for (shard, changed) in by_shard {
            let from = broker.versions[shard];
            broker.versions[shard] = from + 1;
            let msg = WireMessage::Delta {
                shard,
                delta: KnowledgeDelta {
                    from_epoch: from,
                    to_epoch: from + 1,
                    changed,
                },
            };
            for &member in &broker.members {
                self.net.send(BROKER, member, &msg);
            }
        }
        true
    }

    fn resend_join(&mut self, idx: usize) {
        let id = self.nodes[idx].id;
        match self.dist.topology {
            DistTopology::BrokerStar => self.net.send(id, BROKER, &WireMessage::Join { node: id }),
            DistTopology::Gossip { .. } => {
                if let Some(seed) = self.seed_peer(id) {
                    self.net.send(id, seed, &WireMessage::Join { node: id });
                } else {
                    self.nodes[idx].joined = true;
                }
            }
        }
    }

    /// The lowest-id active node other than `id` (who a gossip joiner
    /// asks for its snapshot).
    fn seed_peer(&self, id: NodeId) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.active && n.id != id)
            .map(|n| n.id)
    }

    // ---- convergence ---------------------------------------------------

    /// Whether all connected participants expose the same effective
    /// knowledge and epoch vector.
    fn content_converged(&self) -> bool {
        match &self.broker {
            Some(broker) => {
                if broker.replica.pending() {
                    return false;
                }
                self.nodes
                    .iter()
                    .filter(|n| n.active)
                    .all(|n| match &n.sync {
                        NodeSync::Star(s) => {
                            n.joined && s.versions == broker.versions && s.cache == broker.published
                        }
                        NodeSync::Gossip(_) => false,
                    })
            }
            None => {
                /// A gossip replica's identity: the logged op-id set
                /// plus the folded shard epoch vector.
                type ReplicaState = (Vec<(u64, NodeId)>, Vec<u64>);
                let mut reference: Option<ReplicaState> = None;
                for node in self.nodes.iter().filter(|n| n.active) {
                    let NodeSync::Gossip(g) = &node.sync else {
                        return false;
                    };
                    if !node.joined || g.replica.pending() {
                        return false;
                    }
                    let state = (
                        g.replica.ops().map(Observation::op_id).collect::<Vec<_>>(),
                        g.replica.shard_epochs(),
                    );
                    match &reference {
                        None => reference = Some(state),
                        Some(r) => {
                            if *r != state {
                                return false;
                            }
                        }
                    }
                }
                true
            }
        }
    }

    /// Whether any node still has unacknowledged observations or
    /// unforwarded rumors.
    fn exchange_pending(&self) -> bool {
        self.nodes
            .iter()
            .filter(|n| n.active)
            .any(|n| match &n.sync {
                NodeSync::Star(s) => !s.unacked.is_empty(),
                NodeSync::Gossip(g) => !g.outbox.is_empty(),
            })
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

/// The replica logging what `to` receives: the broker's, or a gossip
/// node's. Star nodes hold none.
fn replica_of<'a>(
    nodes: &'a [DistNode],
    broker: Option<&'a Broker>,
    to: NodeId,
) -> Option<&'a Replica> {
    if to == BROKER {
        return broker.map(|b| &b.replica);
    }
    match &nodes.get(to as usize)?.sync {
        NodeSync::Gossip(g) => Some(&g.replica),
        NodeSync::Star(_) => None,
    }
}

/// The rotation targets of gossip node `id` in `round`: `fanout`
/// distinct active peers, cycling through the whole peer set over
/// consecutive rounds so every pair reconciles periodically.
fn gossip_targets(
    active_ids: &[NodeId],
    id: NodeId,
    topology: &DistTopology,
    round: u64,
) -> Vec<NodeId> {
    let DistTopology::Gossip { fanout } = topology else {
        return Vec::new();
    };
    let peers: Vec<NodeId> = active_ids.iter().copied().filter(|&p| p != id).collect();
    if peers.is_empty() {
        return Vec::new();
    }
    let k = (*fanout).min(peers.len());
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
        // sequence, bit for bit: rounds, traces and the broker's
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
        unlowerable.weaved = minic::parse(
            "double buf[NI];\n\
             void kernel_free(double alpha, double beta) {\n\
             #pragma omp parallel for num_threads(P_free)\n\
             for (int i = 0; i < NI; i++) { buf[i] = alpha * beta; }\n\
             }\n",
        )
        .unwrap();
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
    fn ideal_star_fleet_steps_and_converges_every_round() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 3, 3);
        assert_eq!(fleet.active_instances(), 3);
        for _ in 0..4 {
            assert_eq!(fleet.step_all(), 3);
        }
        assert_eq!(fleet.drain().unwrap(), 0, "an ideal link has no backlog");
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
    fn steady_star_rounds_patch_each_cache_in_place_and_never_share_it() {
        let enhanced = quick_enhanced();
        let mut fleet =
            DistributedFleet::new(dist_config(DistributedConfig::default()), &enhanced).unwrap();
        fleet.spawn(&Rank::throughput_per_watt2(), 7, 4);
        // The first patches copy the design knowledge every cache and
        // AS-RTM booted sharing; from then on nothing is copied.
        for _ in 0..3 {
            fleet.step_all();
        }
        let storage = |k: &Knowledge<KnobConfig>| {
            let index = k.rank_index().map(|i| i as *const margot::RankIndex);
            (k.points().as_ptr(), index)
        };
        let caches = |fleet: &DistributedFleet| -> Vec<_> {
            fleet
                .nodes
                .iter()
                .map(|node| match &node.sync {
                    NodeSync::Star(s) => storage(&s.cache),
                    NodeSync::Gossip(_) => panic!("a star fleet"),
                })
                .collect()
        };
        let booted = caches(&fleet);
        assert!(booted.iter().all(|(_, index)| index.is_some()));
        let mut moved = 0;
        for _ in 0..8 {
            let versions: Vec<Vec<u64>> = (0..4).map(|id| fleet.epoch_vector(id)).collect();
            fleet.step_all();
            moved += (0..4)
                .filter(|&id| fleet.epoch_vector(id) != versions[id])
                .count();
            assert_eq!(caches(&fleet), booted, "patched in place");
            for node in &fleet.nodes {
                let NodeSync::Star(s) = &node.sync else {
                    panic!("a star fleet");
                };
                let held = node.app.manager().asrtm().knowledge();
                assert_eq!(held, &s.cache, "adopted");
                assert_ne!(storage(held).0, storage(&s.cache).0, "not shared");
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
        assert_eq!(
            fleet.authoritative_knowledge(),
            warmed,
            "the broker publishes the warmed state from round zero"
        );
        for id in 0..2 {
            assert_eq!(fleet.node_knowledge(id), warmed, "node {id} booted cold");
        }
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
