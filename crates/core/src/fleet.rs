//! The fleet runtime orchestrator: SOCRATES' *online* loop at scale.
//!
//! After the design-time toolchain ships an enhanced binary, deployment
//! is not one process on one machine — it is many instances, on
//! heterogeneous machines, all running the same MAPE-K loop. A
//! [`Fleet`] boots N [`AdaptiveApplication`] instances and steps them
//! in instance order on the virtual clock, while a shared
//! [`margot::SharedKnowledge`] layer per application lets every
//! instance publish its monitor observations and pull the others'
//! discoveries (the Collective-Mind-style crowdsourced repository).
//!
//! Three fleet-level mechanisms ride on top of the per-instance loop:
//!
//! - **Online knowledge sharing** — each step's observation is merged
//!   into the shared knowledge at a deterministic round barrier, where
//!   every active instance adopts the refreshed knowledge before its
//!   next plan step.
//! - **Cooperative exploration** — a [`dse::ExplorationSchedule`]
//!   assigns still-unobserved configurations round-robin across the
//!   instances, so the fleet sweeps the design space online once
//!   instead of N times (or never).
//! - **Power-budget arbitration** — a global watt budget is split
//!   evenly across active instances by adjusting each AS-RTM's power
//!   constraint as instances join and leave.
//!
//! # Rounds: one loop, one barrier, incremental refresh
//!
//! A round is one loop over the due instances in instance order: each
//! is assigned its exploration slot, steps on its pool's barrier-time
//! cache, and adds its observation to its pool's batch. Steps read
//! only that cache, so the barrier that follows is the only place
//! knowledge moves: each pool merges its batch in instance order
//! ([`SharedKnowledge::publish_batch`]), then refreshes its cache
//! **incrementally** and double-buffered. The pool keeps two caches:
//! the current one, which every active instance holds, and a spare
//! one generation behind it, which none does. The barrier patches the
//! spare in place with the points changed at the previous and at this
//! barrier ([`SharedKnowledge::drain_changes_into`]), swaps it in, and
//! every active instance adopts it right there. [`Knowledge`] is `Arc`-backed
//! and carries the pool rank's [`margot::RankIndex`], so adoption is a
//! reference-count bump, the patch re-keys the index in O(log n), and
//! no round deep-copies the point list. The full-rebuild reference
//! ([`SharedKnowledge::snapshot`]) lives in the tests:
//! `crates/margot/tests/shared_props.rs` checks drained deltas against
//! it, and the fleet tests check the pool cache against it.
//! [`FleetConfig::knowledge_shards`] only partitions the knowledge's
//! snapshots and epoch vector; traces are identical at any shard
//! count. `tests/fleet_equivalence.rs` pins the traces to digests.
//!
//! # Failure isolation
//!
//! A panic inside one instance's step does not abort the fleet: the
//! panic is caught, and the failed instance is deactivated and counted
//! in [`Fleet::stats`] while its power share is redistributed to the
//! survivors. An exploration assignment it never executed goes back to
//! the sweep at the barrier.

use crate::error::SocratesError;
use crate::events::{EventObserver, FleetEvent, FleetRuntime, InstanceId};
use crate::runtime::{AdaptiveApplication, TraceSample};
use crate::snapshot::{KnowledgeSnapshot, SnapshotFingerprint};
use crate::toolchain::EnhancedApp;
use dse::ExplorationSchedule;
use margot::{Cmp, Constraint, Knowledge, Metric, MetricValues, Rank, SharedKnowledge};
use platform_sim::{KnobConfig, Machine};
use polybench::App;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Priority of the constraint the power arbiter manages on each
/// instance (higher than typical application constraints, so the global
/// budget wins when the feasible region empties).
pub const FLEET_POWER_PRIORITY: u32 = 50;

/// Warm boot re-validates the shipped snapshot's *head*: every covered
/// configuration whose seeded rank value is within this fraction of the
/// seeded best. Those are the configurations planned selection will
/// actually arbitrate between; everything below the band only ever
/// loses, so single fresh sweep samples on it cannot reorder the top.
const WARM_HEAD_BAND: f64 = 0.9;

/// Upper bound on the warm-boot validation head, so a pathologically
/// flat snapshot (hundreds of near-ties) cannot turn the boot burst
/// into a full cold-start sweep.
const WARM_HEAD_CAP: usize = 64;

/// Re-validation passes over the head during the boot burst. Eight real
/// samples per head configuration are enough to flag a grossly wrong
/// seed; with wide knowledge windows the remaining seed copies act as a
/// deliberate prior anchor, so the burst does not try to displace them
/// all — its length must stay in the seconds, not scale with the
/// window.
const WARM_HEAD_PASSES: usize = 8;

/// Fleet-level policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Whether instances publish observations into (and pull refreshed
    /// points from) the shared knowledge. Off = the frozen
    /// design-time-knowledge baseline.
    pub share_knowledge: bool,
    /// Every `exploration_interval`-th step of an instance executes a
    /// coordinator-assigned unexplored configuration instead of the
    /// AS-RTM pick (0 disables cooperative exploration, and with it a
    /// warm boot's re-validation burst). Only active while
    /// `share_knowledge` is on — exploration without publishing would
    /// be pure overhead.
    pub exploration_interval: u64,
    /// Sliding-window length of the shared per-point observation merge.
    /// Must be ≥ 1 ([`FleetConfig::validate`]).
    pub knowledge_window: usize,
    /// Observations a shared point needs before its window mean
    /// overrides the design-time expectation. Must be ≥ 1
    /// ([`FleetConfig::validate`]).
    pub min_observations: u64,
    /// Shards of each pool's [`SharedKnowledge`]: how its snapshots and
    /// epoch vector are partitioned ([`KnowledgeSnapshot`] carries one
    /// epoch per shard). Traces and learned knowledge are identical at
    /// any shard count. Must be ≥ 1 ([`FleetConfig::validate`]).
    pub knowledge_shards: usize,
    /// Global power budget (watts) split across active instances;
    /// `None` leaves every instance unconstrained.
    pub power_budget_w: Option<f64>,
    /// Prune each pool's cooperative exploration schedule before the
    /// sweep starts ([`crate::analysis_prune`]): configurations whose
    /// specialization traps the checked VM are dropped, and feasible
    /// points that another feasible point strictly Pareto-dominates on
    /// the noise-free `(time, power)` expectation of the app's profile
    /// (the expectation the DSE scaled by noise) are skipped. The
    /// shared *knowledge* keeps every design-time point — pruning only
    /// shrinks what the fleet spends exploration slots on, so the
    /// AS-RTM can still select any profiled configuration. Off by
    /// default (the full-sweep reference).
    pub analysis_prune: bool,
    /// A shipped knowledge snapshot to warm-start every pool from
    /// ([`KnowledgeSnapshot`], typically loaded via
    /// [`crate::ArtifactStore::warm_start_snapshot`]). The snapshot's
    /// learned metrics are merged over each pool's design-time
    /// knowledge before the first instance boots, so joiners start
    /// from deployment experience instead of the empty state. The
    /// snapshot may come from a *different* application (cross-app
    /// transfer seeding): only configurations present in the target's
    /// design space are adopted.
    pub warm_start: Option<KnowledgeSnapshot>,
    /// `Some` selects the *distributed* deployment mode: instances
    /// exchange knowledge as messages over a simulated lossy transport
    /// ([`crate::transport`]) instead of a shared address space. Such
    /// configurations boot through [`crate::DistributedFleet::new`];
    /// the in-process [`Fleet::new`] rejects them.
    pub distributed: Option<crate::transport::DistributedConfig>,
    /// How the runtime advances the fleet's virtual clock — lockstep
    /// rounds (the reference semantics) or the sparse discrete-event
    /// scheduler.
    /// [`Schedule::EventDriven`] configurations boot through
    /// [`crate::EventFleet::new`]; [`Fleet::new`] rejects them.
    pub schedule: Schedule,
}

/// How a fleet runtime advances its virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Schedule {
    /// Synchronized rounds: every due instance steps once, in instance
    /// order, then all observations merge at a barrier in instance
    /// order. The reference semantics.
    #[default]
    Lockstep,
    /// A discrete-event scheduler on the virtual clock: each instance
    /// is a sparse pool entry whose next step is a heap event keyed by
    /// its own kernel runtime, knowledge merges happen per publish
    /// event instead of at barriers, and arrivals/retirements are
    /// events themselves. Scales to millions of concurrent sparse
    /// instances in one process ([`crate::EventFleet`]).
    EventDriven,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            share_knowledge: true,
            exploration_interval: 4,
            knowledge_window: 8,
            min_observations: 1,
            knowledge_shards: margot::DEFAULT_SHARDS,
            power_budget_w: None,
            analysis_prune: false,
            warm_start: None,
            distributed: None,
            schedule: Schedule::Lockstep,
        }
    }
}

impl FleetConfig {
    /// Checks the policy for values that would panic deep inside the
    /// runtime (`knowledge_window = 0` inside [`SharedKnowledge::new`])
    /// or be silently reinterpreted (`min_observations = 0` used to be
    /// clamped to 1).
    ///
    /// # Errors
    ///
    /// Returns a runtime-stage [`SocratesError`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), SocratesError> {
        check_knowledge_window(self.knowledge_window)?;
        check_min_observations(self.min_observations)?;
        check_knowledge_shards(self.knowledge_shards)?;
        check_power_budget(self.power_budget_w)?;
        check_warm_start(self.warm_start.as_ref())?;
        check_distributed(self.distributed.as_ref())?;
        if self.schedule == Schedule::EventDriven && self.distributed.is_some() {
            return Err(SocratesError::invalid_config(
                "schedule = EventDriven cannot combine with distributed = Some: the \
                 distributed runtime synchronizes at round barriers (Schedule::Lockstep); \
                 run the event-driven scheduler in-process through EventFleet::new",
            ));
        }
        Ok(())
    }

    /// Starts a [`FleetConfigBuilder`] from the defaults — the
    /// construction path that surfaces an invalid value at the setter
    /// that introduced it instead of at `Fleet::new`.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            config: FleetConfig::default(),
        }
    }

    /// How many identical samples a warm boot stuffs into each shipped
    /// point's observation rings: a full window, so one fresh (noisy)
    /// observation moves the mean by only `1/window` of its deviation,
    /// and never fewer than `min_observations`, so the override gate
    /// opens immediately.
    pub(crate) fn warm_seed_copies(&self) -> usize {
        self.knowledge_window
            .max(usize::try_from(self.min_observations).unwrap_or(usize::MAX))
    }

    /// Ring copies for `app`'s warm boot, scaled by trust. A snapshot
    /// cut from the *same* application is evidence and gets the
    /// fully-observed boot above; a foreign (cross-app) snapshot is
    /// only a hint — its values still merge over the design
    /// predictions, but the rings stay empty (zero copies) so the
    /// first real observation of each configuration displaces the
    /// neighbour's guess outright instead of fighting a full window
    /// of it.
    pub(crate) fn warm_seed_copies_for(&self, app: App) -> usize {
        match &self.warm_start {
            Some(snapshot) if snapshot.fingerprint.app == app.name() => self.warm_seed_copies(),
            _ => 0,
        }
    }

    /// Whether instances take forced steps at all: the warm boot's
    /// re-validation burst and the cooperative sweep both need a
    /// nonzero `exploration_interval` and `share_knowledge`, since a
    /// forced step that is never published teaches no one.
    pub(crate) fn explores(&self) -> bool {
        self.share_knowledge && self.exploration_interval > 0
    }

    /// Whether an instance's step after `steps` earlier ones takes the
    /// next cooperative sweep configuration once its pool's burst is
    /// spent: every `exploration_interval`-th step while
    /// [`explores`](Self::explores). The one assignment rule of the
    /// lockstep and the event runtime.
    pub(crate) fn sweeps_at(&self, steps: u64) -> bool {
        self.explores() && steps % self.exploration_interval == self.exploration_interval - 1
    }
}

fn check_knowledge_window(window: usize) -> Result<(), SocratesError> {
    if window == 0 {
        return Err(SocratesError::invalid_config(
            "knowledge_window must be >= 1: a zero-length sliding window cannot hold \
             any observation",
        ));
    }
    Ok(())
}

fn check_min_observations(min_observations: u64) -> Result<(), SocratesError> {
    if min_observations == 0 {
        return Err(SocratesError::invalid_config(
            "min_observations must be >= 1: a window mean cannot override the design-time \
             expectation before at least one observation exists",
        ));
    }
    Ok(())
}

fn check_knowledge_shards(shards: usize) -> Result<(), SocratesError> {
    if shards == 0 {
        return Err(SocratesError::invalid_config(
            "knowledge_shards must be >= 1: the shared knowledge partitions its snapshots \
             and epoch vector into at least one shard",
        ));
    }
    Ok(())
}

pub(crate) fn check_power_budget(budget_w: Option<f64>) -> Result<(), SocratesError> {
    if let Some(w) = budget_w {
        if !(w.is_finite() && w > 0.0) {
            return Err(SocratesError::invalid_config(format!(
                "power_budget_w = {w} must be a positive, finite wattage (or None for \
                 unconstrained instances)"
            )));
        }
    }
    Ok(())
}

fn check_warm_start(snapshot: Option<&KnowledgeSnapshot>) -> Result<(), SocratesError> {
    if let Some(snapshot) = snapshot {
        if snapshot.knowledge.is_empty() {
            return Err(SocratesError::invalid_config(
                "warm_start snapshot holds no operating points: an empty snapshot cannot \
                 seed a pool (omit warm_start for a cold boot)",
            ));
        }
    }
    Ok(())
}

fn check_distributed(
    dist: Option<&crate::transport::DistributedConfig>,
) -> Result<(), SocratesError> {
    if let Some(dist) = dist {
        dist.validate()?;
    }
    Ok(())
}

/// Builder-style [`FleetConfig`] construction with **per-setter
/// validation**: a bad value errors at the setter that introduced it,
/// with the same diagnostics [`FleetConfig::validate`] would raise at
/// boot, instead of surfacing later at `Fleet::new`. Fallible setters
/// return `Result<Self, _>` so a chain reads `builder().x(..)?.y(..)?`;
/// knobs that accept any value of their type stay infallible.
/// [`build`](Self::build) re-runs the full validation, which also
/// covers cross-field rules (e.g. `EventDriven` + `distributed`).
///
/// The struct-literal path (`FleetConfig { .. }` + validation at
/// `Fleet::new`) remains supported as a compatibility shim.
///
/// # Examples
///
/// ```
/// use socrates::{FleetConfig, Schedule};
///
/// let config = FleetConfig::builder()
///     .knowledge_window(16)?
///     .power_budget_w(Some(400.0))?
///     .schedule(Schedule::EventDriven)
///     .build()?;
/// assert_eq!(config.knowledge_window, 16);
/// # Ok::<(), socrates::SocratesError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets [`FleetConfig::share_knowledge`].
    #[must_use]
    pub fn share_knowledge(mut self, share: bool) -> Self {
        self.config.share_knowledge = share;
        self
    }

    /// Sets [`FleetConfig::exploration_interval`] (0 disables
    /// cooperative exploration — every interval is valid).
    #[must_use]
    pub fn exploration_interval(mut self, every: u64) -> Self {
        self.config.exploration_interval = every;
        self
    }

    /// Sets [`FleetConfig::knowledge_window`].
    ///
    /// # Errors
    ///
    /// Rejects a zero-length window.
    pub fn knowledge_window(mut self, window: usize) -> Result<Self, SocratesError> {
        check_knowledge_window(window)?;
        self.config.knowledge_window = window;
        Ok(self)
    }

    /// Sets [`FleetConfig::min_observations`].
    ///
    /// # Errors
    ///
    /// Rejects zero.
    pub fn min_observations(mut self, min: u64) -> Result<Self, SocratesError> {
        check_min_observations(min)?;
        self.config.min_observations = min;
        Ok(self)
    }

    /// Sets [`FleetConfig::knowledge_shards`].
    ///
    /// # Errors
    ///
    /// Rejects zero shards.
    pub fn knowledge_shards(mut self, shards: usize) -> Result<Self, SocratesError> {
        check_knowledge_shards(shards)?;
        self.config.knowledge_shards = shards;
        Ok(self)
    }

    /// Sets [`FleetConfig::power_budget_w`].
    ///
    /// # Errors
    ///
    /// Rejects a budget that is not positive and finite.
    pub fn power_budget_w(mut self, budget_w: Option<f64>) -> Result<Self, SocratesError> {
        check_power_budget(budget_w)?;
        self.config.power_budget_w = budget_w;
        Ok(self)
    }

    /// Sets [`FleetConfig::analysis_prune`].
    #[must_use]
    pub fn analysis_prune(mut self, prune: bool) -> Self {
        self.config.analysis_prune = prune;
        self
    }

    /// Sets [`FleetConfig::warm_start`].
    ///
    /// # Errors
    ///
    /// Rejects an empty snapshot.
    pub fn warm_start(
        mut self,
        snapshot: Option<KnowledgeSnapshot>,
    ) -> Result<Self, SocratesError> {
        check_warm_start(snapshot.as_ref())?;
        self.config.warm_start = snapshot;
        Ok(self)
    }

    /// Sets [`FleetConfig::distributed`].
    ///
    /// # Errors
    ///
    /// Rejects an invalid distributed configuration
    /// ([`crate::transport::DistributedConfig::validate`]).
    pub fn distributed(
        mut self,
        dist: Option<crate::transport::DistributedConfig>,
    ) -> Result<Self, SocratesError> {
        check_distributed(dist.as_ref())?;
        self.config.distributed = dist;
        Ok(self)
    }

    /// Sets [`FleetConfig::schedule`].
    #[must_use]
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Finishes the build, re-running the **full** validation — the
    /// cross-field rules (event-driven excludes distributed) can only
    /// be checked here.
    ///
    /// # Errors
    ///
    /// Everything [`FleetConfig::validate`] rejects.
    pub fn build(self) -> Result<FleetConfig, SocratesError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Builds the warm-boot re-validation queue: the snapshot's covered
/// configurations whose seeded rank value sits within
/// [`WARM_HEAD_BAND`] of the seeded best (at most [`WARM_HEAD_CAP`]),
/// best first, each repeated `passes` times in round-robin order so a
/// drained queue leaves every head configuration with several real
/// local observations next to its shipped seed. Points the rank cannot
/// score (missing or non-finite metrics) are skipped — they cannot win
/// a selection, so they need no early validation.
fn warm_validation_queue(
    snapshot: &KnowledgeSnapshot,
    rank: &Rank,
    passes: usize,
) -> VecDeque<KnobConfig> {
    let mut head: Vec<(KnobConfig, f64)> = snapshot
        .knowledge
        .points()
        .iter()
        .filter_map(|p| {
            let value = rank.value_with(|m| p.metric(m))?;
            value.is_finite().then(|| (p.config.clone(), value))
        })
        .collect();
    head.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite rank values"));
    let Some(&(_, best)) = head.first() else {
        return VecDeque::new();
    };
    head.truncate(WARM_HEAD_CAP);
    if best > 0.0 {
        while head.last().is_some_and(|&(_, v)| v < best * WARM_HEAD_BAND) {
            head.pop();
        }
    }
    let mut queue = VecDeque::with_capacity(head.len() * passes.max(1));
    for _ in 0..passes.max(1) {
        queue.extend(head.iter().map(|(config, _)| config.clone()));
    }
    queue
}

/// A new pool's knowledge state, booted the same way by the lockstep
/// and the event runtime ([`boot_pool`]).
pub(crate) struct PoolBoot {
    pub(crate) shared: SharedKnowledge<KnobConfig>,
    /// The design knowledge with the warm-start snapshot merged over
    /// it: what the pool's cache starts from.
    pub(crate) seeded: Knowledge<KnobConfig>,
    pub(crate) schedule: ExplorationSchedule<KnobConfig>,
    /// The warm-boot head re-validation queue ([`warm_validation_queue`]),
    /// empty for a cold boot or a fleet that does not
    /// [`explore`](FleetConfig::explores).
    pub(crate) burst: VecDeque<KnobConfig>,
    /// Configurations the prune dropped: `(infeasible, dominated)`.
    pub(crate) pruned: (u64, u64),
}

/// Boots a pool for `enhanced` under `config`: the cooperative sweep
/// over its design configurations, pruned when
/// [`FleetConfig::analysis_prune`] is on; the shared knowledge, with
/// the warm-start snapshot merged over the design and, for a same-app
/// snapshot, its observation rings filled; and, when the fleet
/// [`explores`](FleetConfig::explores), the warm head's re-validation
/// queue under `rank`.
pub(crate) fn boot_pool(config: &FleetConfig, enhanced: &EnhancedApp, rank: &Rank) -> PoolBoot {
    let mut sweep: Vec<KnobConfig> = enhanced
        .knowledge
        .points()
        .iter()
        .map(|p| p.config.clone())
        .collect();
    // The prune only shrinks what the fleet cooperatively sweeps: the
    // shared knowledge keeps every design-time point, so the AS-RTM
    // can still select any of them.
    let mut pruned = (0, 0);
    if config.analysis_prune {
        let report = crate::engine::analysis_prune(enhanced, sweep);
        pruned = (report.infeasible as u64, report.dominated as u64);
        sweep = report.kept;
    }
    // Pools stay keyed by the unmerged design knowledge, so warm and
    // cold joiners of the same enhanced app share one pool.
    let seeded = match &config.warm_start {
        Some(snapshot) => snapshot.apply_to_design(&enhanced.knowledge),
        None => enhanced.knowledge.clone(),
    };
    let shared = SharedKnowledge::new(seeded.clone(), config.knowledge_window)
        .with_min_observations(config.min_observations)
        .with_shards(config.knowledge_shards);
    let mut burst = VecDeque::new();
    if let Some(snapshot) = &config.warm_start {
        // With empty rings, the first few (noisy) online samples would
        // displace the seed the moment the min_observations gate
        // opens, and the fleet would relive the cold-start transient
        // the snapshot exists to eliminate.
        let copies = config.warm_seed_copies_for(enhanced.app);
        if copies > 0 {
            shared.seed_observations(&snapshot.knowledge, copies);
        }
        if config.explores() {
            burst = warm_validation_queue(
                snapshot,
                rank,
                config.knowledge_window.min(WARM_HEAD_PASSES),
            );
        }
    }
    PoolBoot {
        shared,
        seeded,
        schedule: ExplorationSchedule::new(sweep),
        burst,
        pruned,
    }
}

/// One shared-knowledge pool: all instances of the same application
/// (same design-time knowledge) publish into and pull from it.
struct Pool {
    app: App,
    design: Knowledge<KnobConfig>,
    shared: SharedKnowledge<KnobConfig>,
    schedule: ExplorationSchedule<KnobConfig>,
    /// Warm-boot re-validation queue (empty for cold pools): the
    /// snapshot's head — see [`WARM_HEAD_BAND`] — queued `window` times
    /// per configuration, best first. Served ahead of the cooperative
    /// sweep at *every* step until drained, so the configurations that
    /// will drive selection trade their shipped seeds for real local
    /// observations in the first seconds of the run instead of ambushing
    /// the fleet with frozen near-ties mid-flight.
    burst: VecDeque<KnobConfig>,
    /// Effective-knowledge snapshot maintained **once per pool** at the
    /// round barrier (and only when the epoch moved), indexed by the
    /// rank of the pool's first instance; every active instance holds
    /// it, and one under another rank plans by scanning.
    cache_epoch: u64,
    cache: Knowledge<KnobConfig>,
    /// The cache one generation back, which no active instance holds:
    /// the next refresh patches it in place and swaps it in.
    spare: Knowledge<KnobConfig>,
    /// Positions the last refresh changed: the spare lags the cache at
    /// exactly these.
    pending: Vec<usize>,
    /// This round's observations in instance order: the first
    /// `batch_len` entries. Entries past it are kept so the next round
    /// overwrites them in place.
    batch: Vec<(KnobConfig, MetricValues)>,
    batch_len: usize,
    /// This round's assignments that did not execute.
    requeues: Vec<KnobConfig>,
    /// Configurations the prune removed from this pool's exploration
    /// schedule at creation, `(infeasible, dominated)`: zero unless
    /// [`FleetConfig::analysis_prune`] is on.
    pruned: (u64, u64),
}

impl Pool {
    /// Refreshes the cached snapshot: brings the spare level with the
    /// cache, patches in the points changed since, and swaps the two.
    /// The caller then re-adopts every active instance
    /// ([`Fleet::adopt_caches`]) so none holds the new spare, and the
    /// next refresh patches it without a copy. Sequential code only.
    fn refresh_cache(&mut self) {
        // Dirty inserts are always paired with an epoch bump, so an
        // unmoved epoch means there is nothing to drain.
        if self.shared.epoch() == self.cache_epoch {
            return;
        }
        for &pos in &self.pending {
            self.spare.patch_point_from(pos, &self.cache.points()[pos]);
        }
        self.shared.dirty_positions_into(&mut self.pending);
        let (to_epoch, _) = self.shared.drain_changes_into(&mut self.spare);
        std::mem::swap(&mut self.cache, &mut self.spare);
        self.cache_epoch = to_epoch;
    }

    /// Appends one executed step to this round's batch, reusing a spare
    /// entry's storage when there is one.
    fn record(&mut self, sample: &TraceSample) {
        match self.batch.get_mut(self.batch_len) {
            Some((config, observed)) => {
                config.clone_from(&sample.config);
                observed.set_execution(sample.time_s, sample.power_w);
            }
            None => self
                .batch
                .push((sample.config.clone(), sample.observed_metrics())),
        }
        self.batch_len += 1;
    }

    /// The barrier's fold of this round: the requeued assignments
    /// rejoin the sweep, then the batch is published and its
    /// configurations count as covered, and the cache is refreshed.
    fn merge_round(&mut self) {
        // Unexecuted assignments rejoin the sweep *before* this round's
        // organic coverage is folded in: a config another instance
        // genuinely observed this round stays covered.
        for cfg in self.requeues.drain(..) {
            self.schedule.requeue(&cfg);
        }
        let batch = &self.batch[..self.batch_len];
        if !batch.is_empty() {
            self.shared
                .publish_batch(batch.iter().map(|(config, m)| (config, m)));
            self.schedule
                .mark_explored_batch(batch.iter().map(|(config, _)| config));
        }
        self.batch_len = 0;
        self.refresh_cache();
    }
}

/// One fleet member.
struct Instance {
    app: AdaptiveApplication,
    pool: usize,
    /// Last shared-knowledge epoch this instance adopted.
    epoch: u64,
    steps: u64,
    active: bool,
    /// Whether this instance was deactivated by a panic in its step
    /// (as opposed to an orderly [`Fleet::retire_instance`]).
    failed: bool,
    /// The caught panic message of a failed instance, for diagnosis
    /// ([`Fleet::failure_reason`]).
    failure: Option<String>,
    /// Whether the power arbiter installed a constraint on this
    /// instance (so budget removal only removes what the fleet added).
    arbited: bool,
}

/// Fleet membership and health counters (see [`Fleet::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetStats {
    /// Instances ever added (including retired and failed ones).
    pub instances: usize,
    /// Instances still stepping.
    pub active: usize,
    /// Instances deactivated by a panic inside their step.
    pub failed: usize,
    /// Rounds stepped so far.
    pub rounds: u64,
    /// Configurations dropped from the pools' exploration schedules as
    /// infeasible, their specialization trapping the checked VM (0
    /// unless [`FleetConfig::analysis_prune`]).
    pub schedule_pruned_infeasible: u64,
    /// Configurations skipped as Pareto-dominated on the profile's
    /// expectation (0 unless [`FleetConfig::analysis_prune`]).
    pub schedule_pruned_dominated: u64,
}

/// A fleet of adaptive-application instances stepping in synchronized
/// rounds while sharing a live knowledge base.
///
/// # Examples
///
/// ```no_run
/// use socrates::{Fleet, FleetConfig, FleetRuntime, Toolchain};
/// use margot::Rank;
/// use polybench::App;
///
/// let enhanced = Toolchain::default().enhance(App::TwoMm).unwrap();
/// let mut fleet = Fleet::new(FleetConfig::default()).unwrap();
/// fleet.spawn(&enhanced, &Rank::throughput_per_watt2(), 42, 8);
/// fleet.set_power_budget(Some(8.0 * 90.0)).unwrap();
/// fleet.run_until(60.0); // 60 virtual seconds of cooperative adaptation
/// ```
pub struct Fleet {
    config: FleetConfig,
    pools: Vec<Pool>,
    instances: Vec<Instance>,
    rounds: u64,
    /// Registered event-stream observers ([`FleetRuntime::observe`]).
    /// Only touched from sequential (barrier) code; pure consumers, so
    /// rounds stay bit-identical with or without them.
    observers: Vec<EventObserver>,
    /// Per-round storage, kept across rounds so a steady round
    /// allocates nothing.
    buffers: RoundBuffers,
}

/// The storage [`Fleet::round_with`] and its drivers fill each round.
#[derive(Default)]
struct RoundBuffers {
    /// Which instances step this round.
    due: Vec<bool>,
    /// Observer events of this round's steps, emitted after the barrier.
    step_events: Vec<FleetEvent>,
    /// `(instance, pool)` of each publishing step, for the observers.
    publishers: Vec<(usize, usize)>,
}

impl Default for Fleet {
    fn default() -> Self {
        Fleet::new(FleetConfig::default()).expect("default fleet config is valid")
    }
}

impl Fleet {
    /// An empty fleet with the given policy.
    ///
    /// # Errors
    ///
    /// Returns a runtime-stage [`SocratesError`] if the policy is
    /// invalid ([`FleetConfig::validate`]) — e.g. `knowledge_window =
    /// 0`, which would otherwise panic deep inside
    /// [`SharedKnowledge::new`] on the first spawned instance.
    pub fn new(config: FleetConfig) -> Result<Self, SocratesError> {
        config.validate()?;
        if config.distributed.is_some() {
            return Err(SocratesError::invalid_config(
                "this configuration selects the distributed mode (distributed = Some): boot \
                 it through DistributedFleet::new, which runs the knowledge exchange over \
                 the simulated transport instead of the in-process shared knowledge",
            ));
        }
        if config.schedule == Schedule::EventDriven {
            return Err(SocratesError::invalid_config(
                "this configuration selects the event-driven schedule (schedule = \
                 EventDriven): boot it through EventFleet::new, which runs the sparse \
                 discrete-event scheduler instead of synchronized lockstep rounds",
            ));
        }
        Ok(Fleet {
            config,
            pools: Vec::new(),
            instances: Vec::new(),
            rounds: 0,
            observers: Vec::new(),
            buffers: RoundBuffers::default(),
        })
    }

    /// The fleet policy.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of instances ever added (including retired ones).
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the fleet has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Number of instances still stepping.
    pub fn active_instances(&self) -> usize {
        self.instances.iter().filter(|inst| inst.active).count()
    }

    /// Number of instances deactivated by a panic inside their step.
    pub fn failed_instances(&self) -> usize {
        self.instances.iter().filter(|inst| inst.failed).count()
    }

    /// The recovered panic message of a failed instance, or `None` if
    /// the instance never failed.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn failure_reason(&self, id: usize) -> Option<String> {
        self.instances[id].failure.clone()
    }

    /// Membership and health counters in one consistent read.
    pub fn stats(&self) -> FleetStats {
        let mut active = 0;
        let mut failed = 0;
        for inst in &self.instances {
            active += usize::from(inst.active);
            failed += usize::from(inst.failed);
        }
        let (schedule_pruned_infeasible, schedule_pruned_dominated) = self
            .pools
            .iter()
            .fold((0, 0), |(i, d), p| (i + p.pruned.0, d + p.pruned.1));
        FleetStats {
            instances: self.instances.len(),
            active,
            failed,
            rounds: self.rounds,
            schedule_pruned_infeasible,
            schedule_pruned_dominated,
        }
    }

    /// Rounds stepped so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Boots one instance on a specific machine (which may differ from
    /// the profiled platform — deployment drift) and returns its id.
    /// The instance immediately adopts the pool's current shared
    /// knowledge, inheriting everything the fleet already learned.
    pub fn add_instance(&mut self, enhanced: EnhancedApp, rank: Rank, machine: Machine) -> usize {
        self.add_shared(Arc::new(enhanced), rank, machine)
    }

    /// [`add_instance`](Self::add_instance) of an app the instance
    /// shares with the rest of its spawn.
    fn add_shared(&mut self, enhanced: Arc<EnhancedApp>, rank: Rank, machine: Machine) -> usize {
        let pool = self.pool_for(&enhanced, &rank);
        let (knowledge, epoch) = if self.config.share_knowledge {
            self.pools[pool].refresh_cache();
            self.adopt_caches();
            let pool = &self.pools[pool];
            (pool.cache.clone(), pool.cache_epoch)
        } else {
            (enhanced.knowledge.clone(), 0)
        };
        let app = AdaptiveApplication::with_knowledge(enhanced, knowledge, rank, machine);
        let t_s = app.now_s();
        self.instances.push(Instance {
            app,
            pool,
            epoch,
            steps: 0,
            active: true,
            failed: false,
            failure: None,
            arbited: false,
        });
        self.rebalance_power();
        let id = self.instances.len() - 1;
        self.emit(FleetEvent::Arrived {
            id: dense_id(id),
            t_s,
        });
        id
    }

    /// Boots `count` instances of one enhanced app on machines forked
    /// from the app's own platform (independent per-instance noise
    /// streams derived from `base_seed`); returns their ids.
    pub fn spawn(
        &mut self,
        enhanced: &EnhancedApp,
        rank: &Rank,
        base_seed: u64,
        count: usize,
    ) -> Vec<usize> {
        let base = enhanced.platform.machine(base_seed);
        self.spawn_on(enhanced, rank, &base, count)
    }

    /// Boots `count` instances on forks of an explicit base machine —
    /// how experiments deploy a fleet onto drifted hardware (e.g.
    /// [`crate::Platform::hotter`]). Fork streams are offset by the
    /// current fleet size, so repeated spawns (and mixed-app fleets)
    /// never hand two instances the same noise stream.
    pub fn spawn_on(
        &mut self,
        enhanced: &EnhancedApp,
        rank: &Rank,
        base: &Machine,
        count: usize,
    ) -> Vec<usize> {
        let stream_offset = self.instances.len() as u64;
        let enhanced = Arc::new(enhanced.clone());
        (0..count)
            .map(|i| {
                self.add_shared(
                    Arc::clone(&enhanced),
                    rank.clone(),
                    base.fork(stream_offset + i as u64),
                )
            })
            .collect()
    }

    /// Retires an instance: it stops stepping and its power share is
    /// redistributed to the remaining active instances. Returns `false`
    /// if it was already retired.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn retire_instance(&mut self, id: usize) -> bool {
        let inst = &mut self.instances[id];
        if !inst.active {
            return false;
        }
        inst.active = false;
        if inst.arbited {
            inst.app
                .manager_mut()
                .asrtm_mut()
                .remove_constraints_on(&Metric::power());
            inst.arbited = false;
        }
        let t_s = inst.app.now_s();
        self.rebalance_power();
        self.emit(FleetEvent::Retired {
            id: dense_id(id),
            t_s,
        });
        true
    }

    /// Sets (or clears) the global power budget and re-splits it across
    /// the active instances.
    ///
    /// The arbiter *owns* each instance's power constraint: do not add
    /// your own constraint on [`Metric::power`] to fleet members while
    /// a budget is active.
    ///
    /// # Errors
    ///
    /// Rejects a budget that is not positive and finite, as
    /// [`FleetConfigBuilder::power_budget_w`] does, and keeps the
    /// current one.
    pub fn set_power_budget(&mut self, budget_w: Option<f64>) -> Result<(), SocratesError> {
        check_power_budget(budget_w)?;
        self.config.power_budget_w = budget_w;
        self.rebalance_power();
        Ok(())
    }

    /// Each active instance's current power allocation, watts.
    pub fn power_share_w(&self) -> Option<f64> {
        let active = self.active_instances();
        match self.config.power_budget_w {
            Some(w) if active > 0 => Some(w / active as f64),
            _ => None,
        }
    }

    /// One synchronized round over every active instance; returns the
    /// number of steps taken.
    fn step_all(&mut self) -> usize {
        let mut due = std::mem::take(&mut self.buffers.due);
        due.clear();
        due.extend(self.instances.iter().map(|inst| inst.active));
        let steps = self.round_with(&due);
        self.buffers.due = due;
        steps
    }

    /// The execution trace of instance `id` so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn trace(&self, id: usize) -> Vec<TraceSample> {
        self.instances[id].app.trace().to_vec()
    }

    /// Virtual time of instance `id`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn now_s(&self, id: usize) -> f64 {
        self.instances[id].app.now_s()
    }

    /// Total energy drawn by instance `id`, joules.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn energy_j(&self, id: usize) -> f64 {
        self.instances[id].app.energy_j()
    }

    /// Runs `f` against instance `id`'s adaptive application (e.g. to
    /// switch its rank mid-run).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn with_instance_mut<R>(
        &mut self,
        id: usize,
        f: impl FnOnce(&mut AdaptiveApplication) -> R,
    ) -> R {
        f(&mut self.instances[id].app)
    }

    /// The current merged (online) knowledge for `app`, or `None` if no
    /// instance of it was ever added. If several pools share the
    /// application (different design knowledge), the first-created
    /// pool is reported.
    pub fn learned_knowledge(&self, app: App) -> Option<Knowledge<KnobConfig>> {
        self.pools
            .iter()
            .find(|p| p.app == app)
            .map(|p| p.shared.knowledge())
    }

    /// Cuts a shippable [`KnowledgeSnapshot`] of `app`'s pool — the
    /// live shared knowledge with its epoch vector, stamped with
    /// `fingerprint` — or `None` if no instance of `app` was ever
    /// added. Persist it with [`crate::ArtifactStore::save_snapshot`]
    /// (or [`KnowledgeSnapshot::save`]) and ship it as the
    /// [`FleetConfig::warm_start`] of the next deployment.
    pub fn knowledge_snapshot(
        &self,
        app: App,
        fingerprint: SnapshotFingerprint,
    ) -> Option<KnowledgeSnapshot> {
        self.pools
            .iter()
            .find(|p| p.app == app)
            .map(|p| KnowledgeSnapshot::capture(&p.shared, fingerprint))
    }

    /// The shared-knowledge epoch for `app` (how many publishes changed
    /// an effective value), or `None` if unknown.
    pub fn knowledge_epoch(&self, app: App) -> Option<u64> {
        self.pools
            .iter()
            .find(|p| p.app == app)
            .map(|p| p.shared.epoch())
    }

    /// Online design-space coverage for `app`: `(covered, total)`
    /// operating points, or `None` if unknown.
    pub fn exploration_coverage(&self, app: App) -> Option<(usize, usize)> {
        self.pools.iter().find(|p| p.app == app).map(|p| {
            (
                p.schedule.total() - p.schedule.remaining(),
                p.schedule.total(),
            )
        })
    }

    /// Finds (or creates) the shared pool for an enhanced app. Pools
    /// are keyed by application *and* design knowledge, so instances
    /// enhanced by different toolchain configurations never cross-feed
    /// incompatible operating points.
    fn pool_for(&mut self, enhanced: &EnhancedApp, rank: &Rank) -> usize {
        if let Some(i) = self
            .pools
            .iter()
            .position(|p| p.app == enhanced.app && p.design == enhanced.knowledge)
        {
            return i;
        }
        let PoolBoot {
            shared,
            seeded: mut cache,
            schedule,
            burst,
            pruned,
        } = boot_pool(&self.config, enhanced, rank);
        cache.rank_by(rank);
        self.pools.push(Pool {
            app: enhanced.app,
            design: enhanced.knowledge.clone(),
            shared,
            schedule,
            burst,
            cache_epoch: 0,
            spare: cache.clone(),
            cache,
            pending: Vec::new(),
            batch: Vec::new(),
            batch_len: 0,
            requeues: Vec::new(),
            pruned,
        });
        self.pools.len() - 1
    }

    /// Splits the global budget evenly across active instances.
    fn rebalance_power(&mut self) {
        let active = self.active_instances();
        let share = match self.config.power_budget_w {
            Some(w) if active > 0 => Some(w / active as f64),
            _ => None,
        };
        for inst in &mut self.instances {
            if !inst.active {
                continue;
            }
            match share {
                Some(per_instance) => {
                    if inst.arbited {
                        inst.app
                            .manager_mut()
                            .asrtm_mut()
                            .set_constraint_value(&Metric::power(), per_instance);
                    } else {
                        inst.app.add_constraint(Constraint::new(
                            Metric::power(),
                            Cmp::LessOrEqual,
                            per_instance,
                            FLEET_POWER_PRIORITY,
                        ));
                        inst.arbited = true;
                    }
                }
                None => {
                    if inst.arbited {
                        inst.app
                            .manager_mut()
                            .asrtm_mut()
                            .remove_constraints_on(&Metric::power());
                        inst.arbited = false;
                    }
                }
            }
        }
    }

    /// One round over the instances marked due, in instance order: each
    /// is assigned its exploration slot, steps on the pool cache it
    /// adopted at the previous barrier, and adds its observation to its
    /// pool's batch. The barrier then merges each pool's batch — the
    /// determinism contract — refreshes each pool's cache, and every
    /// active instance adopts it.
    fn round_with(&mut self, due: &[bool]) -> usize {
        assert_eq!(due.len(), self.instances.len());
        let share = self.config.share_knowledge;
        let mut steps = 0;
        let mut any_failed = false;
        // Event emission is observer-only bookkeeping: nothing below
        // reads these, so rounds stay bit-identical without observers.
        let observing = !self.observers.is_empty();
        let mut step_events = std::mem::take(&mut self.buffers.step_events);
        let mut publishers = std::mem::take(&mut self.buffers.publishers);
        for (id, inst) in self.instances.iter_mut().enumerate() {
            if !due[id] || !inst.active {
                continue;
            }
            let pool = &mut self.pools[inst.pool];
            // Warm-boot validation outranks the interval: while the
            // snapshot head's burst queue is non-empty, every step is a
            // forced re-validation sample. The queue is a few hundred
            // entries fleet-wide, so this window is over in the first
            // seconds of the run.
            let assigned = match pool.burst.pop_front() {
                Some(cfg) => Some(cfg),
                None if self.config.sweeps_at(inst.steps) => pool.schedule.next_unexplored(),
                None => None,
            };
            // Every active instance adopted the cache at the last
            // barrier or at its boot (`adopt_caches`).
            debug_assert!(!share || pool.cache_epoch == inst.epoch);
            // One instance's panic must not take the fleet down: catch
            // it and deactivate the instance; survivors keep stepping.
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                // A stale assignment (e.g. a configuration with no
                // compiled version after a knowledge refresh) falls back
                // to a normal AS-RTM step instead of aborting.
                match assigned.clone().map(|cfg| inst.app.step_forced(cfg)) {
                    Some(Ok(sample)) => (sample, true),
                    _ => (inst.app.step(), false),
                }
            }));
            let sample = match stepped {
                Ok((sample, executed)) => {
                    if !executed {
                        // The barrier returns an unexecuted assignment
                        // to the sweep, so coverage is not
                        // over-reported.
                        pool.requeues.extend(assigned);
                    }
                    sample
                }
                Err(payload) => {
                    // Keep the panic message: an operator seeing a
                    // failed instance in the stats needs to know why it
                    // died (this also preserves evidence should the
                    // panic be a fleet bug rather than an instance bug).
                    let reason = payload
                        .downcast_ref::<&'static str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    inst.active = false;
                    inst.failed = true;
                    inst.failure = Some(reason);
                    // An assignment the panicking step never consumed
                    // goes back to the sweep at the barrier.
                    pool.requeues.extend(assigned);
                    any_failed = true;
                    continue;
                }
            };
            inst.steps += 1;
            steps += 1;
            if observing {
                step_events.push(FleetEvent::Stepped {
                    id: dense_id(id),
                    t_start_s: sample.t_start_s,
                    time_s: sample.time_s,
                    power_w: sample.power_w,
                    forced: sample.forced,
                });
                if share {
                    publishers.push((id, inst.pool));
                }
            }
            if share {
                pool.record(&sample);
            }
        }

        // The barrier: merge each pool's batch in instance order, then
        // refresh each pool's cache incrementally from the changed
        // points, and hand it to every active instance.
        if share {
            for pool in &mut self.pools {
                pool.merge_round();
            }
            self.adopt_caches();
        }
        if any_failed {
            // Failed instances leave the fleet like retirees: the
            // survivors inherit their power share.
            self.rebalance_power();
        }
        self.rounds += 1;
        if observing {
            // Steps first (instance order), then the round's publishes
            // with each pool's post-batch epoch — the order state
            // actually changed in.
            for event in step_events.drain(..) {
                self.emit(event);
            }
            for (id, pool) in publishers.drain(..) {
                let t_s = self.instances[id].app.now_s();
                let epoch = self.pools[pool].shared.epoch();
                self.emit(FleetEvent::Published {
                    id: dense_id(id),
                    t_s,
                    epoch,
                });
            }
        }
        self.buffers.step_events = step_events;
        self.buffers.publishers = publishers;
        steps
    }

    /// Every active instance whose pool cache moved adopts it: a
    /// reference-count bump, the rank index already attached. Run
    /// after each cache refresh, so no active instance holds a pool's
    /// spare. Adopting at the barrier instead of before the next step
    /// changes nothing an instance computes: it ends on the same
    /// knowledge with the same refreshed current point.
    fn adopt_caches(&mut self) {
        for inst in self.instances.iter_mut().filter(|inst| inst.active) {
            let pool = &self.pools[inst.pool];
            if pool.cache_epoch != inst.epoch {
                inst.app.set_knowledge(pool.cache.clone());
                inst.epoch = pool.cache_epoch;
            }
        }
    }

    /// Delivers one event to every registered observer, in
    /// registration order. Sequential code only.
    fn emit(&mut self, event: FleetEvent) {
        for observer in &mut self.observers {
            observer(&event);
        }
    }
}

/// A dense lockstep index as a never-reused handle: dense runtimes
/// never reuse an index, so generation 0 is faithful.
pub(crate) fn dense_id(id: usize) -> InstanceId {
    InstanceId::new(u32::try_from(id).expect("dense fleet ids fit in u32"), 0)
}

impl FleetRuntime for Fleet {
    /// Rounds until every active instance's own virtual clock has
    /// reached the absolute time `t_s`; one scheduler event is one
    /// synchronized round.
    fn run_until(&mut self, t_s: f64) -> u64 {
        let mut rounds = 0;
        let mut due = std::mem::take(&mut self.buffers.due);
        loop {
            due.clear();
            due.extend(
                self.instances
                    .iter()
                    .map(|inst| inst.active && inst.app.now_s() < t_s),
            );
            if !due.iter().any(|&d| d) {
                self.buffers.due = due;
                return rounds;
            }
            self.round_with(&due);
            rounds += 1;
        }
    }

    /// Runs `n` synchronized rounds (stopping early once no instance
    /// is active); returns the rounds run.
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

    /// The furthest virtual clock any instance has reached (instances
    /// advance at their own speed inside a round).
    fn virtual_now_s(&self) -> f64 {
        self.instances
            .iter()
            .map(|inst| inst.app.now_s())
            .fold(0.0, f64::max)
    }

    fn active_count(&self) -> usize {
        self.active_instances()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::trace_digest;
    use crate::toolchain::Toolchain;
    use polybench::Dataset;

    fn quick_enhanced(app: App) -> EnhancedApp {
        Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        }
        .enhance(app)
        .unwrap()
    }

    fn rank() -> Rank {
        Rank::throughput_per_watt2()
    }

    fn fleet_with(config: FleetConfig) -> Fleet {
        Fleet::new(config).expect("valid fleet config")
    }

    /// Order-sensitive content digest of a knowledge base.
    fn knowledge_digest(k: &Knowledge<KnobConfig>) -> u64 {
        margot::shard_content_hash(k.points().iter().enumerate())
    }

    fn trace_digests(fleet: &Fleet) -> Vec<u64> {
        (0..fleet.len())
            .map(|id| trace_digest(&fleet.trace(id)))
            .collect()
    }

    #[test]
    fn spawn_boots_instances_with_independent_noise() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        let ids = fleet.spawn(&enhanced, &rank(), 7, 3);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(fleet.active_instances(), 3);
        fleet.step_all();
        let t0 = fleet.trace(0)[0].time_s;
        let t1 = fleet.trace(1)[0].time_s;
        assert_ne!(t0, t1, "forked machines must see distinct noise");
    }

    #[test]
    fn observations_propagate_through_shared_knowledge() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        assert_eq!(fleet.knowledge_epoch(App::TwoMm), Some(0));
        let steps = fleet.step_all();
        assert_eq!(steps, 2);
        assert_eq!(fleet.knowledge_epoch(App::TwoMm), Some(2));
        let learned = fleet.learned_knowledge(App::TwoMm).unwrap();
        assert_ne!(
            learned, enhanced.knowledge,
            "merged observations must refresh expectations"
        );
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        let zero_window = Fleet::new(FleetConfig {
            knowledge_window: 0,
            ..FleetConfig::default()
        });
        let err = zero_window.err().expect("zero window must be rejected");
        assert_eq!(err.stage(), crate::error::StageId::Runtime);
        assert!(err.to_string().contains("knowledge_window"), "{err}");

        let zero_min_obs = Fleet::new(FleetConfig {
            min_observations: 0,
            ..FleetConfig::default()
        });
        let err = zero_min_obs
            .err()
            .expect("zero min_observations must be rejected, not clamped");
        assert!(err.to_string().contains("min_observations"), "{err}");

        let zero_shards = Fleet::new(FleetConfig {
            knowledge_shards: 0,
            ..FleetConfig::default()
        });
        let err = zero_shards.err().expect("zero shards must be rejected");
        assert!(err.to_string().contains("knowledge_shards"), "{err}");

        let bad_budget = Fleet::new(FleetConfig {
            power_budget_w: Some(-3.0),
            ..FleetConfig::default()
        });
        let err = bad_budget.err().expect("negative budget must be rejected");
        assert!(err.to_string().contains("power_budget_w"), "{err}");
    }

    #[test]
    fn the_builder_rejects_every_invalid_knob_at_its_setter() {
        // Field errors surface at the setter that introduced them, with
        // the same diagnostics the struct-literal path raises at boot.
        let err = FleetConfig::builder().knowledge_window(0).err().unwrap();
        assert!(err.to_string().contains("knowledge_window"), "{err}");

        let err = FleetConfig::builder().min_observations(0).err().unwrap();
        assert!(err.to_string().contains("min_observations"), "{err}");

        let err = FleetConfig::builder().knowledge_shards(0).err().unwrap();
        assert!(err.to_string().contains("knowledge_shards"), "{err}");

        for bad in [-3.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = FleetConfig::builder()
                .power_budget_w(Some(bad))
                .err()
                .unwrap();
            assert!(err.to_string().contains("power_budget_w"), "{bad}: {err}");
        }

        let empty = crate::snapshot::KnowledgeSnapshot {
            fingerprint: crate::snapshot::SnapshotFingerprint::new("twomm", "Medium", 0),
            epoch: 0,
            shard_epochs: Vec::new(),
            knowledge: Knowledge::new(),
        };
        let err = FleetConfig::builder()
            .warm_start(Some(empty))
            .err()
            .unwrap();
        assert!(err.to_string().contains("warm_start"), "{err}");

        let bad_dist = crate::transport::DistributedConfig {
            sync_interval: 0,
            ..Default::default()
        };
        let err = FleetConfig::builder()
            .distributed(Some(bad_dist))
            .err()
            .unwrap();
        assert!(err.to_string().contains("sync_interval"), "{err}");

        // The cross-field rule only triggers at build().
        let err = FleetConfig::builder()
            .schedule(Schedule::EventDriven)
            .distributed(Some(crate::transport::DistributedConfig::default()))
            .unwrap()
            .build()
            .expect_err("EventDriven + distributed must fail at build()");
        assert!(err.to_string().contains("EventDriven"), "{err}");

        // A fully-valid chain builds, and every knob landed.
        let config = FleetConfig::builder()
            .share_knowledge(false)
            .exploration_interval(7)
            .knowledge_window(16)
            .unwrap()
            .min_observations(2)
            .unwrap()
            .knowledge_shards(4)
            .unwrap()
            .power_budget_w(Some(400.0))
            .unwrap()
            .analysis_prune(true)
            .schedule(Schedule::EventDriven)
            .build()
            .unwrap();
        assert!(!config.share_knowledge);
        assert_eq!(config.exploration_interval, 7);
        assert_eq!(config.knowledge_window, 16);
        assert_eq!(config.min_observations, 2);
        assert_eq!(config.knowledge_shards, 4);
        assert_eq!(config.power_budget_w, Some(400.0));
        assert!(config.analysis_prune);
        assert_eq!(config.schedule, Schedule::EventDriven);

        // The struct-literal compatibility shim still boots the same
        // fleet the builder output would.
        let literal = FleetConfig {
            knowledge_window: 16,
            ..FleetConfig::default()
        };
        assert!(Fleet::new(literal).is_ok());
    }

    #[test]
    fn the_runtime_surface_matches_the_legacy_round_loop() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 7, 3);
        // From a fresh boot run_until(t) is the retired run_for(t) round
        // sequence, bit for bit: rounds, traces and learned knowledge
        // are pinned to that loop's output.
        let rounds = fleet.run_until(2.0);
        assert_eq!(rounds, 69);
        assert_eq!(fleet.rounds(), 69);
        assert!(fleet.virtual_now_s() >= 2.0);
        assert_eq!(fleet.active_count(), 3);
        assert_eq!(
            trace_digests(&fleet),
            [
                0xff57_2268_8d28_bdd1,
                0x2816_33c2_866b_2bbc,
                0xe31e_e492_c22a_44a8
            ]
        );
        assert_eq!(
            knowledge_digest(&fleet.learned_knowledge(App::TwoMm).unwrap()),
            0x8394_cfde_0ae7_c963
        );
        // run_events(n) is n synchronized rounds.
        assert_eq!(fleet.run_events(2), 2);
        assert_eq!(fleet.rounds(), 71);
    }

    #[test]
    fn observers_see_lockstep_rounds_without_perturbing_them() {
        use crate::events::FleetEvent;
        use std::sync::{Arc, Mutex};
        let enhanced = quick_enhanced(App::TwoMm);
        let run = |observe: bool| {
            let mut fleet = fleet_with(FleetConfig::default());
            let seen = Arc::new(Mutex::new(Vec::new()));
            if observe {
                let sink = Arc::clone(&seen);
                fleet.observe(Box::new(move |e: &FleetEvent| {
                    sink.lock().unwrap().push(e.clone());
                }));
            }
            fleet.spawn(&enhanced, &rank(), 5, 2);
            fleet.run_events(3);
            fleet.retire_instance(1);
            let traces: Vec<_> = (0..2).map(|id| fleet.trace(id).to_vec()).collect();
            drop(fleet);
            let events = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
            (traces, events)
        };
        let (plain, none) = run(false);
        let (observed, events) = run(true);
        assert!(none.is_empty());
        assert_eq!(plain, observed, "observers must not perturb the rounds");
        let arrived: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                FleetEvent::Arrived { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(arrived, vec![dense_id(0), dense_id(1)]);
        let stepped = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Stepped { .. }))
            .count();
        assert_eq!(stepped, 6, "2 instances x 3 rounds");
        let published = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::Published { .. }))
            .count();
        assert_eq!(published, 6, "knowledge sharing publishes every step");
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Retired { id, .. } if *id == dense_id(1))));
        // Within one round, all Published events report the same
        // post-batch epoch (the barrier merges the round as one batch).
        let epochs: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                FleetEvent::Published { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        for round in epochs.chunks(2) {
            assert_eq!(round[0], round[1], "one batch per round");
        }
    }

    #[test]
    fn a_panicking_instance_is_deactivated_not_fatal() {
        let enhanced = quick_enhanced(App::TwoMm);
        // Knowledge sharing off, so no barrier hands the instance a
        // pool cache in place of the emptied knowledge.
        let mut fleet = fleet_with(FleetConfig {
            share_knowledge: false,
            ..FleetConfig::default()
        });
        fleet.spawn(&enhanced, &rank(), 3, 3);
        fleet.set_power_budget(Some(300.0)).unwrap();
        assert_eq!(fleet.power_share_w(), Some(100.0));
        fleet.step_all();
        // Emptying the knowledge makes the next plan step panic inside
        // the MAPE-K loop ("toolchain produced non-empty knowledge") —
        // a deterministic stand-in for any instance-level bug.
        fleet.with_instance_mut(0, |app| app.set_knowledge(Knowledge::new()));
        let steps = fleet.step_all();
        assert_eq!(steps, 2, "the two healthy instances keep stepping");
        let stats = fleet.stats();
        assert_eq!(stats.instances, 3);
        assert_eq!(stats.active, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(fleet.failed_instances(), 1);
        // The recovered panic message is kept for diagnosis.
        let reason = fleet.failure_reason(0).expect("failure recorded");
        assert!(reason.contains("non-empty knowledge"), "{reason}");
        assert_eq!(fleet.failure_reason(1), None);
        // The failed instance's power share went back into the pot.
        assert_eq!(fleet.power_share_w(), Some(150.0));
        // The fleet keeps running; the failed instance's trace is
        // frozen but still readable.
        let frozen = fleet.trace(0).len();
        fleet.run_until(fleet.virtual_now_s() + 0.5);
        assert_eq!(fleet.trace(0).len(), frozen);
        assert!(fleet.trace(1).len() > 1);
    }

    #[test]
    fn stale_exploration_assignment_falls_back_to_a_planned_step() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig {
            exploration_interval: 1, // every step explores
            ..FleetConfig::default()
        });
        // A doctored twin: same app and design knowledge (so it joins
        // the same pool and the same exploration schedule) but its
        // version table lost the second enumeration entry — the config
        // the schedule will assign to instance 1 in round one has no
        // compiled version, exactly the shape of a stale assignment.
        let mut doctored = enhanced.clone();
        let missing = enhanced.knowledge.points()[1].config.clone();
        doctored
            .versions
            .retain(|(co, bp)| !(*co == missing.co && *bp == missing.bp));
        assert!(doctored.try_version_of(&missing).is_err());
        fleet.add_instance(enhanced.clone(), rank(), enhanced.platform.machine(1));
        fleet.add_instance(doctored, rank(), enhanced.platform.machine(2));
        let steps = fleet.step_all();
        assert_eq!(steps, 2, "the stale assignment must not panic");
        let trace = fleet.trace(1);
        assert_eq!(trace.len(), 1);
        assert!(
            !trace[0].forced,
            "the fallback is a normal AS-RTM step, not the stale exploration"
        );
        assert_eq!(fleet.failed_instances(), 0);
        // The unexecuted config went back into the sweep: coverage
        // counts only what was actually observed (instance 0's forced
        // config + the two organic fallback/planned selections), and
        // the requeued config stays available for a later retry at the
        // back of the enumeration order (it is never starved out nor
        // over-reported).
        let (covered, total) = fleet.exploration_coverage(App::TwoMm).unwrap();
        assert!(covered <= 3, "unexecuted assignment counted as covered");
        assert!(covered < total);
    }

    #[test]
    fn empty_observations_do_not_spin_the_epoch() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.step_all();
        let epoch = fleet.knowledge_epoch(App::TwoMm).unwrap();
        // Publishing an empty bundle directly against the pool's shared
        // knowledge is accepted but changes nothing — no epoch bump,
        // so no fleet-wide snapshot adoption is triggered.
        let learned = fleet.learned_knowledge(App::TwoMm).unwrap();
        let pool = &fleet.pools[0];
        let config = learned.points()[0].config.clone();
        assert!(pool.shared.publish(&config, &MetricValues::new()));
        assert_eq!(fleet.knowledge_epoch(App::TwoMm), Some(epoch));
    }

    #[test]
    fn incremental_and_full_refresh_agree() {
        let enhanced = quick_enhanced(App::TwoMm);
        let run = |knowledge_shards: usize| {
            let mut fleet = fleet_with(FleetConfig {
                knowledge_shards,
                ..FleetConfig::default()
            });
            fleet.spawn(&enhanced, &rank(), 3, 4);
            fleet.run_until(2.0);
            // The incrementally patched pool cache is the full
            // effective-knowledge rebuild.
            let pool = &fleet.pools[0];
            assert_eq!(
                pool.shared.snapshot(),
                (pool.cache_epoch, pool.cache.clone())
            );
            (
                trace_digests(&fleet),
                knowledge_digest(&fleet.learned_knowledge(App::TwoMm).unwrap()),
                fleet.knowledge_epoch(App::TwoMm).unwrap(),
            )
        };
        // Pinned to the retired single-shard, full-rebuild reference.
        let reference = (
            vec![
                0xeca5_39aa_cba3_5513,
                0x99ef_6e21_95a1_aad6,
                0x0a59_eb9c_2a5b_c342,
                0xa0fb_d3ed_78b7_e76d,
            ],
            0xaf98_0978_ffb4_c2fb,
            267,
        );
        assert_eq!(run(margot::DEFAULT_SHARDS), reference);
        assert_eq!(run(1), reference);
    }

    #[test]
    fn steady_barriers_patch_the_spare_in_place_and_instances_share_it() {
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&quick_enhanced(App::TwoMm), &rank(), 7, 4);
        // The first barriers copy the buffers the pool was created
        // sharing; from then on, neither is ever copied.
        for _ in 0..3 {
            fleet.step_all();
        }
        let storage = |k: &Knowledge<KnobConfig>| {
            let index = k.rank_index().map(|i| i as *const margot::RankIndex);
            (k.points().as_ptr(), index)
        };
        let mut swaps = 0;
        for _ in 0..6 {
            let pool = &fleet.pools[0];
            let (epoch, cache, spare) =
                (pool.cache_epoch, storage(&pool.cache), storage(&pool.spare));
            assert!(cache.1.is_some(), "the cache carries the rank index");
            fleet.step_all();
            let pool = &fleet.pools[0];
            if pool.cache_epoch != epoch {
                swaps += 1;
                assert_eq!(storage(&pool.cache), spare, "patched in place, swapped in");
                assert_eq!(storage(&pool.spare), cache);
            }
            for inst in &fleet.instances {
                let held = inst.app.manager().asrtm().knowledge();
                assert_eq!(
                    storage(held),
                    storage(&pool.cache),
                    "adopted at the barrier"
                );
            }
        }
        assert!(swaps > 0, "the rounds moved the knowledge");
    }

    #[test]
    fn an_instance_under_another_rank_adopts_the_pool_index_and_scans() {
        // Pools are keyed by app and design, not by rank: the cache
        // carries the first instance's rank index, and an instance
        // under another rank adopts it as is instead of rebuilding it.
        let enhanced = quick_enhanced(App::TwoMm);
        let other = Rank::minimize(Metric::exec_time());
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 7, 2);
        fleet.spawn(&enhanced, &other, 8, 2);
        assert_eq!(fleet.pools.len(), 1);
        // Joiners index their boot knowledge under their own rank;
        // the first refresh hands every instance the pool's cache.
        let boot = fleet.pools[0].cache_epoch;
        for _ in 0..10 {
            if fleet.pools[0].cache_epoch != boot {
                break;
            }
            fleet.step_all();
        }
        assert_ne!(fleet.pools[0].cache_epoch, boot, "the knowledge moved");
        for _ in 0..6 {
            fleet.step_all();
            let index = fleet.pools[0].cache.rank_index().expect("indexed cache");
            assert_eq!(index.rank(), &rank());
            for inst in &fleet.instances {
                let asrtm = inst.app.manager().asrtm();
                let held = asrtm.knowledge().rank_index().expect("adopted index");
                assert!(std::ptr::eq(held, index), "adopted, not rebuilt");
                // A constraint no point violates forces the scan.
                let mut scan = asrtm.clone();
                scan.add_constraint(Constraint::new(
                    Metric::power(),
                    Cmp::LessOrEqual,
                    f64::INFINITY,
                    0,
                ));
                assert_eq!(
                    asrtm.best().map(|p| &p.config),
                    scan.best().map(|p| &p.config)
                );
            }
        }
    }

    #[test]
    fn frozen_fleet_never_touches_the_shared_knowledge() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig {
            share_knowledge: false,
            ..FleetConfig::default()
        });
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.run_until(1.0);
        assert_eq!(fleet.knowledge_epoch(App::TwoMm), Some(0));
        assert_eq!(
            fleet.learned_knowledge(App::TwoMm).unwrap(),
            enhanced.knowledge
        );
    }

    #[test]
    fn cooperative_exploration_covers_distinct_configs() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig {
            exploration_interval: 1, // every step explores
            ..FleetConfig::default()
        });
        fleet.spawn(&enhanced, &rank(), 3, 4);
        let total = enhanced.knowledge.len();
        for _ in 0..8 {
            fleet.step_all();
        }
        let (covered, t) = fleet.exploration_coverage(App::TwoMm).unwrap();
        assert_eq!(t, total);
        // 4 instances × 8 exploration rounds = 32 distinct configs.
        assert_eq!(covered, 32, "the sweep must not revisit configs");
    }

    #[test]
    fn power_budget_splits_and_rebalances_on_membership_changes() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 4);
        fleet.set_power_budget(Some(400.0)).unwrap();
        assert_eq!(fleet.power_share_w(), Some(100.0));
        assert!(fleet.retire_instance(3));
        assert!(!fleet.retire_instance(3), "already retired");
        let share = fleet.power_share_w().unwrap();
        assert!((share - 400.0 / 3.0).abs() < 1e-9, "{share}");
        // A joining instance shrinks everyone's slice.
        let machine = enhanced.platform.machine(99);
        fleet.add_instance(enhanced.clone(), rank(), machine);
        assert_eq!(fleet.power_share_w(), Some(100.0));
        fleet.set_power_budget(None).unwrap();
        assert_eq!(fleet.power_share_w(), None);
    }

    #[test]
    fn a_bad_power_budget_is_an_error_and_keeps_the_current_one() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.set_power_budget(Some(200.0)).unwrap();
        for bad in [-3.0, 0.0, f64::NAN, f64::INFINITY] {
            let err = fleet.set_power_budget(Some(bad)).unwrap_err();
            assert!(
                matches!(err, SocratesError::InvalidConfig { .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("power_budget_w"), "{bad}: {err}");
            assert_eq!(fleet.power_share_w(), Some(100.0));
        }
    }

    #[test]
    fn power_budget_constrains_selected_points() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig {
            exploration_interval: 0, // pure AS-RTM selection
            ..FleetConfig::default()
        });
        fleet.spawn(&enhanced, &Rank::minimize(Metric::exec_time()), 3, 2);
        // 2 instances × 70 W each: the unconstrained pick draws >100 W.
        fleet.set_power_budget(Some(140.0)).unwrap();
        fleet.run_until(3.0);
        for id in 0..2 {
            for s in fleet.trace(id) {
                assert!(
                    s.power_w < 70.0 * 1.2,
                    "instance {id} draws {:.1} W over its 70 W share",
                    s.power_w
                );
            }
        }
    }

    #[test]
    fn retired_instances_stop_stepping() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.step_all();
        fleet.retire_instance(0);
        let frozen_len = fleet.trace(0).len();
        assert_eq!(fleet.step_all(), 1, "only instance 1 steps");
        assert_eq!(fleet.trace(0).len(), frozen_len);
        assert_eq!(fleet.active_instances(), 1);
        // An orderly retirement is not a failure.
        assert_eq!(fleet.failed_instances(), 0);
    }

    #[test]
    fn late_joiners_inherit_the_learned_knowledge() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.run_until(2.0);
        let learned = fleet.learned_knowledge(App::TwoMm).unwrap();
        let machine = enhanced.platform.machine(123);
        let id = fleet.add_instance(enhanced.clone(), rank(), machine);
        let adopted = fleet.with_instance_mut(id, |app| app.manager().asrtm().knowledge().clone());
        assert_eq!(adopted, learned);
    }

    #[test]
    fn analysis_prune_shrinks_the_exploration_schedule_only() {
        let enhanced = quick_enhanced(App::Mvt);
        let mut fleet = fleet_with(FleetConfig {
            analysis_prune: true,
            ..FleetConfig::default()
        });
        fleet.spawn(&enhanced, &rank(), 5, 2);
        let stats = fleet.stats();
        assert_eq!(
            stats.schedule_pruned_infeasible, 0,
            "all polybench specializations are statically safe"
        );
        assert!(
            stats.schedule_pruned_dominated > 0,
            "a full-factorial space has statically dominated points"
        );
        let (_, total) = fleet.exploration_coverage(App::Mvt).unwrap();
        assert_eq!(
            total as u64 + stats.schedule_pruned_dominated,
            enhanced.knowledge.len() as u64,
            "schedule + pruned must account for the whole design space"
        );
        // Pruning never touches the shared knowledge: every design-time
        // point stays selectable by the AS-RTM.
        let learned = fleet.learned_knowledge(App::Mvt).unwrap();
        assert_eq!(learned.len(), enhanced.knowledge.len());
        // And the pruned fleet still steps normally.
        assert_eq!(fleet.step_all(), 2);

        // The default configuration prunes nothing.
        let mut plain = fleet_with(FleetConfig::default());
        plain.spawn(&enhanced, &rank(), 5, 1);
        let plain_stats = plain.stats();
        assert_eq!(plain_stats.schedule_pruned_dominated, 0);
        assert_eq!(plain_stats.schedule_pruned_infeasible, 0);
        let (_, plain_total) = plain.exploration_coverage(App::Mvt).unwrap();
        assert_eq!(plain_total, enhanced.knowledge.len());
    }

    #[test]
    fn mixed_app_fleet_keeps_separate_pools() {
        let twomm = quick_enhanced(App::TwoMm);
        let mvt = quick_enhanced(App::Mvt);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&twomm, &rank(), 3, 2);
        fleet.spawn(&mvt, &rank(), 3, 2);
        fleet.run_until(1.0);
        let k2 = fleet.learned_knowledge(App::TwoMm).unwrap();
        let km = fleet.learned_knowledge(App::Mvt).unwrap();
        assert_ne!(k2, km);
        assert!(fleet.knowledge_epoch(App::TwoMm).unwrap() > 0);
        assert!(fleet.knowledge_epoch(App::Mvt).unwrap() > 0);
    }

    #[test]
    fn warm_started_pools_adopt_the_shipped_snapshot() {
        let enhanced = quick_enhanced(App::TwoMm);
        // A donor fleet learns for a while, then cuts a snapshot.
        let mut donor = fleet_with(FleetConfig::default());
        donor.spawn(&enhanced, &rank(), 3, 2);
        donor.run_until(2.0);
        let fingerprint = SnapshotFingerprint::new(App::TwoMm.name(), "Medium", 0);
        let snapshot = donor
            .knowledge_snapshot(App::TwoMm, fingerprint)
            .expect("donor has a TwoMm pool");
        assert!(!snapshot.knowledge.is_empty());
        assert_ne!(snapshot.knowledge, enhanced.knowledge);

        // A warm fleet boots every joiner from the shipped state.
        let mut warm = fleet_with(FleetConfig {
            warm_start: Some(snapshot.clone()),
            ..FleetConfig::default()
        });
        let id = warm.spawn(&enhanced, &rank(), 7, 1)[0];
        let expected = snapshot.apply_to_design(&enhanced.knowledge);
        // The effective knowledge (and the cache the joiner adopts)
        // reads back the seeded observation rings, whose window mean
        // of n identical samples can differ from the shipped value in
        // the last ulp — compare values to within float-summation
        // rounding, configs exactly.
        let assert_shipped = |got: &Knowledge<KnobConfig>, what: &str| {
            for (l, e) in got.points().iter().zip(expected.points().iter()) {
                assert_eq!(l.config, e.config, "{what}");
                for (metric, want) in e.metrics.iter() {
                    let got = l.metric(metric).expect("seeded metric present");
                    assert!(
                        (got - want).abs() <= want.abs() * 1e-12,
                        "{what}: {metric} of {:?}: {got} vs shipped {want}",
                        l.config
                    );
                }
            }
        };
        assert_shipped(&warm.learned_knowledge(App::TwoMm).unwrap(), "pool");
        let adopted = warm.with_instance_mut(id, |app| app.manager().asrtm().knowledge().clone());
        assert_shipped(&adopted, "the joiner's warm cache");
        // The warm pool keeps learning on top of the seed.
        warm.step_all();
        assert!(warm.knowledge_epoch(App::TwoMm).unwrap() > 0);
    }

    #[test]
    fn foreign_snapshots_merge_values_but_seed_no_observations() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut donor = fleet_with(FleetConfig::default());
        donor.spawn(&enhanced, &rank(), 3, 2);
        donor.run_until(2.0);
        let snapshot = donor
            .knowledge_snapshot(
                App::TwoMm,
                SnapshotFingerprint::new(App::TwoMm.name(), "M", 0),
            )
            .expect("donor has a TwoMm pool");
        let config = FleetConfig {
            warm_start: Some(snapshot.clone()),
            ..FleetConfig::default()
        };
        // Same app: the full ring seed. Any other app: the snapshot
        // is a hint — values merge, but the rings stay empty so real
        // samples displace the guesses outright.
        assert_eq!(
            config.warm_seed_copies_for(App::TwoMm),
            config.warm_seed_copies()
        );
        assert!(config.warm_seed_copies() > 0);
        assert_eq!(config.warm_seed_copies_for(App::ThreeMm), 0);
        assert_eq!(FleetConfig::default().warm_seed_copies_for(App::TwoMm), 0);

        // A ThreeMm fleet warm-started from the TwoMm snapshot still
        // adopts the merged values at boot (the hint is visible)...
        let foreign = quick_enhanced(App::ThreeMm);
        let mut warm = fleet_with(config);
        let id = warm.spawn(&foreign, &rank(), 7, 1)[0];
        let merged = snapshot.apply_to_design(&foreign.knowledge);
        assert_eq!(warm.learned_knowledge(App::ThreeMm).unwrap(), merged);
        // ...but one real observation of a config fully replaces the
        // foreign guess instead of averaging against a seeded window.
        warm.step_all();
        let after = warm.learned_knowledge(App::ThreeMm).unwrap();
        let sampled = warm
            .with_instance_mut(id, |app| app.trace().last().map(|s| s.config.clone()))
            .expect("the instance sampled a config");
        let live = after
            .points()
            .iter()
            .find(|p| p.config == sampled)
            .expect("sampled config is in the design");
        let hint = merged
            .points()
            .iter()
            .find(|p| p.config == sampled)
            .expect("sampled config was hinted");
        assert_ne!(
            live.metrics, hint.metrics,
            "a real sample must displace the foreign hint outright"
        );
    }

    #[test]
    fn empty_warm_start_snapshots_are_rejected() {
        use crate::snapshot::KnowledgeSnapshot;
        let empty = KnowledgeSnapshot {
            fingerprint: SnapshotFingerprint::new("twomm", "Medium", 0),
            epoch: 0,
            shard_epochs: vec![0; margot::DEFAULT_SHARDS],
            knowledge: Knowledge::new(),
        };
        let err = Fleet::new(FleetConfig {
            warm_start: Some(empty),
            ..FleetConfig::default()
        })
        .err()
        .expect("empty warm-start snapshot must be rejected");
        assert!(err.to_string().contains("warm_start"), "{err}");
    }

    #[test]
    fn persist_learned_round_trips_through_knowledge_io() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = fleet_with(FleetConfig::default());
        fleet.spawn(&enhanced, &rank(), 3, 2);
        fleet.run_until(1.0);
        let snapshot = fleet
            .knowledge_snapshot(App::TwoMm, SnapshotFingerprint::new("2mm", "Medium", 0))
            .unwrap();
        let path = std::env::temp_dir().join(format!("socrates-fleet-{}.bin", std::process::id()));
        snapshot.save(&path).unwrap();
        let loaded = KnowledgeSnapshot::load(&path).unwrap();
        assert_eq!(loaded, snapshot);
        assert_eq!(
            loaded.knowledge,
            fleet.learned_knowledge(App::TwoMm).unwrap()
        );
        std::fs::remove_file(&path).ok();
    }
}
