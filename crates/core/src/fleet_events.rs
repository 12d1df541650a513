//! The sparse discrete-event fleet runtime
//! ([`Schedule::EventDriven`]).
//!
//! The lockstep [`crate::Fleet`] forces every instance through a
//! synchronized round with a sequential merge barrier — faithful to
//! the paper's online loop, but the barrier is what caps the scaling
//! benchmarks at a few thousand instances. Real crowdsourced
//! deployments are not synchronized at all: instances with different
//! kernel runtimes arrive, step, publish and retire on their own
//! schedules. [`EventFleet`] models exactly that as a discrete-event
//! simulation on the virtual clock:
//!
//! - Each instance is a **sparse pool entry** — a generational slot
//!   holding a pool index, a noise-stream id, a step counter and its
//!   own virtual clock. No [`crate::AdaptiveApplication`], no
//!   per-instance [`Knowledge`] clone, no per-instance RNG: noise is
//!   derived statelessly per event
//!   ([`Machine::noise_factors_at`]).
//! - The scheduler is a binary heap of `(virtual time, sequence)`
//!   events. An instance's next step is an event keyed by its own
//!   kernel runtime, so fast instances naturally step more often —
//!   the behaviour `run_for` approximated with per-instance deadlines.
//! - Knowledge merges happen **per publish event**
//!   ([`margot::SharedKnowledge::publish_into`]): the observation
//!   folds into the columnar arena and the changed point patches the
//!   pool's effective cache in the same call, instead of a
//!   barrier-time drain sweep. The cooperative sweep claims
//!   configurations at publish time too
//!   ([`dse::ExplorationSchedule::claim`]).
//! - Arrivals and retirements are events themselves, so a seeded
//!   workload trace ([`WorkloadTrace`] — diurnal curves, flash
//!   crowds) drives fleet churn deterministically.
//!
//! Per-event cost is independent of the total instance count (heap
//! operations are logarithmic; everything else is O(1) amortized per
//! event), which is what lets `fleet_events_bench` hold ≥1M concurrent
//! sparse instances in one process.
//!
//! The event runtime models the *adaptation* layer (timing/power
//! model, knowledge sharing, cooperative exploration, power
//! arbitration). One lockstep feature is out of scope by design:
//! per-instance monitor feedback (the AS-RTM adjustment loop) —
//! planned selection evaluates the shared effective knowledge
//! directly, one selection per pool.

use crate::error::SocratesError;
use crate::events::{EventObserver, FleetEvent, FleetRuntime, InstanceId};
use crate::fleet::{
    boot_pool, check_power_budget, FleetConfig, PoolBoot, Schedule, FLEET_POWER_PRIORITY,
};
use crate::toolchain::{fnv, EnhancedApp, FNV_OFFSET};
use dse::ExplorationSchedule;
use margot::{Cmp, Constraint, Knowledge, Metric, MetricValues, Rank, SharedKnowledge};
use platform_sim::{Execution, KnobConfig, Machine, WorkloadProfile};
use polybench::App;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// What a queued scheduler event does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Action {
    /// One kernel invocation of a live instance (dropped silently when
    /// the handle went stale — the instance retired first).
    Step(InstanceId),
    /// A workload-trace arrival into `pool`; spawns an instance and,
    /// when `lifetime_s` is finite, schedules its retirement.
    Arrive { pool: u32, lifetime_s: f64 },
    /// An orderly retirement (no-op on a stale handle).
    Retire(InstanceId),
}

/// A scheduled event: ordered by virtual time, ties broken by the
/// monotone issue sequence — the heap order is total and
/// deterministic, so a run is bit-replayable from its inputs.
#[derive(Debug, Clone, Copy)]
struct QueuedEvent {
    t_s: f64,
    seq: u64,
    action: Action,
}

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t_s
            .total_cmp(&other.t_s)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// One sparse instance: everything the scheduler needs between two of
/// its events, ~48 bytes — no application object, no knowledge clone,
/// no RNG state.
#[derive(Debug, Clone, Copy)]
struct SparseInstance {
    pool: u32,
    /// Noise-stream id ([`Machine::noise_factors_at`]); globally
    /// unique, never reused.
    stream: u64,
    steps: u64,
    /// The instance's own virtual clock: arrival time plus its
    /// executed kernel time so far.
    clock_s: f64,
    energy_j: f64,
}

/// A generational slot of the sparse pool: freed slots are reused
/// (memory stays bounded by the peak live count under churn) at the
/// next generation, so handles are never reused.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    live: bool,
    inst: SparseInstance,
}

/// The pool-level planned selection: one cached `best` per pool,
/// maintained incrementally as publishes patch single points. The
/// rules are the planned-selection subset of [`margot::AsRtm::best`]
/// with unit adjustment factors (the event runtime has no monitor
/// feedback loop) and at most the fleet's power constraint: feasible
/// points compete on rank value; with an empty feasible region the
/// minimum-violation point wins, rank breaking ties.
#[derive(Debug, Clone, Copy)]
struct Selection {
    valid: bool,
    pos: usize,
    value: f64,
    /// Whether the selection came from a non-empty feasible region. In
    /// the infeasible-fallback regime any patch can reorder the
    /// violations, so incremental maintenance gives up and rescans.
    feasible: bool,
    /// The power share the selection was computed under.
    share_w: Option<f64>,
}

impl Selection {
    fn invalid() -> Self {
        Selection {
            valid: false,
            pos: 0,
            value: 0.0,
            feasible: false,
            share_w: None,
        }
    }
}

fn share_constraint(share_w: Option<f64>) -> Option<Constraint> {
    share_w.map(|w| Constraint::new(Metric::power(), Cmp::LessOrEqual, w, FLEET_POWER_PRIORITY))
}

/// One shared-knowledge pool of the event runtime: all instances of
/// the same enhanced application publish into and select from it.
struct EventPool {
    app: App,
    design: Knowledge<KnobConfig>,
    shared: SharedKnowledge<KnobConfig>,
    schedule: ExplorationSchedule<KnobConfig>,
    /// Warm-boot re-validation queue as design positions.
    burst: VecDeque<usize>,
    rank: Rank,
    /// The pool's base machine: the timing/power model every instance
    /// shares, and the seed all noise streams derive from.
    machine: Machine,
    profile: WorkloadProfile,
    /// Design configurations in shared-knowledge position order.
    configs: Vec<KnobConfig>,
    pos_index: HashMap<KnobConfig, usize>,
    /// Effective knowledge, patched in place on every accepted publish
    /// ([`SharedKnowledge::publish_into`]). Sole owner: nothing clones
    /// it, so the copy-on-write patch never deep-copies.
    cache: Knowledge<KnobConfig>,
    /// Expected (noise-free) execution per design position, filled on
    /// first use: per-event execution is a cached expectation times two
    /// stateless noise factors.
    exec: Vec<Option<Execution>>,
    selection: Selection,
    live: usize,
}

impl EventPool {
    /// The planned design position under `share_w`, rescanning only
    /// when the cached selection is stale.
    fn select(&mut self, share_w: Option<f64>) -> usize {
        if !self.selection.valid || self.selection.share_w != share_w {
            self.rescan(share_w);
        }
        self.selection.pos
    }

    fn rescan(&mut self, share_w: Option<f64>) {
        let constraint = share_constraint(share_w);
        let pts = self.cache.points();
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in pts.iter().enumerate() {
            if let Some(c) = &constraint {
                if !c.satisfied_with(|m| p.metric(m)) {
                    continue;
                }
            }
            let Some(v) = self.rank.value_with(|m| p.metric(m)) else {
                continue;
            };
            if !v.is_finite() {
                continue;
            }
            match best {
                Some((_, bv)) if !self.rank.better(v, bv) => {}
                _ => best = Some((i, v)),
            }
        }
        self.selection = match best {
            Some((pos, value)) => Selection {
                valid: true,
                pos,
                value,
                feasible: true,
                share_w,
            },
            None => {
                let c = constraint
                    .as_ref()
                    .expect("knowledge must hold at least one point the rank can score");
                // Empty feasible region: the least-violating point
                // wins, rank value breaking exact ties — the planned
                // analogue of the AS-RTM's constraint-relaxation path.
                let mut fallback: Option<(usize, f64, Option<f64>)> = None;
                for (i, p) in pts.iter().enumerate() {
                    let violation = c.violation_with(|m| p.metric(m));
                    let value = self
                        .rank
                        .value_with(|m| p.metric(m))
                        .filter(|v| v.is_finite());
                    let wins = match &fallback {
                        None => true,
                        Some((_, bviol, bvalue)) => {
                            violation < *bviol
                                || (violation == *bviol
                                    && match (value, bvalue) {
                                        (Some(v), Some(b)) => self.rank.better(v, *b),
                                        (Some(_), None) => true,
                                        _ => false,
                                    })
                        }
                    };
                    if wins {
                        fallback = Some((i, violation, value));
                    }
                }
                let (pos, _, value) = fallback.expect("effective knowledge is never empty");
                Selection {
                    valid: true,
                    pos,
                    value: value.unwrap_or(f64::NEG_INFINITY),
                    feasible: false,
                    share_w,
                }
            }
        };
    }

    /// Incremental selection maintenance after a publish patched
    /// design position `pos`: O(1) unless the patch can demote the
    /// current winner (it *is* the winner, or the selection sits in
    /// the infeasible-fallback regime), in which case the cached
    /// selection is invalidated and the next select rescans.
    fn on_patch(&mut self, pos: usize) {
        if !self.selection.valid {
            return;
        }
        if !self.selection.feasible || pos == self.selection.pos {
            self.selection.valid = false;
            return;
        }
        let p = &self.cache.points()[pos];
        if let Some(c) = share_constraint(self.selection.share_w) {
            if !c.satisfied_with(|m| p.metric(m)) {
                return;
            }
        }
        let Some(v) = self.rank.value_with(|m| p.metric(m)) else {
            return;
        };
        // A tie goes to the lower position, as in `rescan`.
        let tie_below = v == self.selection.value && pos < self.selection.pos;
        if v.is_finite() && (self.rank.better(v, self.selection.value) || tie_below) {
            self.selection.pos = pos;
            self.selection.value = v;
        }
    }
}

/// Membership, churn and scheduler counters (see [`EventFleet::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventFleetStats {
    /// Instances ever admitted (spawned or workload-trace arrivals).
    pub spawned: u64,
    /// Instances currently live.
    pub active: usize,
    /// Instances retired so far.
    pub retired: u64,
    /// Sparse-pool slots allocated — bounded by the **peak** live
    /// count, not the admission count, because retired slots are
    /// reused at the next generation.
    pub slots: usize,
    /// Scheduler events processed.
    pub events: u64,
    /// Step events dropped because their handle had gone stale (the
    /// instance retired between scheduling and firing).
    pub stale_dropped: u64,
}

/// The in-process event-driven fleet runtime: sparse instances on a
/// discrete-event scheduler (the module-level docs in
/// `crates/core/src/fleet_events.rs` describe the design and its
/// scope).
///
/// # Examples
///
/// ```no_run
/// use socrates::{EventFleet, FleetConfig, FleetRuntime, Schedule, Toolchain};
/// use margot::Rank;
/// use polybench::App;
///
/// let enhanced = Toolchain::default().enhance(App::TwoMm).unwrap();
/// let config = FleetConfig::builder()
///     .schedule(Schedule::EventDriven)
///     .build()
///     .unwrap();
/// let mut fleet = EventFleet::new(config).unwrap();
/// fleet.spawn(&enhanced, &Rank::throughput_per_watt2(), 42, 100_000);
/// fleet.run_until(30.0); // 30 virtual seconds, however many events
/// ```
pub struct EventFleet {
    config: FleetConfig,
    pools: Vec<EventPool>,
    slots: Vec<Slot>,
    /// Freed slot indices, reused LIFO.
    free: Vec<u32>,
    heap: BinaryHeap<Reverse<QueuedEvent>>,
    /// Monotone event-issue sequence (the deterministic tie-break).
    seq: u64,
    /// Noise streams ever handed out == instances ever admitted.
    spawned: u64,
    live_count: usize,
    retired: u64,
    now_s: f64,
    events: u64,
    stale_dropped: u64,
    /// Order-sensitive FNV-1a fold of every processed event — the
    /// replayability fingerprint ([`EventFleet::event_digest`]).
    digest: u64,
    observers: Vec<EventObserver>,
}

impl EventFleet {
    /// An empty event-driven fleet with the given policy.
    ///
    /// # Errors
    ///
    /// Returns a runtime-stage [`SocratesError`] if the policy is
    /// invalid ([`FleetConfig::validate`]) or does not select
    /// [`Schedule::EventDriven`] — lockstep configurations boot
    /// through [`crate::Fleet::new`], distributed ones through
    /// [`crate::DistributedFleet::new`].
    pub fn new(config: FleetConfig) -> Result<Self, SocratesError> {
        config.validate()?;
        if config.schedule != Schedule::EventDriven {
            return Err(SocratesError::invalid_config(
                "this configuration selects the lockstep schedule (schedule = Lockstep): \
                 boot it through Fleet::new (or DistributedFleet::new when distributed = \
                 Some); EventFleet runs only the sparse discrete-event scheduler",
            ));
        }
        Ok(EventFleet {
            config,
            pools: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            spawned: 0,
            live_count: 0,
            retired: 0,
            now_s: 0.0,
            events: 0,
            stale_dropped: 0,
            digest: FNV_OFFSET,
            observers: Vec::new(),
        })
    }

    /// The fleet policy.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Boots `count` instances of one enhanced app; returns their
    /// handles. The pool's base machine comes from the app's own
    /// platform seeded with `base_seed`; every instance gets a fresh,
    /// never-reused noise stream of it.
    pub fn spawn(
        &mut self,
        enhanced: &EnhancedApp,
        rank: &Rank,
        base_seed: u64,
        count: usize,
    ) -> Vec<InstanceId> {
        let base = enhanced.platform.machine(base_seed);
        self.spawn_on(enhanced, rank, &base, count)
    }

    /// Boots `count` instances on an explicit base machine (e.g. a
    /// drifted [`crate::Platform::hotter`] deployment). The first
    /// spawn into a pool fixes its base machine and rank; later
    /// joiners of the same pool share them and only draw fresh noise
    /// streams.
    pub fn spawn_on(
        &mut self,
        enhanced: &EnhancedApp,
        rank: &Rank,
        base: &Machine,
        count: usize,
    ) -> Vec<InstanceId> {
        let pool = self.pool_for(enhanced, rank, base);
        (0..count).map(|_| self.admit(pool, self.now_s)).collect()
    }

    /// Schedules a seeded workload trace into the scheduler: every
    /// arrival becomes an `Arrive` event (offset from the current
    /// virtual time) that admits an instance and — for finite
    /// lifetimes — schedules its retirement. Returns the number of
    /// arrivals scheduled.
    ///
    /// The pool's base machine is the app's platform seeded with the
    /// trace seed (first creation only — see
    /// [`spawn_on`](Self::spawn_on)).
    ///
    /// # Errors
    ///
    /// Returns a runtime-stage [`SocratesError`] when the trace is
    /// invalid ([`WorkloadTrace::validate`]).
    pub fn drive(
        &mut self,
        trace: &WorkloadTrace,
        enhanced: &EnhancedApp,
        rank: &Rank,
    ) -> Result<usize, SocratesError> {
        trace.validate()?;
        let base = enhanced.platform.machine(trace.seed);
        let pool = self.pool_for(enhanced, rank, &base);
        let pool = u32::try_from(pool).expect("pool count fits in u32");
        let now = self.now_s;
        let arrivals = trace.arrivals();
        for a in &arrivals {
            self.push(
                now + a.t_s,
                Action::Arrive {
                    pool,
                    lifetime_s: a.lifetime_s,
                },
            );
        }
        Ok(arrivals.len())
    }

    /// Retires a live instance at the current virtual time; returns
    /// `false` for a stale handle (already retired — never a panic,
    /// because handles are never reused).
    pub fn retire(&mut self, id: InstanceId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        self.retire_at(id, self.now_s);
        true
    }

    /// Sets (or clears) the global power budget, re-split across live
    /// instances as churn events fire.
    ///
    /// # Errors
    ///
    /// Rejects a budget that is not positive and finite, as
    /// [`crate::FleetConfigBuilder::power_budget_w`] does, and keeps the
    /// current one.
    pub fn set_power_budget(&mut self, budget_w: Option<f64>) -> Result<(), SocratesError> {
        check_power_budget(budget_w)?;
        self.config.power_budget_w = budget_w;
        Ok(())
    }

    /// Each live instance's current power allocation, watts.
    pub fn power_share_w(&self) -> Option<f64> {
        match self.config.power_budget_w {
            Some(w) if self.live_count > 0 => Some(w / self.live_count as f64),
            _ => None,
        }
    }

    /// Whether `id` is a live instance (stale handles return `false`
    /// forever; they never alias a successor).
    pub fn is_live(&self, id: InstanceId) -> bool {
        self.slots
            .get(id.slot() as usize)
            .is_some_and(|s| s.live && s.generation == id.generation())
    }

    /// Instance `id`'s own virtual clock, or `None` for stale handles.
    pub fn clock_s(&self, id: InstanceId) -> Option<f64> {
        self.live_slot(id).map(|s| s.inst.clock_s)
    }

    /// Total energy drawn by instance `id`, joules.
    pub fn energy_j(&self, id: InstanceId) -> Option<f64> {
        self.live_slot(id).map(|s| s.inst.energy_j)
    }

    /// Kernel invocations instance `id` has executed.
    pub fn steps(&self, id: InstanceId) -> Option<u64> {
        self.live_slot(id).map(|s| s.inst.steps)
    }

    /// Scheduler events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// The order-sensitive digest of every event processed so far: two
    /// runs built from the same seeds fold to the same digest — the
    /// bit-replayability fingerprint the property tests pin.
    pub fn event_digest(&self) -> u64 {
        self.digest
    }

    /// Membership, churn and scheduler counters in one read.
    pub fn stats(&self) -> EventFleetStats {
        EventFleetStats {
            spawned: self.spawned,
            active: self.live_count,
            retired: self.retired,
            slots: self.slots.len(),
            events: self.events,
            stale_dropped: self.stale_dropped,
        }
    }

    /// The current merged (online) knowledge for `app`, or `None` if
    /// no instance of it was ever admitted.
    pub fn learned_knowledge(&self, app: App) -> Option<Knowledge<KnobConfig>> {
        self.pools
            .iter()
            .find(|p| p.app == app)
            .map(|p| p.shared.knowledge())
    }

    /// The shared-knowledge epoch for `app`, or `None` if unknown.
    pub fn knowledge_epoch(&self, app: App) -> Option<u64> {
        self.pools
            .iter()
            .find(|p| p.app == app)
            .map(|p| p.shared.epoch())
    }

    /// Online design-space coverage for `app`: `(covered, total)`.
    pub fn exploration_coverage(&self, app: App) -> Option<(usize, usize)> {
        self.pools.iter().find(|p| p.app == app).map(|p| {
            (
                p.schedule.total() - p.schedule.remaining(),
                p.schedule.total(),
            )
        })
    }

    fn live_slot(&self, id: InstanceId) -> Option<&Slot> {
        self.slots
            .get(id.slot() as usize)
            .filter(|s| s.live && s.generation == id.generation())
    }

    /// Finds (or creates) the pool for an enhanced app — keyed by
    /// application *and* design knowledge, like the lockstep runtime.
    fn pool_for(&mut self, enhanced: &EnhancedApp, rank: &Rank, base: &Machine) -> usize {
        if let Some(i) = self
            .pools
            .iter()
            .position(|p| p.app == enhanced.app && p.design == enhanced.knowledge)
        {
            return i;
        }
        let PoolBoot {
            shared,
            seeded,
            schedule,
            burst,
            ..
        } = boot_pool(&self.config, enhanced, rank);
        let configs: Vec<KnobConfig> = enhanced
            .knowledge
            .points()
            .iter()
            .map(|p| p.config.clone())
            .collect();
        let pos_index: HashMap<KnobConfig, usize> = configs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.clone(), i))
            .collect();
        // The warm head as design positions: configurations foreign to
        // this design space cannot be executed and are skipped.
        let burst = burst
            .into_iter()
            .filter_map(|cfg| pos_index.get(&cfg).copied())
            .collect();
        let exec = vec![None; configs.len()];
        self.pools.push(EventPool {
            app: enhanced.app,
            design: enhanced.knowledge.clone(),
            shared,
            schedule,
            burst,
            rank: rank.clone(),
            machine: base.clone(),
            profile: enhanced.profile.clone(),
            configs,
            pos_index,
            cache: seeded,
            exec,
            selection: Selection::invalid(),
            live: 0,
        });
        self.pools.len() - 1
    }

    /// Admits one instance into `pool` at virtual time `t_s`,
    /// scheduling its first step immediately.
    fn admit(&mut self, pool: usize, t_s: f64) -> InstanceId {
        let stream = self.spawned;
        self.spawned += 1;
        let inst = SparseInstance {
            pool: u32::try_from(pool).expect("pool count fits in u32"),
            stream,
            steps: 0,
            clock_s: t_s,
            energy_j: 0.0,
        };
        let id = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                // Free slots never sit at u32::MAX (see `retire_at`).
                s.generation += 1;
                s.live = true;
                s.inst = inst;
                InstanceId::new(slot, s.generation)
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("sparse pool holds at most u32::MAX slots");
                self.slots.push(Slot {
                    generation: 0,
                    live: true,
                    inst,
                });
                InstanceId::new(slot, 0)
            }
        };
        self.live_count += 1;
        self.pools[pool].live += 1;
        // The per-instance power share changed; every pool re-selects
        // lazily at its next step.
        self.invalidate_selections();
        self.push(t_s, Action::Step(id));
        self.emit(FleetEvent::Arrived { id, t_s });
        id
    }

    fn retire_at(&mut self, id: InstanceId, t_s: f64) {
        let slot = id.slot() as usize;
        let pool = self.slots[slot].inst.pool as usize;
        self.slots[slot].live = false;
        // A slot whose generation is exhausted retires for good: reusing
        // it would wrap to generation 0 and alias a dead handle.
        if self.slots[slot].generation < u32::MAX {
            self.free.push(id.slot());
        }
        self.live_count -= 1;
        self.pools[pool].live -= 1;
        self.retired += 1;
        self.invalidate_selections();
        self.emit(FleetEvent::Retired { id, t_s });
    }

    fn invalidate_selections(&mut self) {
        // Lazy: select() compares the recorded share, so only pools
        // that actually step again pay the rescan.
        if self.config.power_budget_w.is_some() {
            for pool in &mut self.pools {
                pool.selection.valid = false;
            }
        }
    }

    fn push(&mut self, t_s: f64, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(QueuedEvent { t_s, seq, action }));
    }

    fn emit(&mut self, event: FleetEvent) {
        for observer in &mut self.observers {
            observer(&event);
        }
    }

    /// Folds `words`, little-endian, into the event digest.
    fn fold_digest(&mut self, words: &[u64]) {
        for w in words {
            self.digest = fnv(self.digest, &w.to_le_bytes());
        }
    }

    /// Processes the next queued event; returns `false` on an empty
    /// scheduler.
    fn process_one(&mut self) -> bool {
        let Some(Reverse(ev)) = self.heap.pop() else {
            return false;
        };
        // Heap order is (time, seq): the clock never goes backwards.
        self.now_s = ev.t_s;
        self.events += 1;
        match ev.action {
            Action::Arrive { pool, lifetime_s } => {
                self.fold_digest(&[1, ev.t_s.to_bits()]);
                let id = self.admit(pool as usize, ev.t_s);
                self.fold_digest(&[id.raw()]);
                if lifetime_s.is_finite() {
                    self.push(ev.t_s + lifetime_s, Action::Retire(id));
                }
            }
            Action::Retire(id) => {
                if self.is_live(id) {
                    self.fold_digest(&[2, id.raw()]);
                    self.retire_at(id, ev.t_s);
                } else {
                    self.stale_dropped += 1;
                }
            }
            Action::Step(id) => {
                if self.is_live(id) {
                    self.step_instance(id, ev.t_s);
                } else {
                    // The instance retired between scheduling and
                    // firing: its pending step dies with it.
                    self.stale_dropped += 1;
                }
            }
        }
        true
    }

    /// One kernel invocation of a live instance — the hot path. O(1)
    /// amortized in the total instance count: a cached expectation,
    /// two stateless noise draws, one merge into the pool's knowledge
    /// arena patching one point, and one heap push.
    fn step_instance(&mut self, id: InstanceId, t_s: f64) {
        let slot = id.slot() as usize;
        let (pool_idx, stream, steps) = {
            let inst = &self.slots[slot].inst;
            (inst.pool as usize, inst.stream, inst.steps)
        };
        let share_w = self.power_share_w();
        let share_knowledge = self.config.share_knowledge;
        let sweeps = self.config.sweeps_at(steps);
        let pool = &mut self.pools[pool_idx];
        // Configuration choice: warm-boot validation outranks the
        // cooperative sweep outranks planned selection — the lockstep
        // assignment policy, keyed to this instance's step counter.
        let (pos, forced) = if let Some(pos) = pool.burst.pop_front() {
            (pos, true)
        } else if sweeps {
            match pool.schedule.peek_unexplored() {
                // Peek, don't claim: the claim lands at publish below,
                // so a step that never publishes leaves no hole.
                Some(cfg) => (
                    *pool
                        .pos_index
                        .get(cfg)
                        .expect("sweep configs are design points"),
                    true,
                ),
                None => (pool.select(share_w), false),
            }
        } else {
            (pool.select(share_w), false)
        };
        if pool.exec[pos].is_none() {
            pool.exec[pos] = Some(pool.machine.expected(&pool.profile, &pool.configs[pos]));
        }
        let expected = pool.exec[pos].as_ref().expect("just filled");
        let (tf, pf) = pool.machine.noise_factors_at(stream, steps);
        let time_s = expected.time_s * tf;
        let power_w = expected.power_w * pf;
        let epoch = if share_knowledge {
            let observed = MetricValues::from_execution(time_s, power_w);
            let published =
                pool.shared
                    .publish_into(&pool.configs[pos], &observed, &mut pool.cache);
            let (ppos, changed) = published.expect("design configs are known points");
            debug_assert_eq!(ppos, pos, "pool configs are in shared position order");
            if changed {
                pool.on_patch(pos);
            }
            // Publish-time claim: forced sweep assignments and organic
            // selections both count as coverage only once observed.
            pool.schedule.claim(&pool.configs[pos]);
            Some(pool.shared.epoch())
        } else {
            None
        };
        {
            let inst = &mut self.slots[slot].inst;
            inst.steps += 1;
            inst.clock_s = t_s + time_s;
            inst.energy_j += time_s * power_w;
        }
        self.fold_digest(&[3, id.raw(), time_s.to_bits(), power_w.to_bits()]);
        if !self.observers.is_empty() {
            self.emit(FleetEvent::Stepped {
                id,
                t_start_s: t_s,
                time_s,
                power_w,
                forced,
            });
            if let Some(epoch) = epoch {
                self.emit(FleetEvent::Published {
                    id,
                    t_s: t_s + time_s,
                    epoch,
                });
            }
        }
        // The instance's next step, keyed by its own kernel runtime.
        self.push(t_s + time_s, Action::Step(id));
    }
}

impl FleetRuntime for EventFleet {
    /// Processes every event scheduled at or before `t_s` and advances
    /// the virtual clock to `t_s`; returns the events processed.
    fn run_until(&mut self, t_s: f64) -> u64 {
        let mut n = 0;
        while let Some(Reverse(ev)) = self.heap.peek() {
            if ev.t_s > t_s {
                break;
            }
            self.process_one();
            n += 1;
        }
        self.now_s = self.now_s.max(t_s);
        n
    }

    fn run_events(&mut self, n: u64) -> u64 {
        for done in 0..n {
            if !self.process_one() {
                return done;
            }
        }
        n
    }

    fn observe(&mut self, observer: EventObserver) {
        self.observers.push(observer);
    }

    fn virtual_now_s(&self) -> f64 {
        self.now_s
    }

    fn active_count(&self) -> usize {
        self.live_count
    }
}

/// The shape of a [`WorkloadTrace`]'s arrival-rate curve over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadCurve {
    /// A constant arrival rate.
    Constant,
    /// A diurnal load curve:
    /// `rate(t) = base · (1 + amplitude · sin(2πt / period))`,
    /// clamped at zero.
    Diurnal {
        /// Period of one day, virtual seconds.
        period_s: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
    },
    /// A flash crowd: the base rate multiplied by `multiplier` inside
    /// the burst window, unchanged outside it.
    FlashCrowd {
        /// Burst start, virtual seconds.
        at_s: f64,
        /// Burst length, virtual seconds.
        duration_s: f64,
        /// Rate multiplier (≥ 1) inside the burst.
        multiplier: f64,
    },
}

/// One arrival a [`WorkloadTrace`] generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival time, virtual seconds from the trace start.
    pub t_s: f64,
    /// How long the instance stays before retiring, virtual seconds.
    pub lifetime_s: f64,
}

/// A seeded workload-trace driver: a non-homogeneous Poisson arrival
/// process (thinning over the [`WorkloadCurve`]) with exponential
/// per-instance lifetimes. Fully deterministic — the same trace always
/// generates the same arrivals, which is what makes an event run
/// replayable bit-identically from its seed
/// ([`EventFleet::event_digest`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// RNG seed for the arrival and lifetime draws.
    pub seed: u64,
    /// Trace horizon: arrivals are generated in `[0, horizon_s)`.
    pub horizon_s: f64,
    /// Base arrival rate, instances per virtual second.
    pub base_rate_hz: f64,
    /// Mean exponential lifetime of one instance, virtual seconds.
    pub mean_lifetime_s: f64,
    /// The rate curve over the horizon.
    pub curve: WorkloadCurve,
}

impl WorkloadTrace {
    /// Validity check — all rates and durations must be positive and
    /// finite, the diurnal amplitude within `[0, 1]`, the flash-crowd
    /// multiplier at least 1.
    ///
    /// # Errors
    ///
    /// Returns a runtime-stage [`SocratesError`] naming the offending
    /// field.
    pub fn validate(&self) -> Result<(), SocratesError> {
        let positive = |name: &str, v: f64| -> Result<(), SocratesError> {
            if !(v.is_finite() && v > 0.0) {
                return Err(SocratesError::invalid_config(format!(
                    "workload trace {name} = {v} must be positive and finite"
                )));
            }
            Ok(())
        };
        positive("horizon_s", self.horizon_s)?;
        positive("base_rate_hz", self.base_rate_hz)?;
        positive("mean_lifetime_s", self.mean_lifetime_s)?;
        match self.curve {
            WorkloadCurve::Constant => {}
            WorkloadCurve::Diurnal {
                period_s,
                amplitude,
            } => {
                positive("diurnal period_s", period_s)?;
                if !(0.0..=1.0).contains(&amplitude) {
                    return Err(SocratesError::invalid_config(format!(
                        "diurnal amplitude = {amplitude} must lie in [0, 1] (the rate cannot \
                         swing negative)"
                    )));
                }
            }
            WorkloadCurve::FlashCrowd {
                at_s,
                duration_s,
                multiplier,
            } => {
                if !(at_s.is_finite() && at_s >= 0.0) {
                    return Err(SocratesError::invalid_config(format!(
                        "flash-crowd at_s = {at_s} must be non-negative and finite"
                    )));
                }
                positive("flash-crowd duration_s", duration_s)?;
                if !(multiplier.is_finite() && multiplier >= 1.0) {
                    return Err(SocratesError::invalid_config(format!(
                        "flash-crowd multiplier = {multiplier} must be >= 1 (a crowd does \
                         not shrink the base load)"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The instantaneous arrival rate at `t_s`, instances per second.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match self.curve {
            WorkloadCurve::Constant => self.base_rate_hz,
            WorkloadCurve::Diurnal {
                period_s,
                amplitude,
            } => {
                let phase = std::f64::consts::TAU * t_s / period_s;
                (self.base_rate_hz * (1.0 + amplitude * phase.sin())).max(0.0)
            }
            WorkloadCurve::FlashCrowd {
                at_s,
                duration_s,
                multiplier,
            } => {
                if t_s >= at_s && t_s < at_s + duration_s {
                    self.base_rate_hz * multiplier
                } else {
                    self.base_rate_hz
                }
            }
        }
    }

    /// The curve's peak rate — the thinning envelope.
    fn peak_rate(&self) -> f64 {
        match self.curve {
            WorkloadCurve::Constant => self.base_rate_hz,
            WorkloadCurve::Diurnal { amplitude, .. } => self.base_rate_hz * (1.0 + amplitude),
            WorkloadCurve::FlashCrowd { multiplier, .. } => self.base_rate_hz * multiplier.max(1.0),
        }
    }

    /// Generates the trace's arrivals, in time order. Deterministic in
    /// the trace (call it twice, get the same vector). Call
    /// [`validate`](Self::validate) first — an invalid trace may
    /// produce a nonsensical (but still deterministic) schedule.
    pub fn arrivals(&self) -> Vec<Arrival> {
        let peak = self.peak_rate();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut out = Vec::new();
        let mut t = 0.0_f64;
        loop {
            // Exponential gap at the envelope rate; `1 - u` keeps the
            // draw in (0, 1] so ln never sees zero.
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            t += -u.ln() / peak;
            // NaN-safe horizon check (an unvalidated trace can drive t
            // to NaN; the loop must still terminate).
            if !t.is_finite() || t >= self.horizon_s {
                break;
            }
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept * peak <= self.rate_at(t) {
                let ul: f64 = 1.0 - rng.gen_range(0.0..1.0);
                out.push(Arrival {
                    t_s: t,
                    lifetime_s: -ul.ln() * self.mean_lifetime_s,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn event_config() -> FleetConfig {
        FleetConfig {
            schedule: Schedule::EventDriven,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn a_patched_point_tying_the_winner_from_below_takes_over() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        fleet.spawn(&enhanced, &rank(), 42, 1);
        let pool = &mut fleet.pools[0];
        let top = |cfg: &KnobConfig| {
            margot::OperatingPoint::new(
                cfg.clone(),
                MetricValues::new()
                    .with(Metric::throughput(), 1e6)
                    .with(Metric::power(), 1.0),
            )
        };
        let (low, high) = (3, 5);
        let point = top(&pool.configs[high]);
        pool.cache.patch_point(high, point);
        pool.selection = Selection::invalid();
        assert_eq!(pool.select(None), high);
        let point = top(&pool.configs[low]);
        pool.cache.patch_point(low, point);
        pool.on_patch(low);
        assert_eq!(pool.selection.pos, low, "a tie goes to the lower position");
        pool.selection = Selection::invalid();
        assert_eq!(pool.select(None), low, "as a rescan picks");
    }

    #[test]
    fn construction_enforces_the_schedule_split() {
        let err = EventFleet::new(FleetConfig::default())
            .err()
            .expect("lockstep configs must boot through Fleet::new");
        assert!(err.to_string().contains("Fleet::new"), "{err}");
        let err = crate::fleet::Fleet::new(event_config())
            .err()
            .expect("event configs must boot through EventFleet::new");
        assert!(err.to_string().contains("EventFleet::new"), "{err}");
        // EventDriven + distributed is contradictory wherever it lands.
        let contradictory = FleetConfig {
            distributed: Some(crate::transport::DistributedConfig::default()),
            exploration_interval: 0,
            power_budget_w: None,
            ..event_config()
        };
        let err = contradictory.validate().expect_err("cross-field rule");
        assert!(err.to_string().contains("EventDriven"), "{err}");
    }

    #[test]
    fn instances_step_on_their_own_clocks() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        let ids = fleet.spawn(&enhanced, &rank(), 42, 3);
        assert_eq!(fleet.active_count(), 3);
        let events = fleet.run_until(5.0);
        assert!(events > 0, "instances must have stepped");
        assert_eq!(fleet.virtual_now_s(), 5.0);
        for &id in &ids {
            let clock = fleet.clock_s(id).expect("live");
            assert!(clock > 0.0, "instance {id} never stepped");
            assert!(fleet.steps(id).unwrap() > 0);
            assert!(fleet.energy_j(id).unwrap() > 0.0);
        }
        // Different noise streams: clocks drift apart.
        assert_ne!(fleet.clock_s(ids[0]), fleet.clock_s(ids[1]));
        // Knowledge merged on publish events, no barrier in sight.
        assert!(fleet.knowledge_epoch(App::TwoMm).unwrap() > 0);
        let learned = fleet.learned_knowledge(App::TwoMm).unwrap();
        assert_ne!(learned, enhanced.knowledge);
    }

    #[test]
    fn per_publish_merge_equals_the_cache() {
        // The pool cache patched per publish must equal a fresh
        // effective snapshot at any point — merge-on-publish is the
        // barrier drain, amortized.
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        fleet.spawn(&enhanced, &rank(), 7, 4);
        fleet.run_events(200);
        let pool = &fleet.pools[0];
        assert_eq!(pool.cache, pool.shared.knowledge());
    }

    #[test]
    fn cooperative_sweep_claims_on_publish() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(FleetConfig {
            exploration_interval: 1,
            ..event_config()
        })
        .unwrap();
        fleet.spawn(&enhanced, &rank(), 11, 8);
        let (covered_0, total) = fleet.exploration_coverage(App::TwoMm).unwrap();
        assert_eq!(covered_0, 0);
        fleet.run_events(400);
        let (covered, _) = fleet.exploration_coverage(App::TwoMm).unwrap();
        assert!(
            covered > total / 4,
            "sweep must make progress: {covered}/{total}"
        );
        // Distinct configurations were actually executed (the sweep is
        // cooperative, not everyone re-measuring the same point).
        let distinct: std::collections::HashSet<u32> = fleet.pools[0]
            .exec
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i as u32)
            .collect();
        assert!(distinct.len() > 8);
    }

    #[test]
    fn power_budget_steers_selection() {
        let enhanced = quick_enhanced(App::TwoMm);
        // Same calibration as the lockstep budget test: under a pure
        // exec-time rank the unconstrained pick draws >100 W, so a
        // 70 W/instance share must steer to a cooler configuration.
        let boot = |budget: Option<f64>| {
            let mut fleet = EventFleet::new(FleetConfig {
                exploration_interval: 0, // pure planned selection
                ..event_config()
            })
            .unwrap();
            fleet.set_power_budget(budget).unwrap();
            let ids = fleet.spawn(&enhanced, &Rank::minimize(Metric::exec_time()), 5, 2);
            fleet.run_until(3.0);
            let e: f64 = ids.iter().map(|&id| fleet.energy_j(id).unwrap()).sum();
            let t: f64 = ids
                .iter()
                .map(|&id| fleet.clock_s(id).unwrap())
                .sum::<f64>();
            e / t // fleet-mean power
        };
        let unconstrained = boot(None);
        let tight = boot(Some(140.0));
        assert!(
            tight < unconstrained,
            "a 70 W/instance cap must pick cooler configs: {tight} vs {unconstrained}"
        );
        assert!(
            tight < 70.0 * 1.2,
            "mean power {tight} W must respect the 70 W share"
        );
    }

    #[test]
    fn a_bad_power_budget_is_an_error_and_keeps_the_current_one() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        fleet.spawn(&enhanced, &rank(), 5, 2);
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
    fn handles_are_never_reused_but_slots_are() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        let first = fleet.spawn(&enhanced, &rank(), 1, 4);
        fleet.run_events(40);
        for &id in &first {
            assert!(fleet.retire(id));
            assert!(!fleet.retire(id), "stale retire is a no-op");
        }
        let second = fleet.spawn(&enhanced, &rank(), 1, 4);
        for &id in &second {
            // Slots reused, generations bumped: no handle aliasing.
            assert!(first.iter().all(|&old| old != id));
            assert!(first.iter().any(|&old| old.slot() == id.slot()));
        }
        let stats = fleet.stats();
        assert_eq!(stats.spawned, 8);
        assert_eq!(stats.slots, 4, "memory bounded by peak live count");
        assert_eq!(stats.active, 4);
        assert_eq!(stats.retired, 4);
        // Old handles answer None/false forever.
        assert!(!fleet.is_live(first[0]));
        assert_eq!(fleet.clock_s(first[0]), None);
        // Their queued step events drop as stale instead of stepping
        // the slot's new occupant.
        fleet.run_events(50);
        assert!(fleet.stats().stale_dropped > 0);
    }

    #[test]
    fn exhausted_slot_generations_retire_the_slot() {
        let enhanced = quick_enhanced(App::TwoMm);
        let mut fleet = EventFleet::new(event_config()).unwrap();
        let old = fleet.spawn(&enhanced, &rank(), 1, 1)[0];
        // Stand-in for 2^32 reuses of the slot.
        fleet.slots[old.slot() as usize].generation = u32::MAX;
        let last = InstanceId::new(old.slot(), u32::MAX);
        assert!(fleet.retire(last));
        let fresh = fleet.spawn(&enhanced, &rank(), 1, 1)[0];
        assert_ne!(fresh.slot(), old.slot(), "the exhausted slot is not reused");
        assert_eq!(fresh.generation(), 0);
        assert!(!fleet.is_live(old) && !fleet.is_live(last));
        assert_eq!(fleet.stats().slots, 2);
    }

    #[test]
    fn a_workload_trace_drives_churn_as_events() {
        let enhanced = quick_enhanced(App::TwoMm);
        let trace = WorkloadTrace {
            seed: 2018,
            horizon_s: 30.0,
            base_rate_hz: 1.0,
            mean_lifetime_s: 6.0,
            curve: WorkloadCurve::Diurnal {
                period_s: 20.0,
                amplitude: 0.8,
            },
        };
        let mut fleet = EventFleet::new(event_config()).unwrap();
        let scheduled = fleet.drive(&trace, &enhanced, &rank()).unwrap();
        assert!(scheduled > 10, "{scheduled} arrivals over 30 s at ~1 Hz");
        assert_eq!(fleet.active_count(), 0, "arrivals are events, not spawns");
        fleet.run_until(60.0);
        let stats = fleet.stats();
        assert_eq!(stats.spawned, scheduled as u64);
        assert!(stats.retired > 0, "lifetimes must have expired");
        assert!(
            stats.slots < scheduled,
            "churned slots must be reused ({} slots for {scheduled} arrivals)",
            stats.slots
        );
        assert!(fleet.knowledge_epoch(App::TwoMm).unwrap() > 0);
    }

    #[test]
    fn event_runs_replay_bit_identically_from_their_seeds() {
        let enhanced = quick_enhanced(App::TwoMm);
        let trace = WorkloadTrace {
            seed: 7,
            horizon_s: 15.0,
            base_rate_hz: 1.5,
            mean_lifetime_s: 4.0,
            curve: WorkloadCurve::FlashCrowd {
                at_s: 5.0,
                duration_s: 3.0,
                multiplier: 4.0,
            },
        };
        let run = || {
            let mut fleet = EventFleet::new(event_config()).unwrap();
            fleet.spawn(&enhanced, &rank(), 3, 2);
            fleet.drive(&trace, &enhanced, &rank()).unwrap();
            fleet.run_until(25.0);
            (
                fleet.event_digest(),
                fleet.events_processed(),
                fleet.knowledge_epoch(App::TwoMm).unwrap(),
                fleet.stats(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn observers_see_the_event_stream_without_perturbing_it() {
        use std::sync::{Arc, Mutex};
        let enhanced = quick_enhanced(App::TwoMm);
        let trace = WorkloadTrace {
            seed: 9,
            horizon_s: 8.0,
            base_rate_hz: 1.0,
            mean_lifetime_s: 3.0,
            curve: WorkloadCurve::Constant,
        };
        let run = |observe: bool| {
            let mut fleet = EventFleet::new(event_config()).unwrap();
            let seen = Arc::new(Mutex::new(Vec::new()));
            if observe {
                let sink = Arc::clone(&seen);
                fleet.observe(Box::new(move |e: &FleetEvent| {
                    sink.lock().unwrap().push(e.clone());
                }));
            }
            fleet.drive(&trace, &enhanced, &rank()).unwrap();
            fleet.run_until(15.0);
            let digest = fleet.event_digest();
            drop(fleet); // releases the observer's clone of `seen`
            let events = Arc::try_unwrap(seen).unwrap().into_inner().unwrap();
            (digest, events)
        };
        let (digest_plain, none) = run(false);
        let (digest_observed, events) = run(true);
        assert!(none.is_empty());
        assert_eq!(digest_plain, digest_observed, "observers are pure");
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Arrived { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Stepped { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Published { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, FleetEvent::Retired { .. })));
        // Scheduler time is monotone — the heap never runs backwards.
        // (Published events carry the invocation's *completion* time,
        // which legitimately outruns the next event's start.)
        let fired: Vec<f64> = events
            .iter()
            .filter(|e| !matches!(e, FleetEvent::Published { .. }))
            .map(FleetEvent::t_s)
            .collect();
        for pair in fired.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-12, "{pair:?}");
        }
    }

    #[test]
    fn workload_traces_are_deterministic_and_curve_shaped() {
        let diurnal = WorkloadTrace {
            seed: 5,
            horizon_s: 200.0,
            base_rate_hz: 2.0,
            mean_lifetime_s: 10.0,
            curve: WorkloadCurve::Diurnal {
                period_s: 100.0,
                amplitude: 1.0,
            },
        };
        diurnal.validate().unwrap();
        let a = diurnal.arrivals();
        assert_eq!(a, diurnal.arrivals(), "same trace, same arrivals");
        assert!(a.windows(2).all(|w| w[0].t_s <= w[1].t_s), "time ordered");
        // The rising half-period must out-arrive the falling one.
        let peak_half = a.iter().filter(|x| x.t_s % 100.0 < 50.0).count();
        let trough_half = a.len() - peak_half;
        assert!(
            peak_half > trough_half,
            "diurnal shape: {peak_half} vs {trough_half}"
        );

        let flash = WorkloadTrace {
            seed: 5,
            horizon_s: 100.0,
            base_rate_hz: 1.0,
            mean_lifetime_s: 10.0,
            curve: WorkloadCurve::FlashCrowd {
                at_s: 40.0,
                duration_s: 10.0,
                multiplier: 10.0,
            },
        };
        flash.validate().unwrap();
        let f = flash.arrivals();
        let burst = f.iter().filter(|x| (40.0..50.0).contains(&x.t_s)).count() as f64;
        let outside = (f.len() as f64 - burst) / 9.0; // per-10 s baseline
        assert!(
            burst > 3.0 * outside,
            "flash crowd must dominate its window: {burst} vs {outside} per 10 s"
        );

        // Validation rejects the nonsense.
        for bad in [
            WorkloadTrace {
                horizon_s: 0.0,
                ..diurnal.clone()
            },
            WorkloadTrace {
                base_rate_hz: f64::NAN,
                ..diurnal.clone()
            },
            WorkloadTrace {
                curve: WorkloadCurve::Diurnal {
                    period_s: 100.0,
                    amplitude: 1.5,
                },
                ..diurnal.clone()
            },
            WorkloadTrace {
                curve: WorkloadCurve::FlashCrowd {
                    at_s: 0.0,
                    duration_s: 5.0,
                    multiplier: 0.5,
                },
                ..diurnal.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
        }
    }

    /// The 2mm app and a same-app snapshot of what a four-instance
    /// event fleet learned about it in 20 virtual seconds.
    fn taught_snapshot() -> (EnhancedApp, crate::snapshot::KnowledgeSnapshot) {
        use crate::snapshot::{KnowledgeSnapshot, SnapshotFingerprint};
        let toolchain = Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        };
        let enhanced = toolchain.enhance(App::TwoMm).unwrap();
        let mut teacher = EventFleet::new(event_config()).unwrap();
        teacher.spawn(&enhanced, &rank(), 13, 4);
        teacher.run_until(20.0);
        let snapshot = KnowledgeSnapshot {
            fingerprint: SnapshotFingerprint::of(&toolchain, App::TwoMm),
            epoch: teacher.knowledge_epoch(App::TwoMm).unwrap(),
            shard_epochs: Vec::new(),
            knowledge: teacher.learned_knowledge(App::TwoMm).unwrap(),
        };
        (enhanced, snapshot)
    }

    #[test]
    fn warm_start_seeds_event_pools() {
        // Learn something in one fleet, snapshot it, warm-boot another.
        let (enhanced, snapshot) = taught_snapshot();
        let mut warm = EventFleet::new(FleetConfig {
            warm_start: Some(snapshot),
            ..event_config()
        })
        .unwrap();
        warm.spawn(&enhanced, &rank(), 14, 2);
        // The pool booted from the learned state, not the design state.
        let boot = warm.learned_knowledge(App::TwoMm).unwrap();
        assert_ne!(boot, enhanced.knowledge);
        // The head re-validation burst is queued at boot and drains as
        // the warm instances step.
        let queued = warm.pools[0].burst.len();
        assert!(queued > 0, "warm boot must queue a validation burst");
        warm.run_until(5.0);
        assert!(warm.pools[0].burst.len() < queued, "burst must drain");
    }

    #[test]
    fn a_warm_fleet_that_does_not_explore_forces_no_steps() {
        // The lockstep rule: without sharing or without an exploration
        // interval, a warm boot queues no re-validation burst and no
        // step is forced.
        use std::sync::{Arc, Mutex};
        let (enhanced, snapshot) = taught_snapshot();
        for config in [
            FleetConfig {
                exploration_interval: 0,
                ..event_config()
            },
            FleetConfig {
                share_knowledge: false,
                ..event_config()
            },
        ] {
            let mut warm = EventFleet::new(FleetConfig {
                warm_start: Some(snapshot.clone()),
                ..config
            })
            .unwrap();
            // The `forced` flag of every step, in order.
            let steps = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&steps);
            warm.observe(Box::new(move |e: &FleetEvent| {
                if let FleetEvent::Stepped { forced, .. } = e {
                    sink.lock().unwrap().push(*forced);
                }
            }));
            warm.spawn(&enhanced, &rank(), 14, 2);
            warm.run_until(5.0);
            let steps = steps.lock().unwrap();
            assert!(!steps.is_empty(), "the warm fleet must step");
            assert_eq!(
                steps.iter().filter(|&&forced| forced).count(),
                0,
                "share_knowledge {}, exploration_interval {}: no step may be forced",
                warm.config().share_knowledge,
                warm.config().exploration_interval
            );
        }
    }
}
