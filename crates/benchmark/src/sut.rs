//! The adapter: every call the benchmark makes into the system under
//! test goes through this file, and only through the non-deprecated
//! surfaces (`Toolchain`, `ArtifactStore`, `FleetConfig::builder()`,
//! `FleetRuntime::run_until`/`observe`, `margot`). When the runtime API
//! changes, this is the one file the benchmark has to follow.

use margot::{ApplicationManager, AsRtm, Metric, MetricValues, SharedKnowledge};
use platform_sim::WorkloadProfile;
use socrates::transport::{Observation, WireMessage};
use socrates::{
    DistTopology, DistributedConfig, FleetConfig, FleetEvent, LinkConfig, Schedule, WorkloadCurve,
};
use std::sync::{Arc, Mutex};

pub use margot::{Knowledge, Rank};
pub use platform_sim::{KnobConfig, Machine};
pub use polybench::{App, Dataset};
pub use socrates::{
    ArtifactStore, DistributedFleet, EnhancedApp, EventFleet, Fleet, FleetRuntime as Runtime,
    SocratesError as Error, Toolchain, TraceSample, WorkloadTrace,
};

/// Result type of every fallible system call.
pub type Result<T> = std::result::Result<T, Error>;

// ---- design-time flow ---------------------------------------------------

/// The toolchain every workload enhances with: the defaults (bytecode
/// engine, the paper's 32-thread Xeon) at the given seed, dataset and
/// DSE repetitions; `two_cores` swaps in a 2-thread platform, which
/// shrinks the design space 16-fold for smoke runs.
pub fn toolchain(seed: u64, dataset: Dataset, dse_repetitions: u32, two_cores: bool) -> Toolchain {
    let mut tc = Toolchain {
        seed,
        dataset,
        dse_repetitions,
        ..Toolchain::default()
    };
    if two_cores {
        let topology = platform_sim::Topology {
            sockets: 1,
            cores_per_socket: 2,
            smt: 1,
        };
        tc.platform = socrates::Platform::with_topology("two-core", topology);
    }
    tc
}

/// `Toolchain::enhance` on a fresh store (the cold single-app path).
pub fn enhance(tc: &Toolchain, app: App) -> Result<EnhancedApp> {
    tc.enhance(app)
}

/// `Toolchain::enhance_all` on a fresh store (the parallel batch).
pub fn enhance_all(tc: &Toolchain, apps: &[App]) -> Result<Vec<EnhancedApp>> {
    tc.enhance_all(apps)
}

/// The serial reference: `enhance_with_store` app by app on one store.
pub fn enhance_serial(tc: &Toolchain, apps: &[App]) -> Result<Vec<EnhancedApp>> {
    let store = ArtifactStore::new();
    apps.iter()
        .map(|&app| tc.enhance_with_store(app, &store))
        .collect()
}

/// Whether the weaved program survives a `minic` print → parse round trip.
pub fn weaved_round_trips(e: &EnhancedApp) -> bool {
    minic::parse(&minic::print(&e.weaved)).is_ok_and(|tu| tu == e.weaved)
}

/// Whether every knowledge configuration resolves to a compiled version.
pub fn configs_resolve(e: &EnhancedApp) -> bool {
    e.knowledge
        .points()
        .iter()
        .all(|p| e.try_version_of(&p.config).is_ok())
}

/// Virtual seconds of kernel time the DSE profiled for `e`: every point's
/// mean execution time times the repetitions.
pub fn profiled_kernel_s(e: &EnhancedApp, dse_repetitions: u32) -> f64 {
    let t = Metric::exec_time();
    let per_rep: f64 = e
        .knowledge
        .points()
        .iter()
        .filter_map(|p| p.metric(&t))
        .sum();
    per_rep * f64::from(dse_repetitions)
}

/// Thread counts the DSE explores on the toolchain's platform.
pub fn thread_counts(tc: &Toolchain) -> Vec<u32> {
    (1..=tc.topology().logical_cpus()).collect()
}

// ---- per-stage store accessors (the traced run's design probes) ----------

/// `ArtifactStore::parsed`.
pub fn parsed(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<()> {
    store.parsed(tc, app).map(drop)
}

/// `ArtifactStore::kernel_features`.
pub fn features(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<()> {
    store.kernel_features(tc, app).map(drop)
}

/// `ArtifactStore::training_app` (one COBAYN corpus entry).
pub fn corpus_entry(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<()> {
    store.training_app(tc, app).map(drop)
}

/// `ArtifactStore::cobayn_model` (leave-one-out training).
pub fn cobayn_model(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<()> {
    store.cobayn_model(tc, app).map(drop)
}

/// `ArtifactStore::flag_predictions`.
pub fn predictions(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<()> {
    store.flag_predictions(tc, app).map(drop)
}

/// `ArtifactStore::weaved`; returns the weaved lines of code.
pub fn weave(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<usize> {
    store.weaved(tc, app).map(|w| w.metrics.weaved_loc)
}

/// A lowered kernel, as the store caches it.
pub type Kernel = Arc<socrates::CompiledKernel>;

/// `ArtifactStore::compiled_kernel` (lowering plus one build-time run).
pub fn compiled_kernel(
    store: &ArtifactStore,
    tc: &Toolchain,
    app: App,
    threads: u32,
) -> Result<Kernel> {
    store.compiled_kernel(tc, app, threads)
}

/// `CompiledKernel::run` (one more execution of a lowered kernel).
pub fn run_kernel(kernel: &Kernel) -> Result<()> {
    kernel.run().map(drop)
}

/// `ArtifactStore::profiled_knowledge`; returns the point count.
pub fn profile(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<usize> {
    store.profiled_knowledge(tc, app).map(|k| k.knowledge.len())
}

/// The canonical pipeline over the store (assembles from cached stages).
pub fn assemble(store: &ArtifactStore, tc: &Toolchain, app: App) -> Result<EnhancedApp> {
    tc.enhance_with_store(app, store)
}

/// Kernel builds and cache hits of a store.
pub fn kernel_counts(store: &ArtifactStore) -> (u64, u64) {
    let s = store.stats();
    (s.kernel_builds, s.kernel_hits)
}

// ---- runtime loop -------------------------------------------------------

/// The Thr/W² rank every runtime workload tunes for.
pub fn rank() -> Rank {
    Rank::throughput_per_watt2()
}

/// What the counting observer saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Kernel invocations.
    pub steps: u64,
    /// Arrivals.
    pub arrived: u64,
    /// Retirements.
    pub retired: u64,
    /// Virtual kernel seconds of every invocation.
    pub kernel_s: f64,
}

/// A counting observer shared with the runtime that feeds it.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<Mutex<Counts>>);

impl Counter {
    /// Counts so far.
    pub fn get(&self) -> Counts {
        *self.0.lock().expect("observer never panics")
    }
}

/// Registers `counter` on `runtime` through `FleetRuntime::observe`.
pub fn observe(runtime: &mut impl Runtime, counter: &Counter) {
    let counts = Arc::clone(&counter.0);
    runtime.observe(Box::new(move |event: &FleetEvent| {
        let mut c = counts.lock().expect("observer never panics");
        match *event {
            FleetEvent::Stepped { time_s, .. } => {
                c.steps += 1;
                c.kernel_s += time_s;
            }
            FleetEvent::Arrived { .. } => c.arrived += 1,
            FleetEvent::Retired { .. } => c.retired += 1,
            FleetEvent::Published { .. } => {}
        }
    }));
}

/// `FleetRuntime::run_until`.
pub fn run_until(runtime: &mut impl Runtime, t_s: f64) -> u64 {
    runtime.run_until(t_s)
}

/// The profiled platform with per-core dynamic power scaled by `factor`,
/// instantiated at `seed`.
pub fn drifted_machine(e: &EnhancedApp, factor: f64, seed: u64) -> Machine {
    e.platform.hotter(factor).machine(seed)
}

/// The app's own platform instantiated at `seed`.
pub fn machine(e: &EnhancedApp, seed: u64) -> Machine {
    e.platform.machine(seed)
}

/// A lockstep fleet (builder defaults) of `instances` on forks of `base`.
pub fn lockstep_fleet(e: &EnhancedApp, base: &Machine, instances: usize) -> Result<Fleet> {
    let mut fleet = Fleet::new(FleetConfig::builder().build()?)?;
    fleet.spawn_on(e, &rank(), base, instances);
    Ok(fleet)
}

/// Synchronized rounds a lockstep fleet has run.
pub fn lockstep_rounds(fleet: &Fleet) -> u64 {
    fleet.stats().rounds
}

/// Instances of a lockstep fleet that failed inside their step.
pub fn lockstep_failed(fleet: &Fleet) -> usize {
    fleet.failed_instances()
}

/// Every instance's execution trace, in instance order.
pub fn lockstep_traces(fleet: &Fleet) -> Vec<Vec<TraceSample>> {
    (0..fleet.len()).map(|id| fleet.trace(id)).collect()
}

/// A seeded diurnal arrival trace.
pub fn diurnal_trace(
    seed: u64,
    horizon_s: f64,
    base_rate_hz: f64,
    period_s: f64,
    mean_lifetime_s: f64,
) -> WorkloadTrace {
    WorkloadTrace {
        seed,
        horizon_s,
        base_rate_hz,
        mean_lifetime_s,
        curve: WorkloadCurve::Diurnal {
            period_s,
            amplitude: 0.6,
        },
    }
}

/// An event-driven fleet (builder defaults) with `trace` scheduled into
/// it; returns the fleet and the number of scheduled arrivals.
pub fn event_fleet(e: &EnhancedApp, trace: &WorkloadTrace) -> Result<(EventFleet, usize)> {
    let config = FleetConfig::builder()
        .schedule(Schedule::EventDriven)
        .build()?;
    let mut fleet = EventFleet::new(config)?;
    let arrivals = fleet.drive(trace, e, &rank())?;
    Ok((fleet, arrivals))
}

/// Event-fleet counters: (spawned, retired, events, stale drops, slots).
pub fn event_counts(fleet: &EventFleet) -> (u64, u64, u64, u64, usize) {
    let s = fleet.stats();
    (s.spawned, s.retired, s.events, s.stale_dropped, s.slots)
}

/// The learned knowledge of a lockstep fleet's pool for `app`.
pub fn learned_lockstep(fleet: &Fleet, app: App) -> Option<Knowledge<KnobConfig>> {
    fleet.learned_knowledge(app)
}

/// The learned knowledge of an event fleet's pool for `app`.
pub fn learned_event(fleet: &EventFleet, app: App) -> Option<Knowledge<KnobConfig>> {
    fleet.learned_knowledge(app)
}

/// A gossip fleet (fanout 2, no exploration) over a lossy link: drop
/// 0.3, duplication 0.1, latency 0..=2 ticks, seeded by `link_seed`,
/// with `nodes` instances on forks of the app's platform at
/// `machine_seed`.
pub fn gossip_fleet(
    e: &EnhancedApp,
    link_seed: u64,
    machine_seed: u64,
    nodes: usize,
) -> Result<DistributedFleet> {
    let dist = DistributedConfig {
        topology: DistTopology::Gossip { fanout: 2 },
        link: LinkConfig {
            seed: link_seed,
            min_latency: 0,
            max_latency: 2,
            drop_prob: 0.3,
            dup_prob: 0.1,
        },
        ..DistributedConfig::default()
    };
    let config = FleetConfig::builder()
        .exploration_interval(0)
        .distributed(Some(dist))?
        .build()?;
    let mut fleet = DistributedFleet::new(config, e)?;
    fleet.spawn(&rank(), machine_seed, nodes);
    Ok(fleet)
}

/// `DistributedFleet::drain`: repair rounds until every node agrees.
pub fn drain(fleet: &mut DistributedFleet) -> Result<u64> {
    fleet.drain()
}

/// Exchange counters of a distributed fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistCounts {
    /// Observations in the canonical log.
    pub ops: u64,
    /// Observations that fold rollbacks re-folded, across all replicas.
    pub refold_ops: u64,
    /// Encoded bytes handed to the transport.
    pub bytes_sent: u64,
    /// Encoded bytes delivered (and decoded).
    pub bytes_delivered: u64,
}

/// Exchange counters of `fleet`.
pub fn dist_counts(fleet: &DistributedFleet) -> DistCounts {
    let s = fleet.stats();
    DistCounts {
        ops: fleet.canonical_ops().len() as u64,
        refold_ops: s.refold_ops_replayed,
        bytes_sent: s.net.bytes_sent,
        bytes_delivered: s.net.bytes_delivered,
    }
}

/// Whether every node of a drained fleet holds the canonical
/// single-mutex `SharedKnowledge` fold of `canonical_ops()`.
pub fn nodes_match_reference(fleet: &DistributedFleet, e: &EnhancedApp) -> bool {
    let config = fleet.config();
    let reference = SharedKnowledge::new(e.knowledge.clone(), config.knowledge_window)
        .with_min_observations(config.min_observations)
        .with_shards(1);
    for op in fleet.canonical_ops() {
        reference.publish(&op.config, &op.observed);
    }
    let reference = reference.knowledge();
    fleet.converged() && (0..fleet.len()).all(|id| fleet.node_knowledge(id) == reference)
}

/// The final knowledge of a drained distributed fleet.
pub fn learned_dist(fleet: &DistributedFleet) -> Knowledge<KnobConfig> {
    fleet.authoritative_knowledge()
}

/// Noise-free Thr/W² of `config` on `machine`.
pub fn true_efficiency(machine: &Machine, e: &EnhancedApp, config: &KnobConfig) -> f64 {
    machine.expected(&e.profile, config).throughput_per_watt2()
}

// ---- runtime layers (the traced run's replay probes) ---------------------

/// One noisy kernel execution: (time s, power W).
pub fn execute(machine: &mut Machine, profile: &WorkloadProfile, cfg: &KnobConfig) -> (f64, f64) {
    let run = machine.execute(profile, cfg);
    (run.time_s, run.power_w)
}

/// `Machine::noise_factors_at`.
pub fn noise(machine: &Machine, stream: u64, step: u64) -> (f64, f64) {
    machine.noise_factors_at(stream, step)
}

/// The metric bundle of one execution.
pub fn observed(time_s: f64, power_w: f64) -> MetricValues {
    MetricValues::from_execution(time_s, power_w)
}

/// An AS-RTM over `knowledge` with the Thr/W² rank.
pub fn asrtm(knowledge: Knowledge<KnobConfig>) -> AsRtm<KnobConfig> {
    AsRtm::new(knowledge, rank())
}

/// `AsRtm::best`.
pub fn best(rtm: &AsRtm<KnobConfig>) -> Option<&KnobConfig> {
    rtm.best().map(|p| &p.config)
}

/// A MAPE-K manager with the adaptive binary's four monitors.
pub fn manager(knowledge: Knowledge<KnobConfig>) -> ApplicationManager<KnobConfig> {
    let mut m = ApplicationManager::new(knowledge, rank());
    for metric in [
        Metric::exec_time(),
        Metric::power(),
        Metric::throughput(),
        Metric::energy(),
    ] {
        m.add_monitor(metric, margot::DEFAULT_MONITOR_WINDOW);
    }
    m
}

/// One MAPE-K step: `update` then `observe_execution`.
pub fn mapek_step(
    m: &mut ApplicationManager<KnobConfig>,
    time_s: f64,
    power_w: f64,
) -> Option<KnobConfig> {
    let cfg = m.update();
    m.observe_execution(time_s, power_w);
    cfg
}

/// A shared knowledge base with the fleet defaults and `shards` shards.
pub fn shared(knowledge: Knowledge<KnobConfig>, shards: usize) -> SharedKnowledge<KnobConfig> {
    let d = FleetConfig::default();
    SharedKnowledge::new(knowledge, d.knowledge_window)
        .with_min_observations(d.min_observations)
        .with_shards(shards)
}

/// Default shard count of a fleet pool.
pub fn default_shards() -> usize {
    FleetConfig::default().knowledge_shards
}

/// `SharedKnowledge::publish_batch`.
pub fn publish_batch(
    shared: &SharedKnowledge<KnobConfig>,
    batch: &[(KnobConfig, MetricValues)],
) -> usize {
    shared.publish_batch(batch.iter().map(|(c, v)| (c, v)))
}

/// `SharedKnowledge::drain_changes_into`.
pub fn refresh(shared: &SharedKnowledge<KnobConfig>, cache: &mut Knowledge<KnobConfig>) -> usize {
    shared.drain_changes_into(cache).1
}

/// `SharedKnowledge::publish_into`.
pub fn publish_into(
    shared: &SharedKnowledge<KnobConfig>,
    cfg: &KnobConfig,
    obs: &MetricValues,
    cache: &mut Knowledge<KnobConfig>,
) -> bool {
    shared.publish_into(cfg, obs, cache).is_some()
}

/// `SharedKnowledge::publish` (the replica fold primitive).
pub fn publish(shared: &SharedKnowledge<KnobConfig>, cfg: &KnobConfig, obs: &MetricValues) -> bool {
    shared.publish(cfg, obs)
}

/// The effective knowledge of a shared base.
pub fn effective(shared: &SharedKnowledge<KnobConfig>) -> Knowledge<KnobConfig> {
    shared.knowledge()
}

/// One observation as it travels on the wire.
pub fn wire_observation(
    origin: u32,
    seq: u64,
    config: KnobConfig,
    observed: MetricValues,
) -> Observation {
    Observation {
        origin,
        seq,
        round: seq,
        config,
        observed,
    }
}

/// A wire frame carrying `ops`.
pub fn ops_message(ops: Vec<Observation>) -> WireMessage {
    WireMessage::Ops { ops }
}

/// `wire_to_bytes`.
pub fn encode(msg: &WireMessage) -> Result<Vec<u8>> {
    socrates::wire_to_bytes(msg)
}

/// `wire_from_bytes`.
pub fn decode(bytes: &[u8]) -> Result<WireMessage> {
    socrates::wire_from_bytes(bytes)
}
