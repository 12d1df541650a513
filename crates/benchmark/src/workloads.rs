//! The four workloads, one per stress pattern of the two SOCRATES loops.
//!
//! Each run is one process and closed-loop: the host advances the
//! system as fast as it can, one call after the previous. A workload is
//! a set-up (repeated, to report its median) followed by repetitions of
//! a fixed unit of work, each repetition seeded `seed + i`, until the
//! measuring budget is spent. Every repetition does the same amount of
//! work, so a faster build finishes more repetitions of identical work
//! rather than reaching a different part of the trace.

use crate::probes::ProbeInputs;
use crate::stats;
use crate::sut::{self, App, Counter, Dataset, EnhancedApp, KnobConfig, Knowledge, Toolchain};
use crate::trace::Tracer;
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

pub use crate::sut::Result;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The design-time toolchain over all 12 applications.
    DesignBatch,
    /// The lockstep online loop under deployment drift.
    OnlineDrift,
    /// The event-driven runtime under diurnal churn.
    EventDiurnal,
    /// The distributed runtime over a lossy gossip network.
    DistGossip,
}

impl Kind {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Kind; 4] = [
        Kind::DesignBatch,
        Kind::OnlineDrift,
        Kind::EventDiurnal,
        Kind::DistGossip,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Kind::DesignBatch => "design-batch",
            Kind::OnlineDrift => "online-drift",
            Kind::EventDiurnal => "event-diurnal",
            Kind::DistGossip => "dist-gossip",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload at `size`, seeded by `seed`.
    pub fn build(self, seed: u64, size: &Size) -> Box<dyn Workload> {
        let tc = sut::toolchain(seed, size.dataset, size.dse_repetitions, size.two_cores);
        let common = Common {
            seed,
            size: size.clone(),
            tc,
            twomm: None,
        };
        match self {
            Kind::DesignBatch => Box::new(DesignBatch {
                common,
                reference: Vec::new(),
                kernel_s_per_batch: 0.0,
            }),
            Kind::OnlineDrift => Box::new(OnlineDrift {
                common,
                quality: BTreeMap::new(),
                learned: None,
            }),
            Kind::EventDiurnal => Box::new(EventDiurnal {
                common,
                first_rep: BTreeMap::new(),
                learned: None,
            }),
            Kind::DistGossip => Box::new(DistGossip {
                common,
                exact_reps: BTreeMap::new(),
                learned: None,
            }),
        }
    }
}

/// Workload sizes: the full benchmark, or a seconds-long smoke run for
/// the integration test.
#[derive(Debug, Clone, Serialize)]
pub struct Size {
    /// Polybench dataset the toolchain profiles.
    pub dataset: Dataset,
    /// Noisy DSE repetitions per configuration.
    pub dse_repetitions: u32,
    /// Profile for a 2-thread platform instead of the 32-thread Xeon.
    pub two_cores: bool,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// `design-batch` batches run whatever the budget: enough samples
    /// for its tail percentile.
    pub batch_min_reps: u64,
    /// Lockstep instances of `online-drift`.
    pub drift_instances: usize,
    /// Virtual seconds of one `online-drift` repetition (1-s slices).
    pub drift_horizon_s: u32,
    /// `online-drift` repetitions run whatever the budget; the regret
    /// and convergence numbers cover exactly these.
    pub drift_min_reps: u64,
    /// Arrival horizon of one `event-diurnal` trace, virtual seconds.
    pub event_horizon_s: f64,
    /// Base arrival rate of the diurnal trace, Hz.
    pub event_rate_hz: f64,
    /// Period of the diurnal curve, virtual seconds.
    pub event_period_s: f64,
    /// Mean instance lifetime, virtual seconds.
    pub event_lifetime_s: f64,
    /// Virtual seconds run past the arrival horizon.
    pub event_tail_s: f64,
    /// Virtual seconds per timed `run_until` slice.
    pub event_slice_s: f64,
    /// `event-diurnal` repetitions run whatever the budget; the exact
    /// counters cover the first.
    pub event_min_reps: u64,
    /// Gossip nodes of `dist-gossip`.
    pub dist_nodes: usize,
    /// Virtual seconds of one `dist-gossip` repetition (1-s slices).
    pub dist_horizon_s: u32,
    /// `dist-gossip` repetitions run whatever the budget; the drain and
    /// wire numbers cover exactly these.
    pub dist_min_reps: u64,
    /// Observations the runtime replay probes generate.
    pub probe_observations: usize,
    /// `AsRtm::best` calls the selection probe times.
    pub probe_best_calls: usize,
    /// Encode/decode repetitions of the codec probe.
    pub probe_codec_reps: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            dataset: Dataset::Large,
            dse_repetitions: 3,
            two_cores: false,
            setups: 5,
            batch_min_reps: 40,
            drift_instances: 8,
            drift_horizon_s: 300,
            drift_min_reps: 4,
            event_horizon_s: 30.0,
            event_rate_hz: 100.0,
            event_period_s: 15.0,
            event_lifetime_s: 5.0,
            event_tail_s: 10.0,
            event_slice_s: 0.05,
            event_min_reps: 2,
            dist_nodes: 16,
            dist_horizon_s: 20,
            dist_min_reps: 10,
            probe_observations: 4096,
            probe_best_calls: 2000,
            probe_codec_reps: 20,
        }
    }

    /// Seconds-long sizes for the integration test (debug builds).
    pub fn smoke() -> Size {
        Size {
            dataset: Dataset::Large,
            dse_repetitions: 1,
            two_cores: true,
            setups: 1,
            batch_min_reps: 1,
            drift_instances: 2,
            drift_horizon_s: 4,
            drift_min_reps: 1,
            event_horizon_s: 2.0,
            event_rate_hz: 20.0,
            event_period_s: 2.0,
            event_lifetime_s: 1.0,
            event_tail_s: 1.0,
            event_slice_s: 0.5,
            event_min_reps: 1,
            dist_nodes: 3,
            dist_horizon_s: 2,
            dist_min_reps: 1,
            probe_observations: 64,
            probe_best_calls: 16,
            probe_codec_reps: 2,
        }
    }
}

/// Correctness checks: how many were attempted, how many failed.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// What failed (the first few).
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// What a timed phase measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host microseconds per unit of work: one sample per timed call
    /// that did work.
    pub unit_us: Vec<f64>,
    /// Units of work done.
    pub units: f64,
    /// Host seconds inside timed calls.
    pub wall_s: f64,
    /// Virtual kernel seconds the timed calls executed or profiled.
    pub kernel_s: f64,
    /// Calls each layer served in the timed phase, keyed by probe name:
    /// the model behind `core.unexplained_pct`.
    pub calls: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Records one timed call that did `units` of work in `wall_s`.
    pub fn record(&mut self, wall_s: f64, units: u64, kernel_s: f64) {
        self.wall_s += wall_s;
        self.kernel_s += kernel_s;
        if units > 0 {
            self.units += units as f64;
            self.unit_us.push(wall_s * 1e6 / units as f64);
        }
    }

    /// Adds `n` calls of the layer probed as `key`.
    pub fn add_calls(&mut self, key: &'static str, n: f64) {
        *self.calls.entry(key).or_default() += n;
    }
}

/// Runs `f` inside a span named `name`; returns its result and wall
/// time, seconds.
pub fn timed<T>(tr: &Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = tr.span(name, f);
    (out, start.elapsed().as_secs_f64())
}

/// Registers a counting observer on `fleet`, then advances it to each of
/// `ends` (virtual seconds) in one timed `run_until` call apiece; returns
/// what the observer saw.
fn run_slices<R: sut::Runtime>(
    tr: &Tracer,
    fleet: &mut R,
    ends: impl IntoIterator<Item = f64>,
    m: &mut Measured,
) -> sut::Counts {
    let counter = Counter::default();
    sut::observe(fleet, &counter);
    let mut before = counter.get();
    for t in ends {
        let ((), dt) = timed(tr, "fleet.run_until", || {
            sut::run_until(fleet, t);
        });
        let now = counter.get();
        m.record(dt, now.steps - before.steps, now.kernel_s - before.kernel_s);
        before = now;
    }
    before
}

/// One workload: a set-up, then repetitions of a fixed unit of work.
pub trait Workload {
    /// Everything before the first timed call. Called several times;
    /// the last result is kept.
    fn setup(&mut self, tr: &Tracer) -> Result<()>;

    /// Untimed work the checks need after set-up (e.g. a reference).
    fn prepare(&mut self, _tr: &Tracer, _checks: &mut Checks) -> Result<()> {
        Ok(())
    }

    /// Repetition `i`: its timed calls land in `m`, its checks in
    /// `checks`. Running the same `i` twice does the same work.
    fn rep(&mut self, i: u64, tr: &Tracer, m: &mut Measured, checks: &mut Checks) -> Result<()>;

    /// Repetitions run whatever the budget: the exact numbers and the
    /// tail percentile need them.
    fn min_reps(&self) -> u64;

    /// The tail percentile of `unit_us`: the highest the minimum
    /// repetitions leave ten samples beyond. Fixed per workload, so a
    /// faster host (more samples) never reports a different percentile.
    fn tail_percentile(&self) -> f64;

    /// Deterministic numbers of the run: quality and exact counters.
    fn exact(&self) -> BTreeMap<&'static str, f64>;

    /// Inputs of the per-layer replay probes.
    fn probe_inputs(&self) -> ProbeInputs;

    /// Whether `core.unexplained_pct` is the design probe's stage gap
    /// (the timed phase *is* the pipeline) rather than the call model.
    fn timed_phase_is_pipeline(&self) -> bool {
        false
    }
}

/// State every workload shares.
struct Common {
    seed: u64,
    size: Size,
    tc: Toolchain,
    /// The set-up's enhanced 2mm.
    twomm: Option<EnhancedApp>,
}

impl Common {
    fn enhance_twomm(&mut self, tr: &Tracer) -> Result<&EnhancedApp> {
        let e = tr.span("toolchain.enhance", || sut::enhance(&self.tc, App::TwoMm))?;
        Ok(self.twomm.insert(e))
    }

    fn twomm(&self) -> &EnhancedApp {
        self.twomm
            .as_ref()
            .expect("set-up ran before the timed phase")
    }

    /// Probe inputs over `apps`, the run's final knowledge (2mm's
    /// design knowledge when the run learns none) and the app's own
    /// platform.
    fn probe_inputs(&self, apps: Vec<App>, learned: Option<&Knowledge<KnobConfig>>) -> ProbeInputs {
        let twomm = self.twomm().clone();
        ProbeInputs {
            toolchain: self.tc.clone(),
            apps,
            machine: sut::machine(&twomm, self.seed),
            knowledge: learned.unwrap_or(&twomm.knowledge).clone(),
            twomm,
            seed: self.seed,
            size: self.size.clone(),
        }
    }
}

// ---- design-batch ---------------------------------------------------------

/// `Toolchain::enhance_all(&App::ALL)` on a fresh store per batch.
struct DesignBatch {
    common: Common,
    reference: Vec<EnhancedApp>,
    kernel_s_per_batch: f64,
}

impl Workload for DesignBatch {
    fn setup(&mut self, tr: &Tracer) -> Result<()> {
        self.common.enhance_twomm(tr).map(drop)
    }

    fn prepare(&mut self, tr: &Tracer, checks: &mut Checks) -> Result<()> {
        let tc = &self.common.tc;
        self.reference = tr.span("toolchain.enhance_serial", || {
            sut::enhance_serial(tc, &App::ALL)
        })?;
        for e in &self.reference {
            checks.check(sut::weaved_round_trips(e), || {
                format!("{}: weaved program does not round-trip", e.app.name())
            });
            checks.check(sut::configs_resolve(e), || {
                format!("{}: a knowledge config has no version", e.app.name())
            });
        }
        self.kernel_s_per_batch = self
            .reference
            .iter()
            .map(|e| sut::profiled_kernel_s(e, tc.dse_repetitions))
            .sum();
        Ok(())
    }

    fn rep(&mut self, _i: u64, tr: &Tracer, m: &mut Measured, checks: &mut Checks) -> Result<()> {
        let tc = &self.common.tc;
        let (batch, dt) = timed(tr, "toolchain.enhance_all", || {
            sut::enhance_all(tc, &App::ALL)
        });
        let batch = batch?;
        m.record(dt, batch.len() as u64, self.kernel_s_per_batch);
        // Every batch equal to the reference is also equal to the
        // run's first batch.
        checks.check(batch == self.reference, || {
            "batch differs from the serial enhance_with_store path".to_string()
        });
        Ok(())
    }

    fn min_reps(&self) -> u64 {
        self.common.size.batch_min_reps
    }

    fn tail_percentile(&self) -> f64 {
        75.0
    }

    fn exact(&self) -> BTreeMap<&'static str, f64> {
        BTreeMap::from([
            ("apps", self.reference.len() as f64),
            ("profiled_kernel_s_per_batch", self.kernel_s_per_batch),
            (
                "weaved_loc",
                self.reference
                    .iter()
                    .map(|e| e.metrics.weaved_loc as f64)
                    .sum(),
            ),
        ])
    }

    fn probe_inputs(&self) -> ProbeInputs {
        self.common.probe_inputs(App::ALL.to_vec(), None)
    }

    fn timed_phase_is_pipeline(&self) -> bool {
        true
    }
}

// ---- online-drift ---------------------------------------------------------

/// Per-core dynamic power drift of the deployment machines.
const DRIFT_FACTOR: f64 = 1.6;

/// Virtual seconds at the end of a drift repetition the regret covers.
const REGRET_WINDOW_S: f64 = 100.0;

/// A lockstep fleet of 2mm instances on drifted machines.
struct OnlineDrift {
    common: Common,
    /// Per quality repetition: (regret %, median convergence s).
    quality: BTreeMap<u64, (f64, f64)>,
    learned: Option<Knowledge<KnobConfig>>,
}

impl OnlineDrift {
    fn boot(&self, tr: &Tracer, i: u64) -> Result<sut::Fleet> {
        let e = self.common.twomm();
        let machine = sut::drifted_machine(e, DRIFT_FACTOR, self.common.seed + i);
        tr.span("fleet.boot", || {
            sut::lockstep_fleet(e, &machine, self.common.size.drift_instances)
        })
    }

    /// Tail-window Thr/W² regret vs the noise-free oracle, and the median
    /// instance time to settle within 1.5% of it.
    fn quality(&self, traces: &[Vec<sut::TraceSample>]) -> (f64, f64) {
        let e = self.common.twomm();
        let oracle_machine = sut::drifted_machine(e, DRIFT_FACTOR, 0);
        let true_eff = |c: &KnobConfig| sut::true_efficiency(&oracle_machine, e, c);
        let oracle = e
            .knowledge
            .points()
            .iter()
            .map(|p| true_eff(&p.config))
            .fold(f64::MIN, f64::max);
        let horizon = f64::from(self.common.size.drift_horizon_s);
        let window_start = (horizon - REGRET_WINDOW_S).max(0.0);
        let tail: Vec<&sut::TraceSample> = traces
            .iter()
            .flatten()
            .filter(|s| !s.forced && s.t_start_s >= window_start)
            .collect();
        let n = tail.len().max(1) as f64;
        let mean_exec = tail.iter().map(|s| s.time_s).sum::<f64>() / n;
        let mean_power = tail.iter().map(|s| s.power_w).sum::<f64>() / n;
        let eff = (1.0 / mean_exec) / (mean_power * mean_power);
        let converge: Vec<f64> = traces
            .iter()
            .map(|t| {
                let planned = t
                    .iter()
                    .filter(|s| !s.forced)
                    .map(|s| (s.t_start_s, true_eff(&s.config)));
                stats::convergence_time_s(planned, oracle).min(horizon)
            })
            .collect();
        (100.0 * (oracle - eff) / oracle, stats::median(&converge))
    }
}

impl Workload for OnlineDrift {
    fn setup(&mut self, tr: &Tracer) -> Result<()> {
        self.common.enhance_twomm(tr)?;
        self.boot(tr, 0).map(drop)
    }

    fn rep(&mut self, i: u64, tr: &Tracer, m: &mut Measured, checks: &mut Checks) -> Result<()> {
        let mut fleet = self.boot(tr, i)?;
        let horizon = self.common.size.drift_horizon_s;
        let seen = run_slices(tr, &mut fleet, (1..=horizon).map(f64::from), m);
        let rounds = sut::lockstep_rounds(&fleet);
        m.add_calls("margot.update", seen.steps as f64);
        m.add_calls("platform.execute", seen.steps as f64);
        m.add_calls("margot.publish_batch", rounds as f64);
        m.add_calls("margot.refresh", rounds as f64);

        checks.check(sut::lockstep_failed(&fleet) == 0, || {
            format!("rep {i}: an instance failed")
        });
        let traces = sut::lockstep_traces(&fleet);
        let design: HashSet<&KnobConfig> = self
            .common
            .twomm()
            .knowledge
            .points()
            .iter()
            .map(|p| &p.config)
            .collect();
        checks.check(
            traces
                .iter()
                .flatten()
                .filter(|s| !s.forced)
                .all(|s| design.contains(&s.config)),
            || format!("rep {i}: a planned config is not a design point"),
        );
        let invocations: usize = traces.iter().map(Vec::len).sum();
        checks.check(invocations as u64 == seen.steps, || {
            format!(
                "rep {i}: observer saw {} steps, traces hold {invocations}",
                seen.steps
            )
        });
        if i < self.common.size.drift_min_reps {
            let q = self.quality(&traces);
            self.quality.insert(i, q);
        }
        self.learned = sut::learned_lockstep(&fleet, App::TwoMm);
        Ok(())
    }

    fn min_reps(&self) -> u64 {
        self.common.size.drift_min_reps
    }

    fn tail_percentile(&self) -> f64 {
        99.0
    }

    fn exact(&self) -> BTreeMap<&'static str, f64> {
        let regret: Vec<f64> = self.quality.values().map(|q| q.0).collect();
        let converge: Vec<f64> = self.quality.values().map(|q| q.1).collect();
        BTreeMap::from([
            ("quality_reps", self.quality.len() as f64),
            ("regret_pct", stats::median(&regret)),
            ("converge_s", stats::median(&converge)),
        ])
    }

    fn probe_inputs(&self) -> ProbeInputs {
        let mut inputs = self
            .common
            .probe_inputs(vec![App::TwoMm], self.learned.as_ref());
        inputs.machine = sut::drifted_machine(&inputs.twomm, DRIFT_FACTOR, self.common.seed);
        inputs
    }
}

// ---- event-diurnal --------------------------------------------------------

/// An event-driven fleet driven by a seeded diurnal arrival trace.
struct EventDiurnal {
    common: Common,
    first_rep: BTreeMap<&'static str, f64>,
    learned: Option<Knowledge<KnobConfig>>,
}

impl EventDiurnal {
    fn trace(&self, i: u64) -> sut::WorkloadTrace {
        let s = &self.common.size;
        sut::diurnal_trace(
            self.common.seed + i,
            s.event_horizon_s,
            s.event_rate_hz,
            s.event_period_s,
            s.event_lifetime_s,
        )
    }

    fn boot(&self, tr: &Tracer, i: u64) -> Result<(sut::EventFleet, usize)> {
        let e = self.common.twomm();
        let trace = self.trace(i);
        tr.span("fleet.boot", || sut::event_fleet(e, &trace))
    }
}

impl Workload for EventDiurnal {
    fn setup(&mut self, tr: &Tracer) -> Result<()> {
        self.common.enhance_twomm(tr)?;
        self.boot(tr, 0).map(drop)
    }

    fn rep(&mut self, i: u64, tr: &Tracer, m: &mut Measured, checks: &mut Checks) -> Result<()> {
        let (mut fleet, arrivals) = self.boot(tr, i)?;
        let s = &self.common.size;
        let slices = ((s.event_horizon_s + s.event_tail_s) / s.event_slice_s).round() as u64;
        let ends = (1..=slices).map(|k| k as f64 * s.event_slice_s);
        let seen = run_slices(tr, &mut fleet, ends, m);
        m.add_calls("margot.publish_into", seen.steps as f64);
        m.add_calls("platform.noise", seen.steps as f64);

        let (spawned, retired, events, stale, slots) = sut::event_counts(&fleet);
        checks.check(spawned == arrivals as u64, || {
            format!("rep {i}: spawned {spawned} of {arrivals} arrivals")
        });
        checks.check(spawned == seen.arrived && retired == seen.retired, || {
            format!("rep {i}: observer membership disagrees with the fleet stats")
        });
        let accounted = seen.steps + seen.arrived + seen.retired + stale;
        checks.check(events == accounted, || {
            format!("rep {i}: {events} events but steps+arrivals+retirements+stale = {accounted}")
        });
        if i == 0 {
            self.first_rep = BTreeMap::from([
                ("arrivals", arrivals as f64),
                ("events", events as f64),
                ("steps", seen.steps as f64),
                ("retired", retired as f64),
                ("stale_dropped", stale as f64),
                ("peak_slots", slots as f64),
            ]);
        }
        self.learned = sut::learned_event(&fleet, App::TwoMm);
        Ok(())
    }

    fn min_reps(&self) -> u64 {
        self.common.size.event_min_reps
    }

    fn tail_percentile(&self) -> f64 {
        99.0
    }

    fn exact(&self) -> BTreeMap<&'static str, f64> {
        self.first_rep.clone()
    }

    fn probe_inputs(&self) -> ProbeInputs {
        self.common
            .probe_inputs(vec![App::TwoMm], self.learned.as_ref())
    }
}

// ---- dist-gossip ----------------------------------------------------------

/// A gossip fleet over a lossy, duplicating, reordering link.
struct DistGossip {
    common: Common,
    /// Per exact repetition: (drain rounds, bytes sent, invocations).
    exact_reps: BTreeMap<u64, (u64, u64, u64)>,
    learned: Option<Knowledge<KnobConfig>>,
}

impl DistGossip {
    fn boot(&self, tr: &Tracer, i: u64) -> Result<sut::DistributedFleet> {
        let e = self.common.twomm();
        let seed = self.common.seed + i;
        tr.span("fleet.boot", || {
            sut::gossip_fleet(e, seed, seed, self.common.size.dist_nodes)
        })
    }
}

impl Workload for DistGossip {
    fn setup(&mut self, tr: &Tracer) -> Result<()> {
        self.common.enhance_twomm(tr)?;
        self.boot(tr, 0).map(drop)
    }

    fn rep(&mut self, i: u64, tr: &Tracer, m: &mut Measured, checks: &mut Checks) -> Result<()> {
        let mut fleet = self.boot(tr, i)?;
        let horizon = self.common.size.dist_horizon_s;
        let seen = run_slices(tr, &mut fleet, (1..=horizon).map(f64::from), m);
        let (drained, dt) = timed(tr, "fleet.drain", || sut::drain(&mut fleet));
        let drain_rounds = drained?;
        m.record(dt, 0, 0.0);

        let net = sut::dist_counts(&fleet);
        let nodes = self.common.size.dist_nodes as f64;
        m.add_calls("margot.update", seen.steps as f64);
        m.add_calls("platform.execute", seen.steps as f64);
        m.add_calls(
            "margot.fold",
            net.ops as f64 * nodes + net.refold_ops as f64,
        );
        m.add_calls("transport.encode_byte", net.bytes_sent as f64);
        m.add_calls("transport.decode_byte", net.bytes_delivered as f64);

        checks.check(
            sut::nodes_match_reference(&fleet, self.common.twomm()),
            || format!("rep {i}: a node diverged from the canonical single-mutex fold"),
        );
        if i < self.common.size.dist_min_reps {
            self.exact_reps
                .insert(i, (drain_rounds, net.bytes_sent, seen.steps));
        }
        self.learned = Some(sut::learned_dist(&fleet));
        Ok(())
    }

    fn min_reps(&self) -> u64 {
        self.common.size.dist_min_reps
    }

    fn tail_percentile(&self) -> f64 {
        95.0
    }

    fn exact(&self) -> BTreeMap<&'static str, f64> {
        let (drain, bytes, inv) = self
            .exact_reps
            .values()
            .fold((0, 0, 0), |(d, b, n), &(dr, by, iv)| {
                (d + dr, b + by, n + iv)
            });
        BTreeMap::from([
            ("exact_reps", self.exact_reps.len() as f64),
            ("drain_rounds", drain as f64),
            ("wire_bytes_per_inv", bytes as f64 / inv.max(1) as f64),
        ])
    }

    fn probe_inputs(&self) -> ProbeInputs {
        self.common
            .probe_inputs(vec![App::TwoMm], self.learned.as_ref())
    }
}
