//! The adaptive application at runtime: the MAPE-K loop the weaved
//! binary executes (paper Fig. 5).
//!
//! Each [`AdaptiveApplication::step`] mirrors one pass through the weaved
//! `main` loop body:
//!
//! ```c
//! margot_update(&__socrates_version, &__socrates_num_threads); // plan
//! margot_start_monitor();
//! kernel_wrapper(...);                                         // execute
//! margot_stop_monitor();                                       // monitor
//! margot_log();
//! ```
//!
//! The kernel executes on the simulated platform; time advances on a
//! virtual clock, so replaying the paper's 300-second trace takes
//! milliseconds of host time.

use crate::error::SocratesError;
use crate::toolchain::{fnv, EnhancedApp, FNV_OFFSET};
use margot::{ApplicationManager, Constraint, Knowledge, Metric, MetricValues, Rank};
use platform_sim::{EnergyMeter, KnobConfig, Machine, VirtualClock};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One kernel invocation in the execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Virtual time at invocation start, seconds.
    pub t_start_s: f64,
    /// Observed kernel duration, seconds.
    pub time_s: f64,
    /// Observed average power, watts.
    pub power_w: f64,
    /// The configuration the AS-RTM selected.
    pub config: KnobConfig,
    /// The dispatched clone version (`__socrates_version`).
    pub version: usize,
    /// Whether this invocation executed a coordinator-forced
    /// exploration configuration instead of the AS-RTM's plan (see
    /// [`AdaptiveApplication::step_forced`]).
    pub forced: bool,
}

impl TraceSample {
    /// The observation bundle this sample contributes to a knowledge
    /// base: the measured time and power with the derived throughput
    /// and energy EFPs — what a fleet instance publishes into a
    /// [`margot::SharedKnowledge`]. Uses the same definition as the
    /// MAPE-K monitors ([`MetricValues::from_execution`]).
    pub fn observed_metrics(&self) -> MetricValues {
        MetricValues::from_execution(self.time_s, self.power_w)
    }
}

/// An order-sensitive FNV-1a digest of a trace: every numeric field's
/// exact bit pattern plus the selected configuration and dispatched
/// version of every sample, in order. Two traces digest equal iff they
/// are bit-identical sample for sample — the cheap fingerprint the
/// equivalence suites compare instead of shipping whole traces around.
pub fn trace_digest(samples: &[TraceSample]) -> u64 {
    let mut digest = FNV_OFFSET;
    for s in samples {
        digest = fnv(digest, &s.t_start_s.to_bits().to_le_bytes());
        digest = fnv(digest, &s.time_s.to_bits().to_le_bytes());
        digest = fnv(digest, &s.power_w.to_bits().to_le_bytes());
        digest = fnv(digest, format!("{:?}", s.config).as_bytes());
        digest = fnv(digest, &(s.version as u64).to_le_bytes());
        digest = fnv(digest, &[u8::from(s.forced)]);
    }
    digest
}

/// A runnable adaptive application (enhanced binary + platform).
#[derive(Debug, Clone)]
pub struct AdaptiveApplication {
    /// The enhanced binary, shared with the other instances a fleet
    /// booted from the same app.
    enhanced: Arc<EnhancedApp>,
    manager: ApplicationManager<KnobConfig>,
    machine: Machine,
    clock: VirtualClock,
    meter: EnergyMeter,
    trace: Vec<TraceSample>,
    feedback_enabled: bool,
    /// The last planned and the last forced dispatch. The AS-RTM's pick
    /// is usually stable across steps, the version table lookup is a
    /// linear scan, and a configuration's expectation on one machine
    /// never changes. Forced exploration steps keep their own entry, so
    /// they do not evict the planned one.
    planned: Option<Dispatch>,
    forced: Option<Dispatch>,
}

/// One memoised dispatch: a configuration, its clone version and its
/// noise-free `(time s, power W)` from [`Machine::expected`].
#[derive(Debug, Clone)]
struct Dispatch {
    config: KnobConfig,
    version: usize,
    expected: (f64, f64),
}

impl AdaptiveApplication {
    /// Boots the adaptive binary: loads the knowledge (margot_init) and
    /// registers the paper's monitors (time, power, throughput, energy).
    ///
    /// The machine is instantiated from the platform the toolchain
    /// profiled for ([`EnhancedApp::platform`]), so non-Xeon scenarios
    /// deploy on the hardware they were tuned for.
    pub fn new(enhanced: EnhancedApp, rank: Rank, seed: u64) -> Self {
        let machine = enhanced.platform.machine(seed);
        Self::with_machine(enhanced, rank, machine)
    }

    /// Boots the adaptive binary on a *specific* machine — which may
    /// differ from the one used for profiling. This is how the ablation
    /// studies model deployment drift (the machine running hotter or
    /// slower than the design-time knowledge assumes).
    pub fn with_machine(enhanced: EnhancedApp, rank: Rank, machine: Machine) -> Self {
        let knowledge = enhanced.knowledge.clone();
        Self::with_knowledge(Arc::new(enhanced), knowledge, rank, machine)
    }

    /// [`with_machine`](Self::with_machine), planning over `knowledge`
    /// from the start instead of the design knowledge: a fleet boots
    /// its instances straight onto the pool's cache, whose rank index
    /// is then reused instead of built for knowledge about to be
    /// replaced.
    pub(crate) fn with_knowledge(
        enhanced: Arc<EnhancedApp>,
        knowledge: Knowledge<KnobConfig>,
        rank: Rank,
        machine: Machine,
    ) -> Self {
        let mut manager = ApplicationManager::new(knowledge, rank);
        for metric in [
            Metric::exec_time(),
            Metric::power(),
            Metric::throughput(),
            Metric::energy(),
        ] {
            manager.add_monitor(metric, margot::DEFAULT_MONITOR_WINDOW);
        }
        AdaptiveApplication {
            enhanced,
            manager,
            machine,
            clock: VirtualClock::new(),
            meter: EnergyMeter::new(),
            trace: Vec::new(),
            feedback_enabled: true,
            planned: None,
            forced: None,
        }
    }

    /// Dispatches `config` through the planned or the forced memo entry
    /// and runs it: the memoised expectation scaled by the machine's
    /// next noise factors, the arithmetic of [`Machine::execute`].
    /// Returns the clone version and the observed `(time s, power W)`.
    fn dispatch(
        &mut self,
        config: &KnobConfig,
        forced: bool,
    ) -> Result<(usize, f64, f64), SocratesError> {
        let entry = if forced {
            &mut self.forced
        } else {
            &mut self.planned
        };
        let dispatch = match entry {
            Some(d) if d.config == *config => d,
            _ => {
                let version = self.enhanced.try_version_of(config)?;
                let run = self.machine.expected(&self.enhanced.profile, config);
                entry.insert(Dispatch {
                    config: config.clone(),
                    version,
                    expected: (run.time_s, run.power_w),
                })
            }
        };
        let (time_s, power_w) = dispatch.expected;
        let (tn, pn) = self.machine.noise_factors();
        Ok((dispatch.version, time_s * tn, power_w * pn))
    }

    /// Enables or disables the monitor-feedback loop (the MAPE-K
    /// *Monitor/Analyse* phases). With feedback off, the AS-RTM trusts
    /// the design-time knowledge blindly — the ablation baseline.
    pub fn set_feedback(&mut self, enabled: bool) {
        self.feedback_enabled = enabled;
    }

    /// The enhanced application artefacts.
    pub fn enhanced(&self) -> &EnhancedApp {
        &self.enhanced
    }

    /// The mARGOt manager (to change requirements at runtime).
    pub fn manager_mut(&mut self) -> &mut ApplicationManager<KnobConfig> {
        &mut self.manager
    }

    /// The mARGOt manager, read-only.
    pub fn manager(&self) -> &ApplicationManager<KnobConfig> {
        &self.manager
    }

    /// Adopts a refreshed knowledge base — how a fleet instance pulls
    /// the discoveries other instances published into a
    /// [`margot::SharedKnowledge`]. The next [`step`](Self::step)
    /// re-plans over the new operating points.
    pub fn set_knowledge(&mut self, knowledge: Knowledge<KnobConfig>) {
        self.manager.set_knowledge(knowledge);
    }

    /// Adopts refreshed knowledge *incrementally*: patches only the
    /// points a [`margot::KnowledgeDelta`] says changed — the cheap
    /// adoption path a fleet instance takes when it kept up with the
    /// shared knowledge epoch. Bit-identical to
    /// [`set_knowledge`](Self::set_knowledge) with the delta's target
    /// snapshot. Returns `false` (and changes nothing) if the delta
    /// does not line up with the current knowledge; the caller must
    /// fall back to a full snapshot.
    #[must_use]
    pub fn apply_knowledge_delta(&mut self, delta: &margot::KnowledgeDelta<KnobConfig>) -> bool {
        self.manager.apply_knowledge_delta(delta)
    }

    /// Switches the optimisation rank (Fig. 5 requirement change).
    pub fn set_rank(&mut self, rank: Rank) {
        self.manager.set_rank(rank);
    }

    /// Atomically applies a named optimisation state (rank + constraint
    /// set) from a [`margot::StateRegistry`].
    pub fn apply_state(&mut self, state: &margot::OptimizationState) {
        self.manager.apply_state(state);
    }

    /// Adds a constraint (e.g. a power budget).
    pub fn add_constraint(&mut self, c: Constraint) {
        self.manager.add_constraint(c);
    }

    /// Current virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Total energy drawn so far, joules.
    pub fn energy_j(&self) -> f64 {
        self.meter.total_j()
    }

    /// The execution trace so far.
    pub fn trace(&self) -> &[TraceSample] {
        &self.trace
    }

    /// One MAPE-K iteration: plan, dispatch, execute, observe.
    ///
    /// # Panics
    ///
    /// Panics if the knowledge base is empty (the toolchain never
    /// produces one).
    pub fn step(&mut self) -> TraceSample {
        let config = self
            .manager
            .update()
            .expect("toolchain produced non-empty knowledge");
        let (version, time_s, power_w) = self
            .dispatch(&config, false)
            .expect("every knowledge config has a compiled version");
        let t_start_s = self.clock.now_s();
        self.clock.advance(time_s);
        self.meter.accumulate(power_w, time_s);
        if self.feedback_enabled {
            self.manager.observe_execution(time_s, power_w);
        }
        let sample = TraceSample {
            t_start_s,
            time_s,
            power_w,
            config,
            version,
            forced: false,
        };
        self.trace.push(sample.clone());
        sample
    }

    /// One *exploration* iteration: executes a coordinator-assigned
    /// configuration instead of the AS-RTM's pick (the fleet's
    /// cooperative online DSE). The observation is returned for the
    /// caller to publish into the shared knowledge; it does **not**
    /// feed this instance's own monitors, which track the configuration
    /// the AS-RTM selected.
    ///
    /// # Errors
    ///
    /// Returns a dispatch-stage [`SocratesError`] if `config` has no
    /// compiled clone version.
    pub fn step_forced(&mut self, config: KnobConfig) -> Result<TraceSample, SocratesError> {
        let (version, time_s, power_w) = self.dispatch(&config, true)?;
        let t_start_s = self.clock.now_s();
        self.clock.advance(time_s);
        self.meter.accumulate(power_w, time_s);
        let sample = TraceSample {
            t_start_s,
            time_s,
            power_w,
            config,
            version,
            forced: true,
        };
        self.trace.push(sample.clone());
        Ok(sample)
    }

    /// Runs kernel invocations until `duration_s` of virtual time has
    /// elapsed (measured from the current clock); returns the samples
    /// produced by this call.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive.
    pub fn run_for(&mut self, duration_s: f64) -> &[TraceSample] {
        assert!(duration_s > 0.0, "duration must be positive");
        let start_len = self.trace.len();
        let deadline = self.clock.now_s() + duration_s;
        while self.clock.now_s() < deadline {
            self.step();
        }
        &self.trace[start_len..]
    }

    /// Runs kernel invocations until the virtual clock reaches the
    /// **absolute** time `t_s` (a no-op if it is already there);
    /// returns the samples produced by this call. The virtual-clock
    /// twin of [`run_for`](Self::run_for), matching the fleet
    /// runtimes' [`crate::FleetRuntime::run_until`] convention.
    pub fn run_until(&mut self, t_s: f64) -> &[TraceSample] {
        let start_len = self.trace.len();
        while self.clock.now_s() < t_s {
            self.step();
        }
        &self.trace[start_len..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toolchain::Toolchain;
    use margot::Cmp;
    use polybench::{App, Dataset};

    fn adaptive(rank: Rank) -> AdaptiveApplication {
        let toolchain = Toolchain {
            dataset: Dataset::Medium,
            dse_repetitions: 1,
            ..Toolchain::default()
        };
        let enhanced = toolchain.enhance(App::TwoMm).unwrap();
        AdaptiveApplication::new(enhanced, rank, 1234)
    }

    #[test]
    fn step_advances_clock_and_energy() {
        let mut app = adaptive(Rank::maximize(Metric::throughput()));
        let s = app.step();
        assert!(s.time_s > 0.0);
        assert!((app.now_s() - s.time_s).abs() < 1e-12);
        assert!((app.energy_j() - s.time_s * s.power_w).abs() < 1e-9);
    }

    #[test]
    fn run_for_reaches_the_deadline() {
        let mut app = adaptive(Rank::maximize(Metric::throughput()));
        app.run_for(2.0);
        assert!(app.now_s() >= 2.0);
        assert!(!app.trace().is_empty());
    }

    #[test]
    fn trace_versions_match_configs() {
        let mut app = adaptive(Rank::maximize(Metric::throughput()));
        app.run_for(1.0);
        for s in app.trace() {
            assert_eq!(app.enhanced().try_version_of(&s.config).unwrap(), s.version);
        }
    }

    #[test]
    fn requirement_switch_moves_operating_point() {
        // The Fig. 5 scenario in miniature: Thr/W² → Throughput.
        let mut app = adaptive(Rank::throughput_per_watt2());
        app.run_for(3.0);
        let efficient_power = app.trace().last().unwrap().power_w;
        app.set_rank(Rank::maximize(Metric::throughput()));
        app.run_for(3.0);
        let performance_power = app.trace().last().unwrap().power_w;
        assert!(
            performance_power > efficient_power * 1.1,
            "power must rise after switching to the performance policy \
             ({efficient_power} -> {performance_power})"
        );
    }

    #[test]
    fn power_budget_is_respected_in_expectation() {
        let mut app = adaptive(Rank::minimize(Metric::exec_time()));
        app.add_constraint(Constraint::new(Metric::power(), Cmp::LessOrEqual, 80.0, 10));
        app.run_for(3.0);
        // Expected power of the selected points must respect the budget;
        // noisy observations may exceed it slightly.
        for s in app.trace() {
            assert!(
                s.power_w < 80.0 * 1.15,
                "sample at {:.1}s draws {:.1} W",
                s.t_start_s,
                s.power_w
            );
        }
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        use platform_sim::{BindingPolicy, CompilerOptions, OptLevel};
        let sample = |t: f64, time: f64, power: f64, tn: u32, version: usize| TraceSample {
            t_start_s: t,
            time_s: time,
            power_w: power,
            config: KnobConfig::new(
                CompilerOptions::level(OptLevel::O2),
                tn,
                BindingPolicy::Close,
            ),
            version,
            forced: false,
        };
        let a = vec![sample(0.0, 0.1, 90.0, 4, 0), sample(0.1, 0.2, 95.0, 8, 1)];
        assert_eq!(trace_digest(&a), trace_digest(&a.clone()));
        let swapped = vec![a[1].clone(), a[0].clone()];
        assert_ne!(trace_digest(&a), trace_digest(&swapped));
        let mut nudged = a.clone();
        nudged[1].power_w += 1e-9;
        assert_ne!(trace_digest(&a), trace_digest(&nudged));
        let mut forced = a;
        forced[0].forced = true;
        assert_ne!(trace_digest(&forced), trace_digest(&nudged));
        assert_eq!(trace_digest(&[]), trace_digest(&[]));
    }

    #[test]
    fn trace_time_is_monotone() {
        let mut app = adaptive(Rank::maximize(Metric::throughput()));
        app.run_for(1.5);
        let trace = app.trace();
        for w in trace.windows(2) {
            assert!(w[1].t_start_s > w[0].t_start_s);
        }
    }
}
