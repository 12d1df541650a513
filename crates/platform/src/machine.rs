//! The simulated machine: composes topology, timing, power and flag models
//! and adds measurement noise, playing the role of the paper's NUMA
//! testbed (2× Xeon E5-2630 v3, RAPL power readings).

use crate::config::KnobConfig;
use crate::flags::FlagEffectModel;
use crate::power::PowerParams;
use crate::timing::{TimingBreakdown, TimingParams};
use crate::topology::{Placement, Topology};
use crate::workload::WorkloadProfile;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The observable outcome of one kernel invocation — exactly what the
/// paper's monitors (timers + RAPL) would report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Execution {
    /// Wall-clock duration, seconds.
    pub time_s: f64,
    /// Average machine power over the run, watts.
    pub power_w: f64,
    /// Energy, joules (`time_s * power_w`).
    pub energy_j: f64,
    /// Where the threads ran.
    pub placement: Placement,
    /// Noise-free timing phases (for tests and model inspection).
    pub breakdown: TimingBreakdown,
}

impl Execution {
    /// Throughput in kernel invocations per second.
    pub fn throughput(&self) -> f64 {
        1.0 / self.time_s
    }

    /// The paper's energy-efficiency rank metric, Throughput / Watt².
    pub fn throughput_per_watt2(&self) -> f64 {
        self.throughput() / (self.power_w * self.power_w)
    }
}

/// Simulated dual-socket NUMA machine.
///
/// # Examples
///
/// ```
/// use platform_sim::{Machine, WorkloadProfile, KnobConfig, CompilerOptions, OptLevel, BindingPolicy};
///
/// let mut machine = Machine::xeon_e5_2630_v3(42);
/// let kernel = WorkloadProfile::builder("demo").flops(1e9).bytes(1e8).build();
/// let cfg = KnobConfig::new(CompilerOptions::level(OptLevel::O2), 8, BindingPolicy::Close);
/// let run = machine.execute(&kernel, &cfg);
/// assert!(run.time_s > 0.0 && run.power_w > 40.0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    timing: TimingParams,
    power: PowerParams,
    flags: FlagEffectModel,
    noise: NoiseParams,
    /// The construction seed, kept so [`Machine::fork`] can derive
    /// independent noise streams regardless of how much of `rng` has
    /// already been consumed.
    seed: u64,
    rng: ChaCha8Rng,
}

/// Measurement-noise configuration (multiplicative log-normal).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// Sigma of the time noise (0 disables).
    pub time_sigma: f64,
    /// Sigma of the power noise (0 disables).
    pub power_sigma: f64,
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams {
            time_sigma: 0.025,
            power_sigma: 0.012,
        }
    }
}

impl Machine {
    /// Creates the paper's platform with the given RNG seed.
    pub fn xeon_e5_2630_v3(seed: u64) -> Self {
        Machine {
            topology: Topology::xeon_e5_2630_v3(),
            timing: TimingParams::default(),
            power: PowerParams::default(),
            flags: FlagEffectModel::new(),
            noise: NoiseParams::default(),
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The seed this machine was constructed with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Forks a machine with an identical platform model but an
    /// independent noise stream derived from `(self.seed, stream)`.
    ///
    /// The derivation depends only on the construction seed — not on
    /// how many executions the parent has already performed — so a set
    /// of forks is reproducible no matter where or in which order the
    /// forks run. This is what lets the DSE engine profile operating
    /// points across worker threads while staying bit-identical to a
    /// serial sweep.
    pub fn fork(&self, stream: u64) -> Self {
        // Hash seed and stream *sequentially* (not `seed ^ h(stream)`):
        // XOR composition would make nested forks commute —
        // `m.fork(a).fork(b) == m.fork(b).fork(a)` and
        // `m.fork(x).fork(x) == m` — silently correlating experiments.
        let mut state = self.seed;
        let hashed_seed = rand::split_mix_64(&mut state);
        let mut state = hashed_seed.wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let derived = rand::split_mix_64(&mut state);
        let mut fork = self.clone();
        fork.seed = derived;
        fork.rng = ChaCha8Rng::seed_from_u64(derived);
        fork
    }

    /// Builder-style: replaces the topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Builder-style: replaces the power coefficients (used by ablation
    /// studies to model a machine that runs hotter/cooler than profiled).
    pub fn with_power_params(mut self, power: PowerParams) -> Self {
        self.power = power;
        self
    }

    /// Builder-style: replaces the timing coefficients.
    pub fn with_timing_params(mut self, timing: TimingParams) -> Self {
        self.timing = timing;
        self
    }

    /// Builder-style: replaces the noise configuration.
    pub fn with_noise(mut self, noise: NoiseParams) -> Self {
        self.noise = noise;
        self
    }

    /// Builder-style: disables measurement noise entirely.
    pub fn noiseless(self) -> Self {
        self.with_noise(NoiseParams {
            time_sigma: 0.0,
            power_sigma: 0.0,
        })
    }

    /// The machine topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The timing coefficients.
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The power coefficients.
    pub fn power(&self) -> &PowerParams {
        &self.power
    }

    /// Runs one kernel invocation with measurement noise: the
    /// [`expected`](Self::expected) outcome with its time and power
    /// scaled by the next [`noise_factors`](Self::noise_factors) pair.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tn` is out of `1..=logical_cpus()` (same contract as
    /// [`Topology::place`]).
    pub fn execute(&mut self, w: &WorkloadProfile, cfg: &KnobConfig) -> Execution {
        let mut exec = self.expected(w, cfg);
        let (tn, pn) = self.noise_factors();
        exec.time_s *= tn;
        exec.power_w *= pn;
        exec.energy_j = exec.time_s * exec.power_w;
        exec
    }

    /// Draws the multiplicative `(time, power)` noise factors of the
    /// next invocation from this machine's noise stream: the pair
    /// [`execute`](Self::execute) draws, in the same order, so a caller
    /// that repeats one configuration can compute the expectation once
    /// and scale it by successive pairs. The stateful twin of
    /// [`noise_factors_at`](Self::noise_factors_at).
    pub fn noise_factors(&mut self) -> (f64, f64) {
        let tn = lognormal(&mut self.rng, self.noise.time_sigma);
        let pn = lognormal(&mut self.rng, self.noise.power_sigma);
        (tn, pn)
    }

    /// The multiplicative `(time, power)` noise factors of invocation
    /// `step` on noise stream `stream` — **stateless** random access
    /// into the noise sequence, keyed off this machine's seed.
    ///
    /// An event-driven runtime with a million sparse instances cannot
    /// afford one forked [`Machine`] (and mutable RNG) per instance;
    /// instead it keeps one base machine per pool and derives each
    /// instance's noise on demand: `stream` plays the role of the
    /// [`fork`](Self::fork) stream id and `step` the invocation index
    /// within it. The derivation mirrors `fork` (hash the seed, mix the
    /// stream, then mix the step with a distinct odd constant), so
    /// distinct `(stream, step)` pairs draw decorrelated factors and
    /// the same pair always replays bit-identically.
    pub fn noise_factors_at(&self, stream: u64, step: u64) -> (f64, f64) {
        let mut state = self.seed;
        let hashed_seed = rand::split_mix_64(&mut state);
        let mut state = hashed_seed.wrapping_add(stream.wrapping_mul(0xA076_1D64_78BD_642F));
        let derived = rand::split_mix_64(&mut state);
        let mut state = derived.wrapping_add(step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let per_step = rand::split_mix_64(&mut state);
        let mut rng = ChaCha8Rng::seed_from_u64(per_step);
        let tn = lognormal(&mut rng, self.noise.time_sigma);
        let pn = lognormal(&mut rng, self.noise.power_sigma);
        (tn, pn)
    }

    /// The noise-free expected outcome (model ground truth).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.tn` is out of `1..=logical_cpus()`.
    pub fn expected(&self, w: &WorkloadProfile, cfg: &KnobConfig) -> Execution {
        let placement = self.topology.place(cfg.tn, cfg.bp);
        let breakdown = self
            .timing
            .breakdown(w, cfg, &placement, &self.topology, &self.flags);
        let time_s = breakdown.total_s();
        let power_w =
            self.power
                .average_power(w, cfg, &placement, &breakdown, &self.timing, &self.flags);
        Execution {
            time_s,
            power_w,
            energy_j: time_s * power_w,
            placement,
            breakdown,
        }
    }
}

fn lognormal<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    // Box-Muller from two uniforms; ChaCha8 keeps this reproducible.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BindingPolicy, CompilerOptions, KnobConfig, OptLevel};

    fn kernel() -> WorkloadProfile {
        WorkloadProfile::builder("2mm-like")
            .flops(2.5e9)
            .bytes(6e8)
            .parallel_fraction(0.97)
            .build()
    }

    fn cfg(level: OptLevel, tn: u32, bp: BindingPolicy) -> KnobConfig {
        KnobConfig::new(CompilerOptions::level(level), tn, bp)
    }

    #[test]
    fn expected_is_deterministic() {
        let m = Machine::xeon_e5_2630_v3(1);
        let w = kernel();
        let c = cfg(OptLevel::O3, 16, BindingPolicy::Close);
        assert_eq!(m.expected(&w, &c), m.expected(&w, &c));
    }

    #[test]
    fn same_seed_same_noisy_trace() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Spread);
        let mut m1 = Machine::xeon_e5_2630_v3(7);
        let mut m2 = Machine::xeon_e5_2630_v3(7);
        for _ in 0..5 {
            assert_eq!(m1.execute(&w, &c), m2.execute(&w, &c));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Spread);
        let mut m1 = Machine::xeon_e5_2630_v3(1);
        let mut m2 = Machine::xeon_e5_2630_v3(2);
        assert_ne!(m1.execute(&w, &c).time_s, m2.execute(&w, &c).time_s);
    }

    #[test]
    fn noise_is_small_and_centred() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Close);
        let mut m = Machine::xeon_e5_2630_v3(3);
        let expected = m.expected(&w, &c).time_s;
        let n = 300;
        let mean: f64 = (0..n).map(|_| m.execute(&w, &c).time_s).sum::<f64>() / f64::from(n);
        assert!(
            (mean / expected - 1.0).abs() < 0.01,
            "mean ratio {}",
            mean / expected
        );
    }

    #[test]
    fn noiseless_machine_reports_expectation() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 4, BindingPolicy::Close);
        let mut m = Machine::xeon_e5_2630_v3(4).noiseless();
        let e = m.expected(&w, &c);
        assert_eq!(m.execute(&w, &c), e);
    }

    #[test]
    fn forks_are_deterministic() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Spread);
        let mut parent = Machine::xeon_e5_2630_v3(7);
        // Consuming the parent's stream must not change what forks see.
        let before = parent.fork(3).execute(&w, &c);
        let _ = parent.execute(&w, &c);
        let after = parent.fork(3).execute(&w, &c);
        assert_eq!(before, after);
        // And forks of equal-seeded machines agree.
        let other = Machine::xeon_e5_2630_v3(7);
        assert_eq!(other.fork(3).execute(&w, &c), before);
    }

    #[test]
    fn distinct_streams_get_distinct_noise() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Spread);
        let parent = Machine::xeon_e5_2630_v3(7);
        let a = parent.fork(0).execute(&w, &c);
        let b = parent.fork(1).execute(&w, &c);
        assert_ne!(a.time_s, b.time_s);
    }

    #[test]
    fn nested_forks_do_not_commute_or_cycle() {
        let parent = Machine::xeon_e5_2630_v3(7);
        // fork(a).fork(b) must differ from fork(b).fork(a) …
        assert_ne!(parent.fork(1).fork(2).seed(), parent.fork(2).fork(1).seed());
        // … and fork(x).fork(x) must not replay the parent's stream.
        assert_ne!(parent.fork(3).fork(3).seed(), parent.seed());
    }

    #[test]
    fn execute_is_the_expectation_scaled_by_the_next_noise_factors() {
        let w = kernel();
        let c = cfg(OptLevel::O2, 8, BindingPolicy::Spread);
        let mut run = Machine::xeon_e5_2630_v3(7);
        let mut draw = Machine::xeon_e5_2630_v3(7);
        let e = draw.expected(&w, &c);
        for _ in 0..5 {
            let got = run.execute(&w, &c);
            let (tn, pn) = draw.noise_factors();
            assert_eq!(got.time_s.to_bits(), (e.time_s * tn).to_bits());
            assert_eq!(got.power_w.to_bits(), (e.power_w * pn).to_bits());
        }
        assert_eq!(
            Machine::xeon_e5_2630_v3(7).noiseless().noise_factors(),
            (1.0, 1.0)
        );
    }

    #[test]
    fn noise_factors_at_is_a_pure_function() {
        let m = Machine::xeon_e5_2630_v3(7);
        assert_eq!(m.noise_factors_at(3, 11), m.noise_factors_at(3, 11));
        // Equal-seeded machines agree; the call never mutates state.
        let twin = Machine::xeon_e5_2630_v3(7);
        assert_eq!(m.noise_factors_at(0, 0), twin.noise_factors_at(0, 0));
    }

    #[test]
    fn noise_factors_decorrelate_streams_and_steps() {
        let m = Machine::xeon_e5_2630_v3(7);
        assert_ne!(m.noise_factors_at(0, 0), m.noise_factors_at(1, 0));
        assert_ne!(m.noise_factors_at(0, 0), m.noise_factors_at(0, 1));
        // (stream, step) must not collapse onto (step, stream).
        assert_ne!(m.noise_factors_at(1, 2), m.noise_factors_at(2, 1));
        // Different base seeds see different noise sequences.
        assert_ne!(
            m.noise_factors_at(4, 9),
            Machine::xeon_e5_2630_v3(8).noise_factors_at(4, 9)
        );
    }

    #[test]
    fn noise_factors_share_the_fork_lognormal_model() {
        // Factors are lognormal with the machine's sigmas: centred near
        // one, and degenerate (exactly one) on a noiseless machine.
        let m = Machine::xeon_e5_2630_v3(3);
        let n = 400u64;
        let mean: f64 = (0..n).map(|s| m.noise_factors_at(0, s).0).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "time-factor mean {mean}");
        let silent = Machine::xeon_e5_2630_v3(3).noiseless();
        assert_eq!(silent.noise_factors_at(5, 5), (1.0, 1.0));
    }

    #[test]
    fn fork_keeps_the_platform_model() {
        let w = kernel();
        let c = cfg(OptLevel::O3, 16, BindingPolicy::Close);
        let parent = Machine::xeon_e5_2630_v3(9).noiseless();
        let fork = parent.fork(5);
        assert_eq!(parent.expected(&w, &c), fork.expected(&w, &c));
    }

    #[test]
    fn energy_is_time_times_power() {
        let w = kernel();
        let c = cfg(OptLevel::O3, 32, BindingPolicy::Spread);
        let mut m = Machine::xeon_e5_2630_v3(5);
        let e = m.execute(&w, &c);
        assert!((e.energy_j - e.time_s * e.power_w).abs() < 1e-9);
    }

    #[test]
    fn best_time_config_has_many_threads() {
        let m = Machine::xeon_e5_2630_v3(6);
        let w = kernel();
        let mut best = (f64::INFINITY, 0u32);
        for tn in 1..=32 {
            for bp in BindingPolicy::ALL {
                let e = m.expected(&w, &cfg(OptLevel::O3, tn, bp));
                if e.time_s < best.0 {
                    best = (e.time_s, tn);
                }
            }
        }
        assert!(best.1 >= 16, "best thread count {} too low", best.1);
    }

    #[test]
    fn throughput_per_watt2_prefers_mid_power_configs() {
        // The Thr/W^2 rank must not pick the max-power point: the square
        // penalises power hard, which is what drives Fig. 5's switches.
        let m = Machine::xeon_e5_2630_v3(8);
        let w = kernel();
        let all: Vec<Execution> = (1..=32)
            .flat_map(|tn| BindingPolicy::ALL.into_iter().map(move |bp| (tn, bp)))
            .map(|(tn, bp)| m.expected(&w, &cfg(OptLevel::O3, tn, bp)))
            .collect();
        let best_perf = all
            .iter()
            .min_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("finite"))
            .expect("non-empty");
        let best_eff = all
            .iter()
            .max_by(|a, b| {
                a.throughput_per_watt2()
                    .partial_cmp(&b.throughput_per_watt2())
                    .expect("finite")
            })
            .expect("non-empty");
        assert!(
            best_eff.power_w < best_perf.power_w,
            "efficiency point must be cooler"
        );
        assert!(best_eff.time_s > best_perf.time_s, "and slower");
    }

    #[test]
    fn execution_time_envelope_is_paperlike() {
        // Slowest-selected / fastest-selected ratio in Fig. 4 is ~14x.
        let m = Machine::xeon_e5_2630_v3(9);
        let w = kernel();
        let slow = m
            .expected(&w, &cfg(OptLevel::Os, 1, BindingPolicy::Close))
            .time_s;
        let fast = (1..=32)
            .flat_map(|tn| BindingPolicy::ALL.into_iter().map(move |bp| (tn, bp)))
            .map(|(tn, bp)| m.expected(&w, &cfg(OptLevel::O3, tn, bp)).time_s)
            .fold(f64::INFINITY, f64::min);
        let ratio = slow / fast;
        assert!((8.0..40.0).contains(&ratio), "dynamic range ratio {ratio}");
    }
}
