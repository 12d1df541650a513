//! # dse — design-space exploration for SOCRATES
//!
//! Builds the autotuning space (CO × TN × BP), explores it against the
//! simulated platform and produces the mARGOt application knowledge.
//! The paper uses a full-factorial analysis; the exploration driver is
//! agnostic to the enumeration strategy (full factorial or random
//! subsampling), as Section III notes.
//!
//! [`profile`] sweeps the configurations in order on the calling
//! thread. Each configuration is measured on a [`Machine::fork`] whose
//! noise stream is derived from the parent machine's seed and the
//! configuration's index, and its noise-free expectation is computed
//! once and scaled by one noise draw per repetition. With no fan-out,
//! the knowledge is bit-identical for a given machine seed and
//! repetition count by construction. The toolchain that calls it fans
//! out across applications instead, so a sweep that spawned its own
//! workers would only compete with another application's sweep for the
//! same cores.
//!
//! Profiling here is purely analytic: it measures the platform model
//! and never runs a kernel. The toolchain that calls it lowers the
//! functional kernel once per program and runs it once, outside the
//! sweep.
//!
//! ## Example
//!
//! ```
//! use dse::{profile, DesignSpace};
//! use platform_sim::{Machine, Topology, WorkloadProfile};
//!
//! let space = DesignSpace::socrates(vec![], &Topology::xeon_e5_2630_v3());
//! let machine = Machine::xeon_e5_2630_v3(1);
//! let kernel = WorkloadProfile::builder("demo").flops(1e8).bytes(1e7).build();
//! let some_configs = space.random_sample(10, 7);
//! let knowledge = profile(&machine, &kernel, &some_configs, 2);
//! assert_eq!(knowledge.len(), 10);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use margot::{Knowledge, Metric, MetricValues, OperatingPoint};
use platform_sim::{
    BindingPolicy, CompilerOptions, KnobConfig, Machine, OptLevel, Topology, WorkloadProfile,
};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The SOCRATES autotuning space: compiler options, thread counts and
/// binding policies (paper Section II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignSpace {
    /// Compiler-option alternatives (standard levels + COBAYN picks).
    pub compiler_options: Vec<CompilerOptions>,
    /// Thread-count alternatives (1 ..= logical cores).
    pub thread_counts: Vec<u32>,
    /// Binding-policy alternatives.
    pub binding_policies: Vec<BindingPolicy>,
}

impl DesignSpace {
    /// The paper's space: the four GCC standard levels plus the
    /// COBAYN-predicted combinations, every thread count up to the
    /// machine's logical CPU count, and both binding policies.
    pub fn socrates(cobayn_predictions: Vec<CompilerOptions>, topo: &Topology) -> Self {
        let mut compiler_options: Vec<CompilerOptions> = OptLevel::ALL
            .into_iter()
            .map(CompilerOptions::level)
            .collect();
        for co in cobayn_predictions {
            if !compiler_options.contains(&co) {
                compiler_options.push(co);
            }
        }
        DesignSpace {
            compiler_options,
            thread_counts: (1..=topo.logical_cpus()).collect(),
            binding_policies: BindingPolicy::ALL.to_vec(),
        }
    }

    /// Number of points in the space.
    pub fn size(&self) -> usize {
        self.compiler_options.len() * self.thread_counts.len() * self.binding_policies.len()
    }

    /// Enumerates every configuration (the paper's full-factorial DSE).
    pub fn full_factorial(&self) -> Vec<KnobConfig> {
        let mut out = Vec::with_capacity(self.size());
        for co in &self.compiler_options {
            for &tn in &self.thread_counts {
                for &bp in &self.binding_policies {
                    out.push(KnobConfig::new(co.clone(), tn, bp));
                }
            }
        }
        out
    }

    /// A reproducible random subsample of the space (without
    /// replacement); an alternative DSE strategy for large spaces.
    pub fn random_sample(&self, n: usize, seed: u64) -> Vec<KnobConfig> {
        let mut all = self.full_factorial();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        all.shuffle(&mut rng);
        all.truncate(n);
        all
    }
}

/// Profiles `configs` on the machine (`repetitions` noisy runs each,
/// averaged) and returns the mARGOt knowledge with the four EFPs the
/// paper uses: execution time, power, throughput and energy.
///
/// Configurations are profiled in order, each on a [`Machine::fork`]
/// seeded from the parent machine's construction seed and the
/// configuration's index, so the result is a function of the machine
/// seed, the configurations and the repetition count alone.
///
/// Profiling never mutates the parent machine (each configuration
/// runs on its own fork), so a `&Machine` suffices and the same
/// machine can be profiled from several threads at once.
///
/// # Panics
///
/// Panics if `repetitions` is zero.
pub fn profile(
    machine: &Machine,
    workload: &WorkloadProfile,
    configs: &[KnobConfig],
    repetitions: u32,
) -> Knowledge<KnobConfig> {
    assert!(repetitions > 0, "need at least one repetition");
    configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| profile_point(machine, workload, cfg, i as u64, repetitions))
        .collect()
}

/// Profiles one operating point on a forked noise stream: the
/// expectation once, then one noise pair per repetition, exactly as
/// that many [`Machine::execute`] calls would draw them.
fn profile_point(
    machine: &Machine,
    workload: &WorkloadProfile,
    cfg: &KnobConfig,
    stream: u64,
    repetitions: u32,
) -> OperatingPoint<KnobConfig> {
    let mut fork = machine.fork(stream);
    let expected = fork.expected(workload, cfg);
    let mut time = 0.0;
    let mut power = 0.0;
    for _ in 0..repetitions {
        let (tn, pn) = fork.noise_factors();
        time += expected.time_s * tn;
        power += expected.power_w * pn;
    }
    time /= f64::from(repetitions);
    power /= f64::from(repetitions);
    let metrics = MetricValues::new()
        .with(Metric::exec_time(), time)
        .with(Metric::power(), power)
        .with(Metric::throughput(), 1.0 / time)
        .with(Metric::energy(), time * power);
    OperatingPoint::new(cfg.clone(), metrics)
}

/// Convenience: the Pareto frontier of a knowledge base on the paper's
/// Fig. 3 objectives (maximise throughput, minimise power).
pub fn power_throughput_pareto(knowledge: &Knowledge<KnobConfig>) -> Knowledge<KnobConfig> {
    knowledge.pareto_filter(&[(Metric::throughput(), true), (Metric::power(), false)])
}

/// Outcome of [`prune_space`]: the configurations that survive
/// pruning plus how many were discarded and why.
///
/// `kept` preserves the input enumeration order, so feeding it to
/// [`profile`] or [`ExplorationSchedule::new`] keeps the sweep
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneReport<K> {
    /// Configurations that survive pruning, in enumeration order.
    pub kept: Vec<K>,
    /// Configurations rejected as infeasible by the `feasible` oracle
    /// (in SOCRATES, their specialization traps the checked VM).
    pub infeasible: usize,
    /// Feasible configurations strictly Pareto-dominated by another
    /// feasible one on the static `(time, power)` expectation.
    pub dominated: usize,
}

impl<K> PruneReport<K> {
    /// Size of the original (unpruned) space.
    pub fn total(&self) -> usize {
        self.kept.len() + self.pruned()
    }

    /// Configurations removed, for either reason.
    pub fn pruned(&self) -> usize {
        self.infeasible + self.dominated
    }

    /// Fraction of the space removed (`0.0` for an empty space).
    pub fn prune_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.pruned() as f64 / self.total() as f64
        }
    }
}

/// Design-space pruning before profiling: drops configurations whose
/// specialization is *infeasible* (per the `feasible` oracle — in
/// SOCRATES, a trap in the checked VM) and feasible points
/// that are *strictly Pareto-dominated* on the deterministic
/// `(time, power)` expectation returned by `expected` (in SOCRATES,
/// the noise-free `Machine::expected` over the workload [`profile`]
/// measures).
///
/// A point is dominated when some other feasible point is no worse on
/// both metrics and strictly better on at least one; metric ties keep
/// both points, so the result is independent of enumeration order.
/// Dominated points can never be the argmax of any objective that is
/// monotone in time and power (throughput, energy, Thr/W²…), which is
/// what makes skipping their profile runs safe.
///
/// This crate stays agnostic of how either is decided: both oracles are
/// opaque closures, evaluated once per configuration in enumeration
/// order.
pub fn prune_space<K, F, M>(configs: Vec<K>, feasible: F, expected: M) -> PruneReport<K>
where
    F: FnMut(&K) -> bool,
    M: FnMut(&K) -> (f64, f64),
{
    let mut feasible = feasible;
    let mut expected = expected;
    let mut infeasible = 0usize;
    let mut candidates: Vec<(K, f64, f64)> = Vec::with_capacity(configs.len());
    for cfg in configs {
        if feasible(&cfg) {
            let (time, power) = expected(&cfg);
            candidates.push((cfg, time, power));
        } else {
            infeasible += 1;
        }
    }
    let dominated_by_some = |i: usize| {
        let (_, ti, pi) = &candidates[i];
        candidates
            .iter()
            .enumerate()
            .any(|(j, (_, tj, pj))| j != i && tj <= ti && pj <= pi && (tj < ti || pj < pi))
    };
    let keep: Vec<bool> = (0..candidates.len())
        .map(|i| !dominated_by_some(i))
        .collect();
    let dominated = keep.iter().filter(|&&k| !k).count();
    let kept = candidates
        .into_iter()
        .zip(keep)
        .filter_map(|((cfg, _, _), k)| k.then_some(cfg))
        .collect();
    PruneReport {
        kept,
        infeasible,
        dominated,
    }
}

/// A cooperative *online* exploration schedule: the design-time DSE
/// enumeration, re-used at deployment time so a fleet of instances
/// sweeps the space together instead of redundantly.
///
/// A coordinator calls [`next_unexplored`](Self::next_unexplored) to
/// hand each exploration slot a configuration nobody has covered yet;
/// organic coverage (an instance selecting a configuration on its own)
/// is folded in through [`mark_explored`](Self::mark_explored) so
/// already-observed points are never re-assigned. Assignment order is
/// the enumeration order — fully deterministic.
#[derive(Debug, Clone)]
pub struct ExplorationSchedule<K = KnobConfig> {
    configs: Vec<K>,
    /// Set view of `configs` for O(1) membership tests (a coordinator
    /// calls [`mark_explored`](Self::mark_explored) once per published
    /// observation).
    known: std::collections::HashSet<K>,
    cursor: usize,
    swept: std::collections::HashSet<K>,
}

impl<K: Clone + Eq + std::hash::Hash> ExplorationSchedule<K> {
    /// Builds a schedule over `configs` (duplicates are dropped,
    /// keeping the first occurrence's position).
    pub fn new(configs: Vec<K>) -> Self {
        let mut known = std::collections::HashSet::new();
        let configs: Vec<K> = configs
            .into_iter()
            .filter(|c| known.insert(c.clone()))
            .collect();
        ExplorationSchedule {
            configs,
            known,
            cursor: 0,
            swept: std::collections::HashSet::new(),
        }
    }

    /// The next configuration no instance has covered yet, or `None`
    /// once the sweep is complete. The returned configuration counts as
    /// covered immediately, so concurrent slots in the same round get
    /// distinct assignments.
    pub fn next_unexplored(&mut self) -> Option<K> {
        while self.cursor < self.configs.len() {
            let candidate = &self.configs[self.cursor];
            self.cursor += 1;
            if self.swept.insert(candidate.clone()) {
                return Some(candidate.clone());
            }
        }
        None
    }

    /// Records organic coverage of `config`; returns `true` if it was
    /// previously unexplored. Unknown configurations are ignored (and
    /// return `false`).
    pub fn mark_explored(&mut self, config: &K) -> bool {
        if !self.known.contains(config) || self.swept.contains(config) {
            return false;
        }
        self.swept.insert(config.clone())
    }

    /// The next configuration no instance has covered yet **without
    /// claiming it**: the event-driven half of the sweep protocol,
    /// where the claim happens at *publish* time ([`claim`](Self::claim))
    /// instead of at hand-out. Repeated peeks return the same
    /// configuration until somebody claims it — the cursor only
    /// advances past configurations already swept — so a speculative
    /// assignment that never executes (its instance retired first)
    /// leaves no hole in the design space and needs no
    /// [`requeue`](Self::requeue).
    pub fn peek_unexplored(&mut self) -> Option<&K> {
        while self.cursor < self.configs.len() {
            if !self.swept.contains(&self.configs[self.cursor]) {
                return Some(&self.configs[self.cursor]);
            }
            self.cursor += 1;
        }
        None
    }

    /// Claims coverage of `config` at publish time — the counterpart of
    /// [`peek_unexplored`](Self::peek_unexplored): an event-driven
    /// runtime claims each configuration when its observation is
    /// *published*, not when the assignment is handed out, so the sweep
    /// records exactly what actually reached the shared knowledge.
    /// Organic coverage (an instance publishing its own selection)
    /// claims through the same call. Returns `true` if `config` was
    /// previously unexplored; unknown configurations are ignored.
    pub fn claim(&mut self, config: &K) -> bool {
        self.mark_explored(config)
    }

    /// Returns a handed-out configuration to the unexplored set — the
    /// coordinator calls this when an assignment was *not* executed
    /// after all (the assignee failed mid-step, or the configuration
    /// turned out stale for it), so the sweep neither over-reports
    /// coverage nor leaves a permanent hole in the design space. The
    /// configuration moves to the **back** of the enumeration order:
    /// the sweep keeps making progress on fresh configurations first,
    /// and the retry lands on whichever instance draws it next instead
    /// of bouncing straight back to the one that just failed it.
    /// Returns `false` for unknown or currently-unexplored
    /// configurations.
    pub fn requeue(&mut self, config: &K) -> bool {
        let Some(pos) = self.configs.iter().position(|c| c == config) else {
            return false;
        };
        if !self.swept.remove(config) {
            return false;
        }
        let moved = self.configs.remove(pos);
        self.configs.push(moved);
        if pos < self.cursor {
            // Everything after `pos` shifted left by one; the requeued
            // config now sits at the end, ahead of the cursor again.
            self.cursor -= 1;
        }
        true
    }

    /// Records organic coverage of a whole batch of configurations —
    /// e.g. everything a fleet round executed — in one call at a round
    /// barrier; returns how many were previously unexplored. Order-
    /// insensitive for coverage, but callers wanting deterministic
    /// bookkeeping should pass a deterministically ordered batch.
    pub fn mark_explored_batch<'a, I>(&mut self, configs: I) -> usize
    where
        K: 'a,
        I: IntoIterator<Item = &'a K>,
    {
        configs
            .into_iter()
            .filter(|config| self.mark_explored(config))
            .count()
    }

    /// Configurations in the schedule.
    pub fn total(&self) -> usize {
        self.configs.len()
    }

    /// Configurations not yet covered by any instance.
    pub fn remaining(&self) -> usize {
        self.configs.len() - self.swept.len()
    }

    /// Whether every configuration has been covered at least once.
    pub fn is_complete(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform_sim::paper_cf_combos;

    fn space() -> DesignSpace {
        DesignSpace::socrates(paper_cf_combos().to_vec(), &Topology::xeon_e5_2630_v3())
    }

    fn kernel() -> WorkloadProfile {
        WorkloadProfile::builder("2mm-like")
            .flops(2.5e9)
            .bytes(6e8)
            .parallel_fraction(0.995)
            .build()
    }

    #[test]
    fn paper_space_is_512_points() {
        // (4 standard levels + 4 CF combos) × 32 threads × 2 bindings.
        let s = space();
        assert_eq!(s.compiler_options.len(), 8);
        assert_eq!(s.size(), 8 * 32 * 2);
        assert_eq!(s.full_factorial().len(), 512);
    }

    #[test]
    fn duplicate_predictions_are_deduplicated() {
        let s = DesignSpace::socrates(
            vec![CompilerOptions::level(OptLevel::O3)],
            &Topology::xeon_e5_2630_v3(),
        );
        assert_eq!(s.compiler_options.len(), 4);
    }

    #[test]
    fn full_factorial_has_unique_points() {
        let all = space().full_factorial();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn random_sample_is_reproducible_and_unique() {
        let s = space();
        let a = s.random_sample(50, 9);
        let b = s.random_sample(50, 9);
        assert_eq!(a, b);
        let c = s.random_sample(50, 10);
        assert_ne!(a, c);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn profiling_builds_complete_knowledge() {
        let m = Machine::xeon_e5_2630_v3(3);
        let configs = space().random_sample(20, 4);
        let k = profile(&m, &kernel(), &configs, 3);
        assert_eq!(k.len(), 20);
        let metrics = k.common_metrics();
        for want in [
            Metric::exec_time(),
            Metric::power(),
            Metric::throughput(),
            Metric::energy(),
        ] {
            assert!(metrics.contains(&want), "missing {want}");
        }
    }

    #[test]
    fn profiling_averages_toward_expectation() {
        let m = Machine::xeon_e5_2630_v3(5);
        let cfg = KnobConfig::new(
            CompilerOptions::level(OptLevel::O2),
            8,
            BindingPolicy::Close,
        );
        let expected = m.expected(&kernel(), &cfg).time_s;
        let k = profile(&m, &kernel(), std::slice::from_ref(&cfg), 50);
        let observed = k.points()[0].metric(&Metric::exec_time()).unwrap();
        assert!(
            (observed / expected - 1.0).abs() < 0.02,
            "mean {observed} vs expected {expected}"
        );
    }

    #[test]
    fn pareto_frontier_is_much_smaller_than_space() {
        let m = Machine::xeon_e5_2630_v3(6).noiseless();
        let configs = space().full_factorial();
        let k = profile(&m, &kernel(), &configs, 1);
        let frontier = power_throughput_pareto(&k);
        assert!(
            frontier.len() >= 5,
            "frontier too small: {}",
            frontier.len()
        );
        assert!(
            frontier.len() * 4 < k.len(),
            "frontier {} not selective vs {}",
            frontier.len(),
            k.len()
        );
    }

    #[test]
    fn pareto_respects_dominance() {
        let m = Machine::xeon_e5_2630_v3(7).noiseless();
        let configs = space().full_factorial();
        let k = profile(&m, &kernel(), &configs, 1);
        let frontier = power_throughput_pareto(&k);
        for a in frontier.points() {
            for b in k.points() {
                let dominates = b.metric(&Metric::throughput()).unwrap()
                    > a.metric(&Metric::throughput()).unwrap()
                    && b.metric(&Metric::power()).unwrap() < a.metric(&Metric::power()).unwrap();
                assert!(!dominates, "{:?} dominated by {:?}", a.config, b.config);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_panics() {
        let m = Machine::xeon_e5_2630_v3(1);
        let _ = profile(&m, &kernel(), &[], 0);
    }

    #[test]
    fn prune_drops_infeasible_and_dominated_points() {
        // Metrics chosen so 4 is dominated by 2 (worse on both), 3 is
        // infeasible, 1/2/5 form the surviving trade-off curve.
        let metrics = |c: &u32| match c {
            1 => (1.0, 9.0),
            2 => (3.0, 5.0),
            4 => (4.0, 6.0),
            5 => (9.0, 1.0),
            _ => unreachable!("infeasible points are never measured"),
        };
        let r = prune_space(vec![1u32, 2, 3, 4, 5], |c| *c != 3, metrics);
        assert_eq!(r.kept, vec![1, 2, 5], "enumeration order preserved");
        assert_eq!(r.infeasible, 1);
        assert_eq!(r.dominated, 1);
        assert_eq!(r.total(), 5);
        assert_eq!(r.pruned(), 2);
        assert!((r.prune_ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn prune_keeps_metric_ties_and_empty_spaces() {
        // Identical points never dominate each other…
        let r = prune_space(vec![1u32, 2], |_| true, |_| (2.0, 2.0));
        assert_eq!(r.kept, vec![1, 2]);
        assert_eq!(r.dominated, 0);
        // …a tie on one metric plus a strict win on the other does.
        let r = prune_space(vec![1u32, 2], |_| true, |c| (2.0, f64::from(*c)));
        assert_eq!(r.kept, vec![1]);
        assert_eq!(r.dominated, 1);
        let empty = prune_space(Vec::<u32>::new(), |_| true, |_| (1.0, 1.0));
        assert!(empty.kept.is_empty());
        assert_eq!(empty.prune_ratio(), 0.0);
    }

    #[test]
    fn schedule_hands_out_each_config_once_in_order() {
        let mut s = ExplorationSchedule::new(vec![1u32, 2, 3, 2]);
        assert_eq!(s.total(), 3, "duplicates are dropped");
        assert_eq!(s.next_unexplored(), Some(1));
        assert_eq!(s.next_unexplored(), Some(2));
        assert_eq!(s.next_unexplored(), Some(3));
        assert_eq!(s.next_unexplored(), None);
        assert!(s.is_complete());
    }

    #[test]
    fn organic_coverage_is_never_reassigned() {
        let mut s = ExplorationSchedule::new(vec![1u32, 2, 3]);
        assert!(s.mark_explored(&2));
        assert!(!s.mark_explored(&2), "already covered");
        assert!(!s.mark_explored(&99), "unknown config is ignored");
        assert_eq!(s.next_unexplored(), Some(1));
        assert_eq!(s.next_unexplored(), Some(3), "2 was covered organically");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn requeue_returns_a_config_to_the_back_of_the_sweep() {
        let mut s = ExplorationSchedule::new(vec![1u32, 2, 3]);
        assert_eq!(s.next_unexplored(), Some(1));
        assert_eq!(s.next_unexplored(), Some(2));
        // Config 2 was handed out but never executed: it rejoins the
        // sweep at the back, so fresh configs keep priority.
        assert!(s.requeue(&2));
        assert_eq!(s.remaining(), 2);
        assert_eq!(s.next_unexplored(), Some(3));
        assert_eq!(s.next_unexplored(), Some(2), "retried after the rest");
        assert!(s.is_complete());
        // Unknown or currently-unexplored configs are not requeued.
        assert!(!s.requeue(&99));
        let mut fresh = ExplorationSchedule::new(vec![1u32]);
        assert!(!fresh.requeue(&1));
    }

    #[test]
    fn requeued_configs_cycle_instead_of_starving_the_sweep() {
        // A config one assignee keeps failing is retried after every
        // other config, and a sweep where it is the only one left keeps
        // offering it (the honest "still unexplored" state).
        let mut s = ExplorationSchedule::new(vec![1u32, 2]);
        assert_eq!(s.next_unexplored(), Some(1));
        assert!(s.requeue(&1));
        assert_eq!(s.next_unexplored(), Some(2));
        assert_eq!(s.next_unexplored(), Some(1), "offered again at the back");
        assert!(s.requeue(&1));
        assert_eq!(s.remaining(), 1);
        assert_eq!(s.next_unexplored(), Some(1), "last one keeps retrying");
        assert!(s.is_complete());
    }

    #[test]
    fn peek_is_stable_until_claimed_at_publish() {
        let mut s = ExplorationSchedule::new(vec![1u32, 2, 3]);
        // A peek hands out without claiming: retired-before-publish
        // assignments leave no hole and need no requeue.
        assert_eq!(s.peek_unexplored(), Some(&1));
        assert_eq!(s.peek_unexplored(), Some(&1), "stable until claimed");
        assert_eq!(s.remaining(), 3, "nothing claimed yet");
        assert!(s.claim(&1), "publish-time claim");
        assert!(!s.claim(&1), "double publish claims once");
        assert_eq!(s.peek_unexplored(), Some(&2));
        // Organic coverage claims through the same call and is skipped.
        assert!(s.claim(&2));
        assert_eq!(s.peek_unexplored(), Some(&3));
        assert!(s.claim(&3));
        assert_eq!(s.peek_unexplored(), None);
        assert!(s.is_complete());
        assert!(!s.claim(&99), "unknown configs are ignored");
    }

    #[test]
    fn peek_claim_covers_the_same_space_as_next_unexplored() {
        // The event-driven protocol (peek, publish, claim) sweeps the
        // identical enumeration order as the round-based hand-out.
        let reference: Vec<u32> = {
            let mut s = ExplorationSchedule::new((0..17u32).collect());
            std::iter::from_fn(move || s.next_unexplored()).collect()
        };
        let mut s = ExplorationSchedule::new((0..17u32).collect());
        let mut swept = Vec::new();
        while let Some(&cfg) = s.peek_unexplored() {
            swept.push(cfg);
            assert!(s.claim(&cfg));
        }
        assert_eq!(swept, reference);
    }

    #[test]
    fn schedule_over_a_design_space_sweeps_everything() {
        let configs = space().full_factorial();
        let mut s = ExplorationSchedule::new(configs.clone());
        let mut seen = std::collections::HashSet::new();
        while let Some(cfg) = s.next_unexplored() {
            assert!(seen.insert(cfg));
        }
        assert_eq!(seen.len(), configs.len());
    }
}
