//! The ISSUE 3 acceptance scenario: a fleet of 8 instances sharing
//! online knowledge must converge to a **better-or-equal**
//! energy/throughput operating point than frozen design-time knowledge
//! under deployment drift (the machine running hotter than profiled).
//!
//! Frozen knowledge cannot recover here by construction: the drift is
//! non-uniform across operating points, and a uniform per-metric
//! feedback ratio never re-orders points under the geometric Thr/W²
//! rank — the stale argmax stays selected. The online fleet sweeps the
//! space cooperatively and re-ranks on true observations.
//! `fleet_bench` reports the full numbers in BENCH.md.

use margot::Rank;
use polybench::{App, Dataset};
use socrates::{Fleet, FleetConfig, FleetRuntime, Toolchain, TraceSample};

const DRIFT_FACTOR: f64 = 1.6;
const HORIZON_S: f64 = 150.0;
/// The analysis-pruned fleet gets a longer horizon: static pruning is
/// computed on the *design-time* platform, so under drift a point it
/// skipped can turn out relevant and must be rediscovered organically
/// (through AS-RTM selection) rather than via the cooperative sweep —
/// slightly slower, by design never blocked (pruning only shrinks the
/// schedule, never the knowledge).
const PRUNED_HORIZON_S: f64 = 250.0;
const FINAL_WINDOW_S: f64 = 50.0;
const INSTANCES: usize = 8;

/// Fleet-wide Thr/W² over the final window, planned samples only.
fn final_window_efficiency_at(fleet: &Fleet, horizon_s: f64) -> f64 {
    let samples: Vec<TraceSample> = (0..INSTANCES)
        .flat_map(|id| fleet.trace(id))
        .filter(|s| s.t_start_s >= horizon_s - FINAL_WINDOW_S && !s.forced)
        .collect();
    assert!(!samples.is_empty());
    let n = samples.len() as f64;
    let mean_power = samples.iter().map(|s| s.power_w).sum::<f64>() / n;
    let mean_exec = samples.iter().map(|s| s.time_s).sum::<f64>() / n;
    (1.0 / mean_exec) / (mean_power * mean_power)
}

#[test]
fn online_fleet_beats_frozen_knowledge_under_deployment_drift() {
    let enhanced = Toolchain {
        dataset: Dataset::Large,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("enhance 2mm");
    let drifted = enhanced.platform.hotter(DRIFT_FACTOR);

    let mut efficiency = Vec::new();
    for share_knowledge in [true, false] {
        let mut fleet = Fleet::new(FleetConfig {
            share_knowledge,
            ..FleetConfig::default()
        })
        .expect("valid fleet config");
        fleet.spawn_on(
            &enhanced,
            &Rank::throughput_per_watt2(),
            &drifted.machine(7),
            INSTANCES,
        );
        fleet.run_until(HORIZON_S);
        if share_knowledge {
            let (covered, total) = fleet.exploration_coverage(App::TwoMm).unwrap();
            assert_eq!(
                covered, total,
                "the cooperative sweep must cover the whole design space"
            );
        }
        efficiency.push(final_window_efficiency_at(&fleet, HORIZON_S));
    }
    let (online, frozen) = (efficiency[0], efficiency[1]);
    assert!(
        online >= frozen * 0.995,
        "online fleet must reach a better-or-equal operating point: \
         online {online:.4e} vs frozen {frozen:.4e} Thr/W²"
    );
}

/// The ISSUE 9 regression: switching on analysis-driven DSE pruning
/// (the static analyzer drops statically-dominated points from the
/// cooperative sweep) must not cost the fleet its convergence — the
/// pruned online fleet still beats frozen design-time knowledge under
/// the same drift, while sweeping a strictly smaller schedule.
#[test]
fn analysis_pruned_fleet_still_converges_under_drift() {
    let enhanced = Toolchain {
        dataset: Dataset::Large,
        dse_repetitions: 1,
        ..Toolchain::default()
    }
    .enhance(App::TwoMm)
    .expect("enhance 2mm");
    let drifted = enhanced.platform.hotter(DRIFT_FACTOR);

    let mut efficiency = Vec::new();
    for share_knowledge in [true, false] {
        let mut fleet = Fleet::new(FleetConfig {
            share_knowledge,
            analysis_prune: true,
            ..FleetConfig::default()
        })
        .expect("valid fleet config");
        fleet.spawn_on(
            &enhanced,
            &Rank::throughput_per_watt2(),
            &drifted.machine(7),
            INSTANCES,
        );
        fleet.run_until(PRUNED_HORIZON_S);
        if share_knowledge {
            let stats = fleet.stats();
            assert!(
                stats.schedule_pruned_dominated > 0,
                "pruning must actually shrink the sweep"
            );
            assert_eq!(stats.schedule_pruned_infeasible, 0);
            let (covered, total) = fleet.exploration_coverage(App::TwoMm).unwrap();
            assert_eq!(
                covered, total,
                "the cooperative sweep must cover the pruned schedule"
            );
            assert_eq!(
                total + stats.schedule_pruned_dominated as usize,
                enhanced.knowledge.len(),
                "schedule + pruned points must account for the design space"
            );
        }
        efficiency.push(final_window_efficiency_at(&fleet, PRUNED_HORIZON_S));
    }
    let (online, frozen) = (efficiency[0], efficiency[1]);
    assert!(
        online >= frozen * 0.995,
        "pruned online fleet must reach a better-or-equal operating point: \
         online {online:.4e} vs frozen {frozen:.4e} Thr/W²"
    );
}
