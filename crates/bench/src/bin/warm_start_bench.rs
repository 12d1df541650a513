//! Warm-start experiment: shippable knowledge snapshots against the
//! cold-boot baseline.
//!
//! Every fleet in `fleet_bench` pays ~210 virtual seconds of online
//! learning before its selections stay within 1.5% of the oracle. This
//! bench measures what shipping a [`socrates::KnowledgeSnapshot`] with
//! the deployment buys: time-to-≤1.5%-of-oracle for three seeding
//! scenarios, each in both deployment modes:
//!
//! - **cold** — the empty-state baseline (design-time knowledge only);
//! - **warm-same-app** — the snapshot a previous deployment of the
//!   *same* application cut after converging on the drifted platform;
//! - **warm-nearest-neighbour** — the target has no snapshot of its
//!   own, so [`socrates::ArtifactStore::warm_start_snapshot`] seeds it
//!   from the nearest MILEPOST-feature neighbour's snapshot (cosine
//!   distance over the COBAYN feature vectors);
//!
//! crossed with **in-process** ([`socrates::Fleet`]) and
//! **distributed** ([`socrates::DistributedFleet`], full-mesh gossip
//! over an ideal link, no cooperative exploration — the transport does
//! not model assignment hand-off) deployments. The deployment drifts like
//! `fleet_bench`: the machines run 1.6× hotter per-core than the
//! design-time platform, so the design-time optimum is stale and cold
//! fleets must re-learn the ranking online.
//!
//! Numbers land in `results/warm_start.json`
//! (`results/warm_start_smoke.json` for the smoke configuration) and
//! BENCH.md.
//!
//! # Regression gate
//!
//! The bin's unit test is the gate, so `cargo test` runs it: it reruns
//! the smoke cells and writes nothing. Every cell is in virtual time,
//! so the test compares every field of every cell exactly with the
//! committed `results/warm_start_smoke.json`. It also checks the run
//! against the committed full-scale `results/warm_start.json`: every
//! cell must have a counterpart there, and the warm-same-app in-process
//! fleet must converge within 5% of that baseline's cold-start virtual
//! time, the headline zero-cold-start claim. Comparing against the
//! recorded full-scale cold start (rather than the smoke run's own cold
//! cell) keeps the check meaningful, since the smoke run's subsampled
//! knowledge makes even cold fleets converge in a couple of virtual
//! seconds.
//!
//! Run with `cargo run -p socrates-bench --bin warm_start_bench
//! --release` (`--smoke` for the small configuration).

use margot::{Knowledge, Rank};
use platform_sim::KnobConfig;
use polybench::{App, Dataset};
use serde::{Deserialize, Serialize};
use socrates::{
    cosine_distance, ArtifactStore, DistributedFleet, EnhancedApp, Fleet, FleetConfig,
    FleetRuntime, KnowledgeSnapshot, SnapshotFingerprint, Toolchain, TraceSample,
};

/// Deployment drift: per-core dynamic power × 1.6 (idle floor
/// unchanged), same as `fleet_bench`.
const DRIFT_FACTOR: f64 = 1.6;
/// Target application and its snapshot-donor universe. ThreeMm and
/// Mvt both get considered as nearest-neighbour donors for TwoMm.
const UNIVERSE: [App; 3] = [App::TwoMm, App::ThreeMm, App::Mvt];

/// One measured `(scenario, deployment)` cell.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WarmStartRow {
    scenario: String,
    deployment: String,
    instances: usize,
    horizon_s: f64,
    /// Which application's snapshot seeded the fleet (`"none"` for the
    /// cold baseline).
    seed_app: String,
    oracle_thr_per_w2: f64,
    /// Median time-to-≤1.5%-of-oracle over the instances; `None` when
    /// the median instance never converged within the horizon.
    median_convergence_time_s: Option<f64>,
    /// Instances whose planned selections stayed within 1.5% of the
    /// oracle from some point on.
    converged_instances: usize,
    /// Mean true-efficiency regret of the final third of the horizon
    /// (planned selections only), relative to the oracle.
    final_window_regret: f64,
}

/// The headline numbers the regression gate and BENCH.md read.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct WarmStartSummary {
    cold_in_process_convergence_s: Option<f64>,
    warm_same_app_in_process_convergence_s: Option<f64>,
    /// Warm-same-app convergence as a fraction of the cold-start
    /// virtual time (never-converged cells count as the full horizon).
    warm_same_app_fraction_of_cold: f64,
}

#[derive(Serialize, Deserialize)]
struct WarmStartReport {
    cells: Vec<WarmStartRow>,
    summary: WarmStartSummary,
}

fn main() {
    let smoke = socrates_bench::args(&["--smoke"]).smoke;
    let report = measure(smoke);
    // The smoke configuration never overwrites the committed
    // full-scale baseline.
    let name = if smoke {
        "warm_start_smoke"
    } else {
        "warm_start"
    };
    socrates_bench::write_json(name, &report);
}

/// Runs every `(scenario, deployment)` cell of the full configuration
/// (the smoke one when `smoke`), printing each row and the summary.
fn measure(smoke: bool) -> WarmStartReport {
    let (instances, horizon_s, knowledge_points) = if smoke {
        (4usize, 60.0, Some(64))
    } else {
        (8usize, 300.0, None)
    };

    let toolchain = Toolchain {
        dataset: Dataset::Medium,
        dse_repetitions: 1,
        ..Toolchain::default()
    };
    let mut apps = toolchain.enhance_all(&UNIVERSE).expect("enhance universe");
    if let Some(points) = knowledge_points {
        for enhanced in &mut apps {
            subsample_knowledge(enhanced, points);
        }
    }
    let target = apps[0].clone();
    let rank = Rank::throughput_per_watt2();

    // The oracle: the noise-free Thr/W² argmax on the drifted machine.
    let drifted = target.platform.hotter(DRIFT_FACTOR);
    let oracle_machine = drifted.machine(0);
    let true_eff = |config: &KnobConfig| {
        oracle_machine
            .expected(&target.profile, config)
            .throughput_per_watt2()
    };
    let oracle_eff = target
        .knowledge
        .points()
        .iter()
        .map(|p| true_eff(&p.config))
        .max_by(|a, b| a.partial_cmp(b).expect("finite"))
        .expect("non-empty knowledge");

    println!(
        "Warm-start convergence — shipped snapshots vs cold boot\n\
         deployment drift {DRIFT_FACTOR}x, {instances} instances, rank Thr/W², \
         {horizon_s} virtual s per cell\n"
    );

    // ── donor runs ─────────────────────────────────────────────────
    // The cold in-process run *is* the cold cell; the snapshot it cuts
    // after converging is the warm-same-app seed.
    let mut cold_fleet = in_process(&target, &drifted, None, instances);
    cold_fleet.run_until(horizon_s);
    let cold_traces: Vec<Vec<TraceSample>> =
        (0..instances).map(|id| cold_fleet.trace(id)).collect();
    let same_app_seed = cold_fleet
        .knowledge_snapshot(App::TwoMm, SnapshotFingerprint::of(&toolchain, App::TwoMm))
        .expect("target pool exists");

    // The nearest-neighbour donor: pick the feature-nearest sibling,
    // let a fleet of *that* app converge on its own drifted platform,
    // persist its snapshot and let the artifact store's selection rule
    // hand it to the (snapshot-less) target.
    let store_dir =
        std::env::temp_dir().join(format!("socrates-warm-start-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ArtifactStore::with_persist_dir(&store_dir);
    let target_features = store
        .kernel_features(&toolchain, App::TwoMm)
        .expect("target features");
    let nn_app = UNIVERSE[1..]
        .iter()
        .copied()
        .min_by(|&a, &b| {
            let da = donor_distance(&store, &toolchain, target_features.features.as_slice(), a);
            let db = donor_distance(&store, &toolchain, target_features.features.as_slice(), b);
            da.partial_cmp(&db).expect("finite distances")
        })
        .expect("non-empty donor set");
    let donor = apps
        .iter()
        .find(|e| e.app == nn_app)
        .expect("donor enhanced");
    println!(
        "nearest MILEPOST neighbour of {}: {} (donor fleet converging …)",
        App::TwoMm.name(),
        nn_app.name()
    );
    let donor_drifted = donor.platform.hotter(DRIFT_FACTOR);
    let mut donor_fleet = in_process(donor, &donor_drifted, None, instances);
    donor_fleet.run_until(horizon_s);
    let donor_snapshot = donor_fleet
        .knowledge_snapshot(nn_app, SnapshotFingerprint::of(&toolchain, nn_app))
        .expect("donor pool exists");
    store
        .save_snapshot(&toolchain, nn_app, &donor_snapshot)
        .expect("persist donor snapshot");
    let nn_seed = store
        .warm_start_snapshot(&toolchain, App::TwoMm, &UNIVERSE)
        .expect("snapshot selection")
        .expect("a donor snapshot exists");
    assert_eq!(
        nn_seed.fingerprint.app,
        nn_app.name(),
        "the store must pick the feature-nearest donor"
    );

    // ── cells ──────────────────────────────────────────────────────
    let scenarios: [(&str, Option<&KnowledgeSnapshot>, String); 3] = [
        ("cold", None, "none".to_string()),
        (
            "warm-same-app",
            Some(&same_app_seed),
            App::TwoMm.name().to_string(),
        ),
        (
            "warm-nearest-neighbour",
            Some(&nn_seed),
            nn_app.name().to_string(),
        ),
    ];
    println!(
        "{:>24} {:>12} {:>16} {:>11} {:>13}",
        "scenario", "deployment", "convergence [s]", "converged", "tail regret"
    );
    let mut cells = Vec::new();
    for (scenario, seed, seed_app) in &scenarios {
        for deployment in ["in-process", "distributed"] {
            let traces = match (*scenario, deployment) {
                ("cold", "in-process") => cold_traces.clone(),
                (_, "in-process") => {
                    let mut fleet = in_process(&target, &drifted, seed.cloned(), instances);
                    fleet.run_until(horizon_s);
                    (0..instances).map(|id| fleet.trace(id)).collect()
                }
                _ => {
                    let mut fleet = distributed(&target, seed.cloned(), instances);
                    fleet.spawn_on(&rank, &drifted.machine(7), instances);
                    fleet.run_until(horizon_s);
                    (0..instances).map(|id| fleet.trace(id)).collect()
                }
            };
            let times: Vec<f64> = traces
                .iter()
                .map(|t| socrates_bench::convergence_time_s(t, &true_eff, oracle_eff))
                .collect();
            let median = socrates_bench::median(&times);
            let converged = times.iter().filter(|t| t.is_finite()).count();
            let window_start = horizon_s * 2.0 / 3.0;
            let tail: Vec<f64> = traces
                .iter()
                .flatten()
                .filter(|s| s.t_start_s >= window_start && !s.forced)
                .map(|s| true_eff(&s.config))
                .collect();
            let tail_mean = tail.iter().sum::<f64>() / tail.len().max(1) as f64;
            let row = WarmStartRow {
                scenario: (*scenario).to_string(),
                deployment: deployment.to_string(),
                instances,
                horizon_s,
                seed_app: seed_app.clone(),
                oracle_thr_per_w2: oracle_eff,
                median_convergence_time_s: median.is_finite().then_some(median),
                converged_instances: converged,
                final_window_regret: (oracle_eff - tail_mean) / oracle_eff,
            };
            println!(
                "{:>24} {:>12} {:>16} {:>11} {:>12.1}%",
                row.scenario,
                row.deployment,
                row.median_convergence_time_s
                    .map_or("never".to_string(), |t| format!("{t:.1}")),
                format!("{}/{}", row.converged_instances, instances),
                row.final_window_regret * 100.0
            );
            cells.push(row);
        }
    }
    std::fs::remove_dir_all(&store_dir).ok();

    let cell = |scenario: &str, deployment: &str| {
        cells
            .iter()
            .find(|c| c.scenario == scenario && c.deployment == deployment)
            .expect("cell measured")
    };
    let cold = cell("cold", "in-process").median_convergence_time_s;
    let warm = cell("warm-same-app", "in-process").median_convergence_time_s;
    let summary = WarmStartSummary {
        cold_in_process_convergence_s: cold,
        warm_same_app_in_process_convergence_s: warm,
        warm_same_app_fraction_of_cold: warm.unwrap_or(horizon_s)
            / cold.map_or(horizon_s, |c| c.min(horizon_s)).max(1e-9),
    };
    println!(
        "\nwarm-same-app converges in {:.1}% of the cold-start virtual time \
         ({} s vs {} s)",
        summary.warm_same_app_fraction_of_cold * 100.0,
        warm.map_or("never".to_string(), |t| format!("{t:.1}")),
        cold.map_or("never".to_string(), |t| format!("{t:.1}")),
    );
    WarmStartReport { cells, summary }
}

/// The shared observation window, scaled to the fleet: the default
/// window of 8 is sized for a single instance, but `instances` peers
/// all publishing into one pool roll the entire window every round —
/// the pooled mean then carries full single-sample noise (~2% here)
/// while the near-optimal configurations sit within 1% of each other,
/// so selection ping-pongs across the 1.5%-of-oracle line forever
/// (both cold and warm). Eight samples *per instance* keeps the
/// pooled-mean noise sub-percent at any fleet size.
fn fleet_window(instances: usize) -> usize {
    8 * instances.max(1)
}

/// An in-process fleet of the default policy (cooperative exploration
/// on) deployed onto the drifted platform.
fn in_process(
    enhanced: &EnhancedApp,
    drifted: &socrates::Platform,
    warm_start: Option<KnowledgeSnapshot>,
    instances: usize,
) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig {
        warm_start,
        knowledge_window: fleet_window(instances),
        ..FleetConfig::default()
    })
    .expect("valid fleet config");
    fleet.spawn_on(
        enhanced,
        &Rank::throughput_per_watt2(),
        &drifted.machine(7),
        instances,
    );
    fleet
}

/// A full-mesh gossip fleet over an ideal link, the default
/// [`socrates::DistributedConfig`] (no cooperative exploration — the
/// transport does not model assignment hand-off).
fn distributed(
    enhanced: &EnhancedApp,
    warm_start: Option<KnowledgeSnapshot>,
    instances: usize,
) -> DistributedFleet {
    DistributedFleet::new(
        FleetConfig {
            warm_start,
            knowledge_window: fleet_window(instances),
            exploration_interval: 0,
            distributed: Some(socrates::DistributedConfig::default()),
            ..FleetConfig::default()
        },
        enhanced,
    )
    .expect("valid distributed config")
}

/// Cosine distance from the target's feature vector to `donor`'s.
fn donor_distance(store: &ArtifactStore, toolchain: &Toolchain, target: &[f64], donor: App) -> f64 {
    let features = store
        .kernel_features(toolchain, donor)
        .expect("donor features");
    cosine_distance(target, features.features.as_slice())
}

/// Evenly subsamples an enhanced app's design knowledge to `points`
/// operating points (the smoke configuration's speed lever; the
/// version table is keyed by (CO, BP) and stays complete).
fn subsample_knowledge(enhanced: &mut EnhancedApp, points: usize) {
    let all = enhanced.knowledge.points();
    let stride = (all.len() / points).max(1);
    enhanced.knowledge = all
        .iter()
        .step_by(stride)
        .take(points)
        .cloned()
        .collect::<Knowledge<_>>();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The warm-same-app in-process fleet must converge within this
    /// fraction of the committed baseline's cold-start virtual time.
    const TOLERANCE: f64 = 0.05;

    fn committed(name: &str) -> WarmStartReport {
        let path = socrates_bench::results_dir().join(name);
        let json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("no committed results at {}: {e}", path.display()));
        serde_json::from_str(&json).unwrap()
    }

    fn in_process_cell<'a>(report: &'a WarmStartReport, scenario: &str) -> &'a WarmStartRow {
        report
            .cells
            .iter()
            .find(|c| c.scenario == scenario && c.deployment == "in-process")
            .unwrap_or_else(|| panic!("no {scenario} in-process cell"))
    }

    /// The gate: the smoke cells reproduce the committed
    /// `results/warm_start_smoke.json` exactly, every cell has a
    /// counterpart in the full-scale `results/warm_start.json`, and the
    /// shipped snapshot still eliminates that baseline's cold start.
    #[test]
    fn the_smoke_cells_match_the_committed_file_and_skip_the_cold_start() {
        let report = measure(true);
        let smoke = committed("warm_start_smoke.json");
        assert_eq!(report.cells, smoke.cells, "a smoke cell moved");
        assert_eq!(report.summary, smoke.summary);

        let baseline = committed("warm_start.json");
        for row in &report.cells {
            assert!(
                baseline
                    .cells
                    .iter()
                    .any(|b| b.scenario == row.scenario && b.deployment == row.deployment),
                "cell ({}, {}) has no counterpart in results/warm_start.json",
                row.scenario,
                row.deployment
            );
        }
        let cold = in_process_cell(&baseline, "cold");
        let baseline_cold = baseline
            .summary
            .cold_in_process_convergence_s
            .map_or(cold.horizon_s, |c| c.min(cold.horizon_s))
            .max(1e-9);
        let warm = in_process_cell(&report, "warm-same-app");
        let fraction = warm.median_convergence_time_s.unwrap_or(warm.horizon_s) / baseline_cold;
        assert!(
            fraction <= TOLERANCE,
            "warm-same-app convergence took {:.1}% of the recorded cold-start time \
             (allowed {:.1}%): the shipped snapshot no longer eliminates the cold start",
            fraction * 100.0,
            TOLERANCE * 100.0
        );
    }
}
