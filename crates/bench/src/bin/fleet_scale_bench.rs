//! Fleet scaling experiment: lockstep round cost from 16 to 4096
//! instances, at one knowledge shard and at the default sixteen.
//!
//! For each fleet size N the same deployment is stepped for a fixed
//! number of synchronized rounds in two modes:
//!
//! - **baseline** — `knowledge_shards = 1`;
//! - **sharded** — the defaults ([`margot::DEFAULT_SHARDS`] shards).
//!
//! The shared knowledge has one owner and one columnar arena in both
//! modes: shards only partition its snapshots, deltas and epoch
//! vector, so the two modes run the same round loop and differ only in
//! that wire partition. Both patch dirty points incrementally into the
//! pool cache and are bit-identical in output (pinned by
//! `tests/fleet_equivalence.rs` and re-asserted here on the learned
//! knowledge). The two mode names and their committed cells stay so
//! that the `--check` gate keeps comparing like with like. Numbers land
//! in `results/fleet_scale.json` (`results/fleet_scale_smoke.json` for
//! the smoke configuration, so the committed baseline is never
//! clobbered by CI) and BENCH.md.
//!
//! The design knowledge is subsampled to [`KNOWLEDGE_POINTS`] points so
//! the AS-RTM planning cost (linear in points, identical in both
//! modes) does not drown the knowledge-layer cost being measured at
//! N = 4096.
//!
//! # Regression gate
//!
//! `--check` compares the run against the committed baseline in
//! `results/fleet_scale.json`: every measured `(instances, mode)` cell
//! **must** have a baseline counterpart (a missing cell fails
//! the gate — new cells can't dodge it), and if any cell's publish
//! throughput fell below `tolerance × baseline` (default 0.4 — loose
//! on purpose, CI runners are slower and noisier than the machine
//! that produced the baseline), the process exits nonzero so CI
//! fails instead of silently drifting. Tune with `--tolerance
//! <ratio>`.
//!
//! Run with `cargo run -p socrates-bench --bin fleet_scale_bench
//! --release` (`--smoke --check` is the CI regression-gate
//! configuration).

use margot::Rank;
use polybench::App;
use serde::{Deserialize, Serialize};
use socrates::{Fleet, FleetConfig, FleetRuntime};
use std::time::Instant;

/// Design-knowledge subsample handed to every instance.
const KNOWLEDGE_POINTS: usize = 64;
/// Synchronized rounds timed per (N, mode) cell.
const ROUNDS: usize = 12;
/// Default `--check` tolerance: a cell regresses when its publish
/// throughput falls below this fraction of the committed baseline.
const DEFAULT_TOLERANCE: f64 = 0.4;

#[derive(Serialize, Deserialize)]
struct ScaleRow {
    mode: String,
    instances: usize,
    rounds: usize,
    knowledge_points: usize,
    knowledge_shards: usize,
    total_steps: usize,
    mean_round_wall_ms: f64,
    publish_throughput_obs_per_s: f64,
}

fn main() {
    let args = socrates_bench::args(&["--smoke", "--check", "--tolerance"]);
    let (smoke, check) = (args.smoke, args.check);
    let tolerance = args.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    // The smoke sizes are a subset of the full sizes so every smoke
    // cell has a committed-baseline counterpart for `--check`.
    let sizes: &[usize] = if smoke {
        &[16, 64]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    let enhanced = socrates_bench::subsampled_twomm(KNOWLEDGE_POINTS);
    println!(
        "Fleet scaling — default shards vs one shard\n\
         ({KNOWLEDGE_POINTS}-point knowledge, {ROUNDS} synchronized rounds per cell)\n"
    );
    println!(
        "{:>10} {:>10} {:>8} {:>18} {:>16}",
        "instances", "mode", "shards", "round wall [ms]", "publish [obs/s]"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let mut learned = Vec::new();
        for mode in ["baseline", "sharded"] {
            let config = match mode {
                "baseline" => FleetConfig {
                    knowledge_shards: 1,
                    ..FleetConfig::default()
                },
                _ => FleetConfig::default(),
            };
            let shards = config.knowledge_shards;
            let mut fleet = Fleet::new(config).expect("valid fleet config");
            fleet.spawn(&enhanced, &Rank::throughput_per_watt2(), 2018, n);
            // One untimed warm-up round, as when the committed baseline
            // was recorded, so every gated cell times the same rounds.
            fleet.run_events(1);
            let steps_before = steps_run(&fleet);
            let wall = Instant::now();
            fleet.run_events(ROUNDS as u64);
            let wall_s = wall.elapsed().as_secs_f64();
            let total_steps = steps_run(&fleet) - steps_before;
            let row = ScaleRow {
                mode: mode.to_string(),
                instances: n,
                rounds: ROUNDS,
                knowledge_points: KNOWLEDGE_POINTS,
                knowledge_shards: shards,
                total_steps,
                mean_round_wall_ms: wall_s * 1e3 / ROUNDS as f64,
                // Every step publishes exactly one observation into the
                // shared knowledge at the barrier.
                publish_throughput_obs_per_s: total_steps as f64 / wall_s,
            };
            println!(
                "{:>10} {:>10} {:>8} {:>18.1} {:>16.0}",
                row.instances,
                row.mode,
                row.knowledge_shards,
                row.mean_round_wall_ms,
                row.publish_throughput_obs_per_s
            );
            learned.push(fleet.learned_knowledge(App::TwoMm).expect("pool exists"));
            rows.push(row);
        }
        for other in &learned[1..] {
            assert_eq!(
                &learned[0], other,
                "every mode must learn bit-identical knowledge"
            );
        }
        println!();
    }
    // The smoke configuration never overwrites the committed
    // full-scale baseline it is compared against.
    let name = if smoke {
        "fleet_scale_smoke"
    } else {
        "fleet_scale"
    };
    socrates_bench::write_json(name, &rows);
    if check {
        check_against_baseline(&rows, tolerance);
    }
}

/// Kernel invocations the fleet has run so far, across all instances.
fn steps_run(fleet: &Fleet) -> usize {
    (0..fleet.len()).map(|id| fleet.trace(id).len()).sum()
}

/// Compares the run against `results/fleet_scale.json` and exits
/// nonzero on regression (the CI gate).
fn check_against_baseline(rows: &[ScaleRow], tolerance: f64) {
    assert!(
        tolerance.is_finite() && tolerance > 0.0,
        "tolerance {tolerance} must be a positive ratio"
    );
    let path = socrates_bench::results_dir().join("fleet_scale.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", path.display()));
    let baseline: Vec<ScaleRow> =
        serde_json::from_str(&json).expect("committed baseline parses as ScaleRow list");
    let mut compared = 0;
    let mut regressions = Vec::new();
    println!(
        "regression check against {} (tolerance {tolerance}):",
        path.display()
    );
    for row in rows {
        // A measured cell with no baseline counterpart is a hard
        // failure: silently skipping it would let new bench cells
        // dodge the regression gate entirely.
        let base = baseline
            .iter()
            .find(|b| b.instances == row.instances && b.mode == row.mode)
            .unwrap_or_else(|| {
                panic!(
                    "measured cell (N={}, {}) has no counterpart in the committed \
                     baseline {} — re-record the baseline to cover it",
                    row.instances,
                    row.mode,
                    path.display()
                )
            });
        compared += 1;
        let ratio = row.publish_throughput_obs_per_s / base.publish_throughput_obs_per_s;
        let verdict = if ratio < tolerance { "REGRESSED" } else { "ok" };
        println!(
            "  {:>6} {:>10}: {:>10.0} obs/s vs baseline {:>10.0} obs/s (x{:.2}) {}",
            row.instances,
            row.mode,
            row.publish_throughput_obs_per_s,
            base.publish_throughput_obs_per_s,
            ratio,
            verdict
        );
        if ratio < tolerance {
            regressions.push(format!(
                "{} N={}: throughput fell to {:.0} obs/s, x{:.2} of the baseline {:.0} \
                 (tolerance x{tolerance})",
                row.mode,
                row.instances,
                row.publish_throughput_obs_per_s,
                ratio,
                base.publish_throughput_obs_per_s
            ));
        }
    }
    assert!(
        compared > 0,
        "no overlapping (instances, mode) cells between this run and the committed \
         baseline — the gate compared nothing"
    );
    if !regressions.is_empty() {
        eprintln!("\nbench regression gate FAILED:");
        for r in &regressions {
            eprintln!("  - {r}");
        }
        std::process::exit(1);
    }
    println!("bench regression gate passed ({compared} cells compared)");
}
