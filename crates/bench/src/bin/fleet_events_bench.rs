//! Event-driven fleet scaling: per-event cost of the sparse
//! discrete-event scheduler as the concurrent instance count grows
//! from thousands to a million.
//!
//! For each fleet size N the same deployment is booted as N **sparse**
//! event-pool entries (one slab slot + one heap event each — no
//! per-instance knowledge clone, no application object) and a fixed
//! number of heap events is processed off the scheduler. The claim
//! under test is the one that justifies the event-driven redesign:
//! **per-event cost is independent of the total instance count** — the
//! heap pop is `O(log n)`, everything else an event touches (slab
//! slot, pool selection cache, per-position execution cache, sharded
//! publish) is `O(1)` amortised — so the `events/s` column stays flat
//! from N = 4096 to N = 1048576 instead of collapsing the way the
//! barrier loop's `O(N)` rounds do.
//!
//! The full configuration additionally runs a **diurnal** cell: a
//! seeded [`socrates::WorkloadTrace`] churns tens of thousands of
//! arrivals/retirements through the slab (generational handles, slot
//! reuse) while the load follows a day-curve — the deployment shape
//! the event runtime exists to serve.
//!
//! Numbers land in `results/fleet_events.json`
//! (`results/fleet_events_smoke.json` for the smoke configuration, so
//! the committed baseline is never clobbered by CI) and BENCH.md.
//!
//! `--check` compares the run against the committed baseline in
//! `results/fleet_events.json`: every measured `(mode, instances)`
//! cell **must** have a baseline counterpart (a missing cell fails the
//! gate), and any cell whose event throughput fell below `tolerance ×
//! baseline` (default 0.4 — CI runners are slower and noisier than the
//! machine that produced the baseline) fails the process. Tune with
//! `--tolerance <ratio>`.
//!
//! Run with `cargo run -p socrates-bench --bin fleet_events_bench
//! --release` (`--smoke --check` is the CI regression-gate
//! configuration).

use margot::Rank;
use polybench::App;
use serde::{Deserialize, Serialize};
use socrates::{EventFleet, FleetConfig, FleetRuntime, Schedule, WorkloadCurve, WorkloadTrace};
use std::time::Instant;

/// Design-knowledge subsample handed to every pool.
const KNOWLEDGE_POINTS: usize = 64;
/// Untimed events processed before the clock starts, so first-touch
/// cache fills (selection scan, per-position execution cache) don't
/// pollute the smallest cell.
const WARMUP_EVENTS: u64 = 1_000;
/// Default `--check` tolerance: a cell regresses when its event
/// throughput falls below this fraction of the committed baseline.
const DEFAULT_TOLERANCE: f64 = 0.4;
/// The flatness gate (full runs): the worst per-event cost across the
/// static cells may not exceed this multiple of the best, or the
/// "per-event cost is independent of N" claim is broken.
const FLATNESS_BOUND: f64 = 3.0;

#[derive(Serialize, Deserialize)]
struct EventRow {
    mode: String,
    instances: usize,
    events: u64,
    knowledge_points: usize,
    spawn_wall_ms: f64,
    per_event_us: f64,
    events_per_s: f64,
    knowledge_epoch: u64,
    covered: usize,
    spawned: u64,
    retired: u64,
}

fn main() {
    let args = socrates_bench::args(&["--smoke", "--check", "--tolerance"]);
    let (smoke, check) = (args.smoke, args.check);
    let tolerance = args.tolerance.unwrap_or(DEFAULT_TOLERANCE);
    // The smoke sizes are a subset of the full sizes so every smoke
    // cell has a committed-baseline counterpart for `--check`.
    let sizes: &[usize] = if smoke {
        &[4096, 65536]
    } else {
        &[4096, 65536, 1_048_576]
    };
    let events: u64 = if smoke { 100_000 } else { 2_000_000 };
    let enhanced = socrates_bench::subsampled_twomm(KNOWLEDGE_POINTS);
    let rank = Rank::throughput_per_watt2();
    let config = || {
        FleetConfig::builder()
            .schedule(Schedule::EventDriven)
            .build()
            .expect("valid fleet config")
    };
    println!(
        "Event-driven fleet scaling — per-event cost vs concurrent sparse instances\n\
         ({KNOWLEDGE_POINTS}-point knowledge, {events} timed events per cell)\n"
    );
    println!(
        "{:>8} {:>10} {:>10} {:>14} {:>14} {:>14} {:>8}",
        "mode", "instances", "events", "spawn [ms]", "event [µs]", "events/s", "epoch"
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let mut fleet = EventFleet::new(config()).expect("valid fleet config");
        let spawn_wall = Instant::now();
        fleet.spawn(&enhanced, &rank, 2018, n);
        let spawn_ms = spawn_wall.elapsed().as_secs_f64() * 1e3;
        fleet.run_events(WARMUP_EVENTS);
        let wall = Instant::now();
        fleet.run_events(events);
        let wall_s = wall.elapsed().as_secs_f64();
        let stats = fleet.stats();
        assert_eq!(
            stats.events,
            WARMUP_EVENTS + events,
            "the scheduler processed a different number of events than asked"
        );
        rows.push(report(EventRow {
            mode: "static".into(),
            instances: n,
            events,
            knowledge_points: KNOWLEDGE_POINTS,
            spawn_wall_ms: spawn_ms,
            per_event_us: wall_s * 1e6 / events as f64,
            events_per_s: events as f64 / wall_s,
            knowledge_epoch: fleet.knowledge_epoch(App::TwoMm).expect("pool exists"),
            covered: fleet
                .exploration_coverage(App::TwoMm)
                .expect("pool exists")
                .0,
            spawned: stats.spawned,
            retired: stats.retired,
        }));
    }
    if !smoke {
        rows.push(diurnal_cell(&enhanced, &rank, config()));
    }
    let static_costs: Vec<f64> = rows
        .iter()
        .filter(|r| r.mode == "static")
        .map(|r| r.per_event_us)
        .collect();
    let worst = static_costs.iter().cloned().fold(f64::MIN, f64::max);
    let best = static_costs.iter().cloned().fold(f64::MAX, f64::min);
    println!(
        "\nper-event flatness: worst {:.2} µs / best {:.2} µs = x{:.2} across N = {} .. {}",
        worst,
        best,
        worst / best,
        sizes.first().expect("sizes"),
        sizes.last().expect("sizes"),
    );
    // The flatness claim is only gated on full runs: the smoke sizes
    // span a factor of 16, not 256, and CI wall clocks are noisy.
    if !smoke {
        assert!(
            worst / best <= FLATNESS_BOUND,
            "per-event cost is not flat in N: worst {worst:.2} µs is x{:.2} of best \
             {best:.2} µs (bound x{FLATNESS_BOUND})",
            worst / best
        );
    }
    let name = if smoke {
        "fleet_events_smoke"
    } else {
        "fleet_events"
    };
    socrates_bench::write_json(name, &rows);
    if check {
        check_against_baseline(&rows, tolerance);
    }
}

/// Prints one result line and passes the row through.
fn report(row: EventRow) -> EventRow {
    println!(
        "{:>8} {:>10} {:>10} {:>14.1} {:>14.2} {:>14.0} {:>8}",
        row.mode,
        row.instances,
        row.events,
        row.spawn_wall_ms,
        row.per_event_us,
        row.events_per_s,
        row.knowledge_epoch
    );
    row
}

/// The churn cell: a 60-virtual-second diurnal workload trace (about
/// 12k seeded arrivals, exponential lifetimes) run to completion —
/// arrivals, retirements and publishes are all heap events, so the
/// timed quantity is the same per-event cost as the static cells, just
/// under continuous slab churn.
fn diurnal_cell(enhanced: &socrates::EnhancedApp, rank: &Rank, config: FleetConfig) -> EventRow {
    let trace = WorkloadTrace {
        seed: 7,
        horizon_s: 60.0,
        base_rate_hz: 200.0,
        mean_lifetime_s: 5.0,
        curve: WorkloadCurve::Diurnal {
            period_s: 30.0,
            amplitude: 0.6,
        },
    };
    let mut fleet = EventFleet::new(config).expect("valid fleet config");
    let spawn_wall = Instant::now();
    let arrivals = fleet.drive(&trace, enhanced, rank).expect("valid trace");
    let spawn_ms = spawn_wall.elapsed().as_secs_f64() * 1e3;
    let wall = Instant::now();
    fleet.run_until(trace.horizon_s + 30.0);
    let wall_s = wall.elapsed().as_secs_f64();
    let stats = fleet.stats();
    assert_eq!(stats.spawned as usize, arrivals, "every arrival admits");
    assert!(
        stats.retired > 0,
        "a 60 s trace with 5 s mean lifetimes retires instances"
    );
    report(EventRow {
        mode: "diurnal".into(),
        instances: arrivals,
        events: stats.events,
        knowledge_points: KNOWLEDGE_POINTS,
        spawn_wall_ms: spawn_ms,
        per_event_us: wall_s * 1e6 / stats.events as f64,
        events_per_s: stats.events as f64 / wall_s,
        knowledge_epoch: fleet.knowledge_epoch(App::TwoMm).expect("pool exists"),
        covered: fleet
            .exploration_coverage(App::TwoMm)
            .expect("pool exists")
            .0,
        spawned: stats.spawned,
        retired: stats.retired,
    })
}

/// Compares the run against `results/fleet_events.json` and exits
/// nonzero on regression (the CI gate).
fn check_against_baseline(rows: &[EventRow], tolerance: f64) {
    assert!(
        tolerance.is_finite() && tolerance > 0.0,
        "tolerance {tolerance} must be a positive ratio"
    );
    let path = socrates_bench::results_dir().join("fleet_events.json");
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no committed baseline at {}: {e}", path.display()));
    let baseline: Vec<EventRow> =
        serde_json::from_str(&json).expect("committed baseline parses as EventRow list");
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
                    "measured cell ({}, N={}) has no counterpart in the committed \
                     baseline {} — re-record the baseline to cover it",
                    row.mode,
                    row.instances,
                    path.display()
                )
            });
        compared += 1;
        let ratio = row.events_per_s / base.events_per_s;
        let verdict = if ratio < tolerance { "REGRESSED" } else { "ok" };
        println!(
            "  {:>8} {:>10}: {:>12.0} events/s vs baseline {:>12.0} events/s (x{:.2}) {}",
            row.mode, row.instances, row.events_per_s, base.events_per_s, ratio, verdict
        );
        if ratio < tolerance {
            regressions.push(format!(
                "{} N={}: throughput fell to {:.0} events/s, x{:.2} of the baseline \
                 {:.0} (tolerance x{tolerance})",
                row.mode, row.instances, row.events_per_s, ratio, base.events_per_s
            ));
        }
    }
    assert!(
        compared > 0,
        "no overlapping (mode, instances) cells between this run and the committed \
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
