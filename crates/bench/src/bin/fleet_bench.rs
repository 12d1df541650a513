//! Fleet experiment: the paper's *online* loop at deployment scale.
//!
//! Two studies, numbers recorded in `BENCH.md`:
//!
//! 1. **Scaling** — N-instance fleets (N = 1, 2, 4, 8, 16) of the
//!    adaptive 2mm binary stepped in lockstep for 60 virtual seconds:
//!    total invocations, virtual throughput and host wall time.
//! 2. **Online convergence under drift** — the fleet deploys onto a
//!    machine running hotter than the design-time platform
//!    (`Platform::hotter(DRIFT_FACTOR)`: per-core dynamic power +60%,
//!    idle floor unchanged — a *non-uniform* drift). Frozen design-time
//!    knowledge keeps selecting the stale Thr/W² optimum (a uniform
//!    feedback ratio cannot re-order operating points under a
//!    geometric rank); the online fleet sweeps the space
//!    cooperatively, merges true observations into the shared
//!    knowledge and locks onto the genuinely best point. Reported
//!    against the oracle (noise-free argmax on the drifted machine).
//!
//! Run with `cargo run -p socrates-bench --bin fleet_bench --release`.

use margot::{Metric, Rank};
use platform_sim::KnobConfig;
use polybench::App;
use serde::Serialize;
use socrates::{EnhancedApp, Fleet, FleetConfig, FleetRuntime, Toolchain, TraceSample};
use std::time::Instant;

const DRIFT_FACTOR: f64 = 1.6;
const HORIZON_S: f64 = 300.0;
const FINAL_WINDOW_S: f64 = 100.0;
const INSTANCES: usize = 8;

#[derive(Serialize)]
struct ScalingRow {
    instances: usize,
    virtual_seconds: f64,
    total_invocations: usize,
    invocations_per_virtual_s: f64,
    host_wall_ms: f64,
}

#[derive(Serialize)]
struct ConvergenceRow {
    mode: String,
    instances: usize,
    final_window_thr_per_w2: f64,
    final_window_mean_power_w: f64,
    final_window_mean_exec_ms: f64,
    energy_per_invocation_j: f64,
    oracle_thr_per_w2: f64,
    regret_vs_oracle: f64,
    median_convergence_time_s: f64,
    instances_on_oracle_config: usize,
    explored_points: usize,
    total_points: usize,
}

fn main() {
    socrates_bench::args(&[]);
    let enhanced = Toolchain::default()
        .enhance(App::TwoMm)
        .expect("enhance 2mm");

    println!("Fleet runtime — online knowledge sharing at deployment scale");
    println!();
    scaling_study(&enhanced);
    println!();
    convergence_study(&enhanced);
}

fn scaling_study(enhanced: &EnhancedApp) {
    println!("── N-instance throughput scaling (60 virtual seconds each) ──");
    println!(
        "{:>10} {:>14} {:>12} {:>14}",
        "instances", "invocations", "inv/virt-s", "host wall [ms]"
    );
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8, 16] {
        let mut fleet = Fleet::new(FleetConfig::default()).expect("valid fleet config");
        fleet.spawn(enhanced, &Rank::throughput_per_watt2(), 2018, n);
        let wall = Instant::now();
        fleet.run_until(60.0);
        let host_wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        let total: usize = (0..n).map(|id| fleet.trace(id).len()).sum();
        let row = ScalingRow {
            instances: n,
            virtual_seconds: 60.0,
            total_invocations: total,
            invocations_per_virtual_s: total as f64 / 60.0,
            host_wall_ms,
        };
        println!(
            "{:>10} {:>14} {:>12.1} {:>14.1}",
            row.instances, row.total_invocations, row.invocations_per_virtual_s, row.host_wall_ms
        );
        rows.push(row);
    }
    socrates_bench::write_json("fleet_scaling", &rows);
}

fn convergence_study(enhanced: &EnhancedApp) {
    println!("── Online knowledge vs frozen design-time knowledge under drift ──");
    println!(
        "deployment drift: {DRIFT_FACTOR}x per-core dynamic power (idle floor unchanged), \
         {INSTANCES} instances, rank Thr/W², {HORIZON_S} virtual s"
    );

    // The oracle: the noise-free Thr/W² argmax on the drifted machine.
    let drifted = enhanced.platform.hotter(DRIFT_FACTOR);
    let oracle_machine = drifted.machine(0);
    let (oracle_config, oracle_eff) = enhanced
        .knowledge
        .points()
        .iter()
        .map(|p| {
            let e = oracle_machine.expected(&enhanced.profile, &p.config);
            (p.config.clone(), e.throughput_per_watt2())
        })
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
        .expect("non-empty knowledge");
    println!(
        "oracle config on the drifted machine: {} threads, {} binding ({oracle_eff:.3e} Thr/W²)",
        oracle_config.tn, oracle_config.bp
    );

    let mut rows = Vec::new();
    for (mode, share) in [("online", true), ("frozen", false)] {
        let mut fleet = Fleet::new(FleetConfig {
            share_knowledge: share,
            ..FleetConfig::default()
        })
        .expect("valid fleet config");
        let base = drifted.machine(7);
        fleet.spawn_on(enhanced, &Rank::throughput_per_watt2(), &base, INSTANCES);
        fleet.run_until(HORIZON_S);

        let traces: Vec<Vec<TraceSample>> = (0..INSTANCES).map(|id| fleet.trace(id)).collect();
        let window_start = HORIZON_S - FINAL_WINDOW_S;
        let tail: Vec<&TraceSample> = traces
            .iter()
            .flatten()
            .filter(|s| s.t_start_s >= window_start && !s.forced)
            .collect();
        let inv = tail.len() as f64;
        let mean_power = tail.iter().map(|s| s.power_w).sum::<f64>() / inv;
        let mean_exec = tail.iter().map(|s| s.time_s).sum::<f64>() / inv;
        let throughput = 1.0 / mean_exec;
        let eff = throughput / (mean_power * mean_power);
        let energy: f64 = tail.iter().map(|s| s.time_s * s.power_w).sum::<f64>() / inv;
        // Convergence: earliest virtual time after which every later
        // planned selection's *true* efficiency (noise-free, on the
        // drifted machine) stays within 1.5% of the oracle.
        let true_eff = |config: &KnobConfig| {
            oracle_machine
                .expected(&enhanced.profile, config)
                .throughput_per_watt2()
        };
        let convergence_times: Vec<f64> = traces
            .iter()
            .map(|t| socrates_bench::convergence_time_s(t, &true_eff, oracle_eff))
            .collect();
        let median_lock = socrates_bench::median(&convergence_times);
        let on_oracle = traces
            .iter()
            .filter(|t| {
                t.iter()
                    .rev()
                    .find(|s| !s.forced)
                    .is_some_and(|s| s.config == oracle_config)
            })
            .count();
        let (explored, total) = fleet.exploration_coverage(App::TwoMm).expect("pool exists");
        let row = ConvergenceRow {
            mode: mode.to_string(),
            instances: INSTANCES,
            final_window_thr_per_w2: eff,
            final_window_mean_power_w: mean_power,
            final_window_mean_exec_ms: mean_exec * 1e3,
            energy_per_invocation_j: energy,
            oracle_thr_per_w2: oracle_eff,
            regret_vs_oracle: (oracle_eff - eff) / oracle_eff,
            median_convergence_time_s: median_lock,
            instances_on_oracle_config: on_oracle,
            explored_points: explored,
            total_points: total,
        };
        println!();
        println!(
            "{mode:>7}: Thr/W² {:.3e} (oracle {:.3e}, regret {:+.1}%), \
             power {:.1} W, exec {:.1} ms, energy {:.2} J/inv",
            row.final_window_thr_per_w2,
            row.oracle_thr_per_w2,
            row.regret_vs_oracle * 100.0,
            row.final_window_mean_power_w,
            row.final_window_mean_exec_ms,
            row.energy_per_invocation_j,
        );
        println!(
            "         time to within 1.5% of oracle (median) {} virtual s, {} / {INSTANCES} \
             instances on the oracle config, online coverage {}/{}",
            if row.median_convergence_time_s.is_finite() {
                format!("{:.1}", row.median_convergence_time_s)
            } else {
                "never".to_string()
            },
            row.instances_on_oracle_config,
            row.explored_points,
            row.total_points,
        );
        rows.push(row);
    }
    socrates_bench::write_json("fleet_convergence", &rows);

    // Fleet-level power-budget arbitration demo rides on the same
    // drifted deployment: a global budget, instances leaving.
    println!();
    arbiter_study(enhanced);
}

fn arbiter_study(enhanced: &EnhancedApp) {
    let drifted = enhanced.platform.hotter(DRIFT_FACTOR);
    let budget = 8.0 * 80.0;
    println!("── Power-budget arbitration (global {budget} W, minimize exec time) ──");
    let mut fleet = Fleet::new(FleetConfig::default()).expect("valid fleet config");
    let base = drifted.machine(7);
    fleet.spawn_on(enhanced, &Rank::minimize(Metric::exec_time()), &base, 8);
    fleet
        .set_power_budget(Some(budget))
        .expect("valid power budget");
    fleet.run_until(60.0);
    let before: f64 = mean_tail_power(&fleet, 0..8, 30.0);
    // Half the fleet leaves: the survivors' slice doubles. Only the
    // survivors' traces enter the "after" mean — the retired
    // instances' traces end frozen in the 80 W-share era.
    for id in 0..4 {
        fleet.retire_instance(id);
    }
    fleet.run_until(120.0);
    let after: f64 = mean_tail_power(&fleet, 4..8, 30.0);
    println!(
        "mean per-instance power, last 30 s: {before:.1} W with 8 instances \
         -> {after:.1} W after 4 leave (share {:.0} W -> {:.0} W)",
        budget / 8.0,
        budget / 4.0
    );
    #[derive(Serialize)]
    struct ArbiterRow {
        budget_w: f64,
        mean_power_8_instances_w: f64,
        mean_power_4_instances_w: f64,
    }
    socrates_bench::write_json(
        "fleet_arbiter",
        &ArbiterRow {
            budget_w: budget,
            mean_power_8_instances_w: before,
            mean_power_4_instances_w: after,
        },
    );
}

/// Mean observed power over each instance's last `window_s` of
/// *planned* samples (exploration steps excluded — they execute
/// arbitrary configurations by design).
fn mean_tail_power(fleet: &Fleet, ids: std::ops::Range<usize>, window_s: f64) -> f64 {
    let mut values = Vec::new();
    for id in ids {
        let trace = fleet.trace(id);
        let Some(end) = trace.last().map(|s| s.t_start_s + s.time_s) else {
            continue;
        };
        for s in trace
            .iter()
            .filter(|s| s.t_start_s >= end - window_s && !s.forced)
        {
            values.push(s.power_w);
        }
    }
    values.iter().sum::<f64>() / values.len() as f64
}
