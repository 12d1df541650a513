//! Regenerates the paper's **Figure 4**: static (compile-time) analysis
//! of the proposed approach on 2mm — minimize execution time given a
//! power budget swept from 45 W to 140 W.
//!
//! For every budget the AS-RTM solves the constrained problem
//! `min exec_time s.t. power <= budget` over the design-time knowledge
//! and reports the selected execution time, compiler flags
//! (-Os/-O1/-O2/-O3 or CF1..CF4), OpenMP thread count and binding policy.
//!
//! Run with `cargo run -p socrates-bench --bin fig4 --release`.

use margot::{AsRtm, Cmp, Constraint, Metric, Rank};
use polybench::App;
use serde::Serialize;
use socrates::Toolchain;
use socrates_bench::{co_axis_index, co_label};

#[derive(Serialize)]
struct Point {
    budget_w: f64,
    exec_time_ms: f64,
    expected_power_w: f64,
    compiler: String,
    compiler_axis: usize,
    threads: u32,
    binding: String,
    feasible: bool,
}

fn main() {
    socrates_bench::args(&[]);
    let enhanced = Toolchain::default()
        .enhance(App::TwoMm)
        .expect("enhance 2mm");
    println!("Figure 4 — static tuning of 2mm: min exec time s.t. power <= budget");
    println!();
    println!(
        "{:>8} {:>12} {:>10} {:>9} {:>8} {:>7}",
        "Budget W", "Exec [ms]", "Power [W]", "Compiler", "Threads", "Bind"
    );

    let mut rtm = AsRtm::new(
        enhanced.knowledge.clone(),
        Rank::minimize(Metric::exec_time()),
    );
    rtm.add_constraint(Constraint::new(
        Metric::power(),
        Cmp::LessOrEqual,
        f64::MAX,
        10,
    ));

    let mut points = Vec::new();
    let mut budget = 45.0;
    while budget <= 140.0 + 1e-9 {
        rtm.set_constraint_value(&Metric::power(), budget);
        let best = rtm.best().expect("knowledge non-empty");
        let time_ms = best.metric(&Metric::exec_time()).expect("profiled") * 1e3;
        let power = best.metric(&Metric::power()).expect("profiled");
        let feasible = power <= budget;
        println!(
            "{:>8.0} {:>12.1} {:>10.1} {:>9} {:>8} {:>7}{}",
            budget,
            time_ms,
            power,
            co_label(&best.config.co, &enhanced.cobayn_flags),
            best.config.tn,
            best.config.bp,
            if feasible {
                ""
            } else {
                "  (budget infeasible)"
            }
        );
        points.push(Point {
            budget_w: budget,
            exec_time_ms: time_ms,
            expected_power_w: power,
            compiler: co_label(&best.config.co, &enhanced.cobayn_flags),
            compiler_axis: co_axis_index(&best.config.co, &enhanced.cobayn_flags),
            threads: best.config.tn,
            binding: best.config.bp.to_string(),
            feasible,
        });
        budget += 2.0;
    }

    let fastest = points
        .iter()
        .map(|p| p.exec_time_ms)
        .fold(f64::INFINITY, f64::min);
    let slowest = points.iter().map(|p| p.exec_time_ms).fold(0.0f64, f64::max);
    println!();
    println!(
        "exec-time dynamic range across budgets: {slowest:.0} ms -> {fastest:.0} ms \
         ({:.1}x)",
        slowest / fastest
    );

    socrates_bench::write_json("fig4", &points);
}
