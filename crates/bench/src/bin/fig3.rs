//! Regenerates the paper's **Figure 3**: the power/throughput
//! distribution over the Pareto-optimal configurations of every
//! benchmark (normalized metrics, shown as boxplot statistics).
//!
//! The experiment performs the full-factorial DSE per application, keeps
//! the Pareto frontier (maximize throughput, minimize power), normalizes
//! each metric by its per-app mean over the frontier and prints the
//! five-number summaries. The wide, app-dependent spans demonstrate the
//! paper's conclusion: there is no one-fits-all configuration.
//!
//! Run with `cargo run -p socrates-bench --bin fig3 --release`.

use margot::Metric;
use polybench::App;
use serde::Serialize;
use socrates::Toolchain;
use socrates_bench::{normalized_metric, BoxStats};

#[derive(Serialize)]
struct Entry {
    benchmark: String,
    pareto_points: usize,
    power: BoxStats,
    throughput: BoxStats,
}

fn main() {
    socrates_bench::args(&[]);
    let toolchain = Toolchain::default();
    println!("Figure 3 — power/throughput distribution over the Pareto curve");
    println!("(values normalized by the per-app mean over the Pareto set)");
    println!();
    println!(
        "{:<12} {:>4} | {:>28} | {:>28}",
        "Benchmark", "#P", "Power (min q1 med q3 max)", "Thr (min q1 med q3 max)"
    );

    // Batch enhancement: one shared artifact store, the COBAYN corpus
    // built once for all 12 apps instead of once per app.
    let enhanced_apps = toolchain
        .enhance_all(&App::ALL)
        .unwrap_or_else(|e| panic!("{e}"));

    let mut entries = Vec::new();
    for enhanced in &enhanced_apps {
        let app = enhanced.app;
        let pareto = dse::power_throughput_pareto(&enhanced.knowledge);
        let power = BoxStats::from_values(&normalized_metric(&pareto, &Metric::power()));
        let thr = BoxStats::from_values(&normalized_metric(&pareto, &Metric::throughput()));
        println!(
            "{:<12} {:>4} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} {:>5.2}",
            app.name(),
            pareto.len(),
            power.min,
            power.q1,
            power.median,
            power.q3,
            power.max,
            thr.min,
            thr.q1,
            thr.median,
            thr.q3,
            thr.max,
        );
        entries.push(Entry {
            benchmark: app.name().to_string(),
            pareto_points: pareto.len(),
            power,
            throughput: thr,
        });
    }

    // The paper's headline: the swing across the Pareto set is large.
    let max_power_swing = entries
        .iter()
        .map(|e| e.power.range())
        .fold(0.0f64, f64::max);
    let max_thr_swing = entries
        .iter()
        .map(|e| e.throughput.range())
        .fold(0.0f64, f64::max);
    println!();
    println!(
        "largest normalized swing: power {max_power_swing:.2}, throughput {max_thr_swing:.2} \
         => no one-fits-all configuration"
    );

    socrates_bench::write_json("fig3", &entries);
}
