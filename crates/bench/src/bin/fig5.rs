//! Regenerates the paper's **Figure 5**: a 300-second execution trace of
//! the adaptive 2mm binary while the application requirement changes at
//! runtime:
//!
//! - 0 s – 100 s: energy-efficient policy, maximize Thr/W²;
//! - 100 s – 200 s: performance policy, maximize Throughput;
//! - 200 s – 300 s: back to Thr/W².
//!
//! The trace reports, per invocation, the observed power, execution
//! time, binding policy, compiler configuration and thread count —
//! the five panels of the paper's figure.
//!
//! Run with `cargo run -p socrates-bench --bin fig5 --release`.

use margot::{Metric, Rank};
use platform_sim::BindingPolicy;
use polybench::App;
use serde::Serialize;
use socrates::{AdaptiveApplication, ArtifactStore, Toolchain};
use socrates_bench::co_label;

#[derive(Serialize)]
struct Sample {
    t_s: f64,
    power_w: f64,
    exec_time_ms: f64,
    binding: String,
    compiler: String,
    threads: u32,
    phase: String,
}

fn main() {
    socrates_bench::args(&[]);
    let toolchain = Toolchain::default();
    let store = ArtifactStore::new();
    let enhanced = toolchain
        .enhance_with_store(App::TwoMm, &store)
        .expect("enhance 2mm");
    let cobayn_flags = enhanced.cobayn_flags.clone();
    let mut app = AdaptiveApplication::new(enhanced, Rank::throughput_per_watt2(), 2018);

    println!("Figure 5 — 2mm execution trace with runtime requirement changes");
    println!("phases: [0,100) Thr/W^2, [100,200) Throughput, [200,300) Thr/W^2");
    println!();

    let phases = [
        ("Thr/W^2", 100.0),
        ("Throughput", 100.0),
        ("Thr/W^2", 100.0),
    ];
    let mut samples: Vec<Sample> = Vec::new();
    for (i, (phase, duration)) in phases.iter().enumerate() {
        match i {
            1 => app.set_rank(Rank::maximize(Metric::throughput())),
            2 => app.set_rank(Rank::throughput_per_watt2()),
            _ => {}
        }
        for s in app.run_for(*duration) {
            samples.push(Sample {
                t_s: s.t_start_s,
                power_w: s.power_w,
                exec_time_ms: s.time_s * 1e3,
                binding: s.config.bp.to_string(),
                compiler: co_label(&s.config.co, &cobayn_flags),
                threads: s.config.tn,
                phase: phase.to_string(),
            });
        }
    }

    // Print a decimated trace (~every 5 virtual seconds) in panel order.
    println!(
        "{:>8} {:>9} {:>10} {:>6} {:>9} {:>8}  Phase",
        "t [s]", "Power[W]", "Exec[ms]", "Bind", "Compiler", "Threads"
    );
    let mut next_print = 0.0;
    for s in &samples {
        if s.t_s >= next_print {
            println!(
                "{:>8.1} {:>9.1} {:>10.1} {:>6} {:>9} {:>8}  {}",
                s.t_s,
                s.power_w,
                s.exec_time_ms,
                if s.binding == BindingPolicy::Close.to_string() {
                    "C"
                } else {
                    "S"
                },
                s.compiler,
                s.threads,
                s.phase
            );
            next_print += 5.0;
        }
    }

    // Phase summary: the paper's observable effect.
    println!();
    for phase in ["Thr/W^2", "Throughput"] {
        let phase_samples: Vec<&Sample> = samples.iter().filter(|s| s.phase == phase).collect();
        let mean_power =
            phase_samples.iter().map(|s| s.power_w).sum::<f64>() / phase_samples.len() as f64;
        let mean_exec =
            phase_samples.iter().map(|s| s.exec_time_ms).sum::<f64>() / phase_samples.len() as f64;
        let mean_threads = phase_samples
            .iter()
            .map(|s| f64::from(s.threads))
            .sum::<f64>()
            / phase_samples.len() as f64;
        println!(
            "phase {phase:<11}: mean power {mean_power:6.1} W, mean exec {mean_exec:7.1} ms, \
             mean threads {mean_threads:4.1} ({} invocations)",
            phase_samples.len()
        );
    }

    socrates_bench::write_json("fig5", &samples);
}
