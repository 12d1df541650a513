//! Interpreter-vs-compiled engine comparison: every Polybench kernel
//! executed functionally through both `minivm` engines.
//!
//! For each of the 12 apps the weaved clone is specialized for one
//! thread (the profiling sweep's single-core shape) and
//!
//! - the **AST** interpreter ([`minivm::interpret`]) re-walks the tree
//!   per invocation (the reference oracle),
//! - the **bytecode** engine ([`minivm::compile`]) lowers once
//!   (`compile` column) and then re-runs the cached register code per
//!   invocation.
//!
//! Reports must be bit-identical between the engines — the run aborts
//! otherwise. Rows land in `results/engine_compare.json` and BENCH.md;
//! the geometric-mean speedup is the repo's "compiled kernels are ≥ 5×
//! faster than interpretation" acceptance number.
//!
//! Run with `cargo run -p socrates-bench --bin engine_compare
//! --release`.

use polybench::{App, Dataset};
use serde::Serialize;
use socrates::functional_spec;
use std::time::Instant;

/// The dataset the functional specs are derived from (dimensions are
/// clamped to [`socrates::FUNCTIONAL_DIM_CAP`] either way).
const DATASET: Dataset = Dataset::Large;
/// Wall-clock budget per timing measurement.
const TARGET_S: f64 = 0.2;

#[derive(Serialize)]
struct EngineRow {
    app: String,
    checksum: String,
    flops: u64,
    ast_run_us: f64,
    bytecode_compile_us: f64,
    bytecode_run_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct EngineCompare {
    dataset: String,
    threads: u32,
    rows: Vec<EngineRow>,
    geomean_speedup: f64,
}

fn weaved_clone(app: App) -> (minic::TranslationUnit, String) {
    let tu = minic::parse(&polybench::source(app, DATASET)).expect("bundled source parses");
    let mut weaver = lara::Weaver::new(tu);
    let versions = [lara::StaticVersion::new(["O2"], "close")];
    let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions).expect("weaving");
    let (weaved, _) = weaver.finish();
    (weaved, woven.version_functions[0].clone())
}

/// Mean seconds per invocation: one warm-up, one probe to size the
/// batch toward [`TARGET_S`], then the timed batch.
fn time_per_run(mut f: impl FnMut()) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let t1 = probe.elapsed().as_secs_f64();
    let reps = ((TARGET_S / t1.max(1e-9)).ceil() as usize).clamp(3, 100_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    socrates_bench::args(&[]);
    println!(
        "Functional execution engines — AST interpreter vs config-specialized bytecode\n\
         ({DATASET:?} dataset dims clamped to {}, 1 thread)\n",
        socrates::FUNCTIONAL_DIM_CAP
    );
    println!(
        "{:>12} {:>14} {:>12} {:>14} {:>12} {:>9}",
        "app", "ast run [µs]", "compile [µs]", "byte run [µs]", "flops", "speedup"
    );
    let mut rows = Vec::new();
    let mut log_speedup_sum = 0.0;
    for app in App::ALL {
        let (tu, entry) = weaved_clone(app);
        let spec = functional_spec(app, DATASET, 1);
        let kernel = minivm::compile(&tu, &entry, &spec).expect("kernel lowers");
        let report = kernel.run().expect("runs");
        assert_eq!(
            minivm::interpret(&tu, &entry, &spec).expect("interprets"),
            report,
            "{app:?}: engines diverged — the bit-identity contract is broken"
        );
        let ast_run_us = 1e6
            * time_per_run(|| {
                minivm::interpret(&tu, &entry, &spec).expect("interprets");
            });
        let bytecode_compile_us = 1e6
            * time_per_run(|| {
                minivm::compile(&tu, &entry, &spec).expect("lowers");
            });
        let bytecode_run_us = 1e6
            * time_per_run(|| {
                kernel.run().expect("runs");
            });
        let speedup = ast_run_us / bytecode_run_us;
        log_speedup_sum += speedup.ln();
        println!(
            "{:>12} {:>14.2} {:>12.2} {:>14.2} {:>12} {:>8.1}x",
            app.name(),
            ast_run_us,
            bytecode_compile_us,
            bytecode_run_us,
            report.flops,
            speedup
        );
        rows.push(EngineRow {
            app: app.name().to_string(),
            checksum: format!("{:016x}", report.checksum),
            flops: report.flops,
            ast_run_us,
            bytecode_compile_us,
            bytecode_run_us,
            speedup,
        });
    }
    let geomean_speedup = (log_speedup_sum / App::ALL.len() as f64).exp();
    println!("\ngeomean speedup (compiled vs interpreted): {geomean_speedup:.1}x");
    socrates_bench::write_json(
        "engine_compare",
        &EngineCompare {
            dataset: format!("{DATASET:?}"),
            threads: 1,
            rows,
            geomean_speedup,
        },
    );
}
