//! Regenerates the paper's **Table I**: metrics collected from the
//! application of the LARA strategies to the 12 Polybench benchmarks.
//!
//! Columns: Att (attributes checked), Act (actions performed), O-LOC
//! (original logical LOC), W-LOC (weaved), D-LOC (difference) and Bloat
//! (D-LOC per line of aspect code).
//!
//! Run with `cargo run -p socrates-bench --bin table1 --release`.

use polybench::App;
use serde::Serialize;
use socrates::Toolchain;

#[derive(Serialize)]
struct Row {
    benchmark: String,
    att: usize,
    act: usize,
    o_loc: usize,
    w_loc: usize,
    d_loc: usize,
    bloat: f64,
}

fn main() {
    socrates_bench::args(&[]);
    let toolchain = Toolchain::default();
    println!("Table I — metrics collected from the application of LARA strategies");
    println!("(strategy logical LOC: {})", lara::STRATEGY_LOC);
    println!();
    println!(
        "{:<12} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7}",
        "Benchmark", "Att", "Act", "O-LOC", "W-LOC", "D-LOC", "Bloat"
    );

    // One shared-corpus batch run over the whole suite.
    let enhanced_apps = toolchain
        .enhance_all(&App::ALL)
        .unwrap_or_else(|e| panic!("{e}"));

    let mut rows = Vec::new();
    for enhanced in &enhanced_apps {
        let app = enhanced.app;
        let m = enhanced.metrics;
        println!(
            "{:<12} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7.2}",
            app.name(),
            m.attributes,
            m.actions,
            m.original_loc,
            m.weaved_loc,
            m.delta_loc(),
            m.bloat()
        );
        rows.push(Row {
            benchmark: app.name().to_string(),
            att: m.attributes,
            act: m.actions,
            o_loc: m.original_loc,
            w_loc: m.weaved_loc,
            d_loc: m.delta_loc(),
            bloat: m.bloat(),
        });
    }

    let n = rows.len() as f64;
    let avg = |f: &dyn Fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / n;
    println!(
        "{:<12} {:>6.0} {:>6.0} {:>7.0} {:>7.0} {:>7.0} {:>7.2}",
        "Average",
        avg(&|r| r.att as f64),
        avg(&|r| r.act as f64),
        avg(&|r| r.o_loc as f64),
        avg(&|r| r.w_loc as f64),
        avg(&|r| r.d_loc as f64),
        avg(&|r| r.bloat),
    );

    socrates_bench::write_json("table1", &rows);
}
