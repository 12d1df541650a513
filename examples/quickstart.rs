//! Quickstart: enhance one Polybench application with SOCRATES and run
//! it adaptively for a few virtual seconds.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```

use margot::{Metric, Rank};
use polybench::{App, Dataset};
use socrates::{AdaptiveApplication, ArtifactStore, Toolchain};

fn main() {
    // 1. Run the toolchain: parse -> Milepost features -> COBAYN flag
    //    prediction -> LARA weaving -> full-factorial DSE profiling ->
    //    assembled EnhancedApp. Every step's output is cached in the
    //    artifact store, so enhancing another app next would reuse the
    //    whole COBAYN training corpus.
    let toolchain = Toolchain {
        dataset: Dataset::Medium, // quick demo; experiments use Large
        ..Toolchain::default()
    };
    let store = ArtifactStore::new();
    let enhanced = toolchain
        .enhance_with_store(App::TwoMm, &store)
        .expect("toolchain");

    println!("SOCRATES quickstart — app: {}", enhanced.app);
    println!(
        "  kernel features extracted : {} counters",
        milepost::FeatureKind::COUNT
    );
    println!(
        "  COBAYN flag predictions   : {:?}",
        enhanced
            .cobayn_flags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!("  compiled kernel versions  : {}", enhanced.versions.len());
    println!("  knowledge operating points: {}", enhanced.knowledge.len());
    println!("  weaving metrics           : {}", enhanced.metrics);
    println!();

    // 2. The weaved application is real C — show a fragment around the
    //    instrumented call site.
    let weaved = minic::print(&enhanced.weaved);
    let snippet: Vec<&str> = weaved
        .lines()
        .skip_while(|l| !l.contains("margot_update"))
        .take(5)
        .collect();
    println!("weaved call site:");
    for line in &snippet {
        println!("    {}", line.trim());
    }
    println!();

    // 3. Boot the adaptive binary with an energy-efficiency objective
    //    and let the MAPE-K loop run for ten virtual seconds.
    let mut app = AdaptiveApplication::new(enhanced, Rank::throughput_per_watt2(), 42);
    app.run_for(10.0);
    let last = app.trace().last().expect("ran at least once");
    println!(
        "after {:.1} virtual s under Thr/W^2: config [{}] -> {:.1} ms at {:.1} W",
        app.now_s(),
        last.config,
        last.time_s * 1e3,
        last.power_w
    );

    // 4. Switch the requirement to raw throughput at runtime.
    app.set_rank(Rank::maximize(Metric::throughput()));
    app.run_for(10.0);
    let last = app.trace().last().expect("non-empty trace");
    println!(
        "after switching to Throughput:       config [{}] -> {:.1} ms at {:.1} W",
        last.config,
        last.time_s * 1e3,
        last.power_w
    );
    println!(
        "total energy drawn: {:.0} J over {} invocations",
        app.energy_j(),
        app.trace().len()
    );
}
