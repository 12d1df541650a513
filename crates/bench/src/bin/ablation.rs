//! Ablation studies for the design choices DESIGN.md calls out — what
//! each SOCRATES component buys beyond the paper's headline figures.
//!
//! 1. **COBAYN value**: per app (leave-one-out), single-thread speedup
//!    over `-O1` of (a) the best GCC standard level, (b) the best of the
//!    4 COBAYN-predicted combinations, (c) the oracle best of all 128
//!    combinations. Prediction quality = how much of the oracle headroom
//!    the 4 predictions recover.
//! 2. **Feedback value**: profile on the nominal machine, deploy on one
//!    whose cores draw ~30% more power. Measure power-budget violations
//!    with the mARGOt monitor-feedback loop enabled vs disabled.
//! 3. **Adaptation value**: a power budget that changes during the run;
//!    adaptive selection vs the best *static* configuration picked for
//!    either budget extreme.
//!
//! Run with `cargo run -p socrates-bench --bin ablation --release`.

use margot::{Cmp, Constraint, Metric, Rank};
use platform_sim::{BindingPolicy, KnobConfig, Machine, PowerParams};
use polybench::App;
use serde::Serialize;
use socrates::{AdaptiveApplication, ArtifactStore, Toolchain};

fn main() {
    socrates_bench::args(&[]);
    let toolchain = Toolchain::default();
    // One artifact store for all three studies: ablations 2 and 3 reuse
    // the 2mm artifacts (corpus, weave, knowledge) computed by the
    // batch run of ablation 1.
    let store = ArtifactStore::new();
    cobayn_value(&toolchain, &store);
    feedback_value(&toolchain, &store);
    adaptation_value(&toolchain, &store);
}

#[derive(Serialize)]
struct CobaynRow {
    benchmark: String,
    best_std_speedup: f64,
    best_predicted_speedup: f64,
    oracle_speedup: f64,
    headroom_recovered: f64,
}

/// Ablation 1: how good are the 4 predicted flag combinations?
fn cobayn_value(toolchain: &Toolchain, store: &ArtifactStore) {
    println!("=== Ablation 1: COBAYN prediction quality (leave-one-out) ===");
    println!(
        "{:<12} {:>9} {:>10} {:>8} {:>10}",
        "Benchmark", "best-std", "best-pred", "oracle", "recovered"
    );
    let machine = toolchain.platform.machine(toolchain.seed).noiseless();
    let enhanced_apps = toolchain
        .enhance_all_with_store(&App::ALL, store)
        .expect("batch enhance");
    let mut rows = Vec::new();
    for enhanced in &enhanced_apps {
        let app = enhanced.app;
        let profile = app.profile(toolchain.dataset);
        let speed = |co: &platform_sim::CompilerOptions| {
            let cfg = KnobConfig::new(co.clone(), 1, BindingPolicy::Close);
            1.0 / machine.expected(&profile, &cfg).time_s
        };
        let o1 = speed(&platform_sim::CompilerOptions::level(
            platform_sim::OptLevel::O1,
        ));
        let best_std = platform_sim::OptLevel::ALL
            .iter()
            .map(|&l| speed(&platform_sim::CompilerOptions::level(l)))
            .fold(0.0f64, f64::max)
            / o1;
        let best_pred = enhanced
            .cobayn_flags
            .iter()
            .map(&speed)
            .fold(0.0f64, f64::max)
            / o1;
        let oracle = platform_sim::CompilerOptions::cobayn_space()
            .iter()
            .map(speed)
            .fold(0.0f64, f64::max)
            / o1;
        // Fraction of the (oracle - best_std) headroom the predictions
        // recover; clamped at 0 when predictions trail the std levels.
        let headroom = if oracle > best_std {
            ((best_pred - best_std) / (oracle - best_std)).max(0.0)
        } else {
            1.0
        };
        println!(
            "{:<12} {:>9.3} {:>10.3} {:>8.3} {:>9.0}%",
            app.name(),
            best_std,
            best_pred,
            oracle,
            headroom * 100.0
        );
        rows.push(CobaynRow {
            benchmark: app.name().to_string(),
            best_std_speedup: best_std,
            best_predicted_speedup: best_pred,
            oracle_speedup: oracle,
            headroom_recovered: headroom,
        });
    }
    let mean = rows.iter().map(|r| r.headroom_recovered).sum::<f64>() / rows.len() as f64;
    println!(
        "mean oracle-headroom recovered by 4 predictions: {:.0}%",
        mean * 100.0
    );
    println!();
    socrates_bench::write_json("ablation_cobayn", &rows);
}

#[derive(Serialize)]
struct FeedbackResult {
    budget_w: f64,
    violation_rate_without_feedback: f64,
    violation_rate_with_feedback: f64,
}

/// Ablation 2: the monitor-feedback loop under deployment drift.
fn feedback_value(toolchain: &Toolchain, store: &ArtifactStore) {
    println!("=== Ablation 2: mARGOt feedback under a hotter-than-profiled machine ===");
    // Pure cache walk: 2mm was already enhanced by ablation 1.
    let enhanced = toolchain
        .enhance_with_store(App::TwoMm, store)
        .expect("enhance");
    let budget = 100.0;

    // The deployed machine draws ~30% more core power than profiled.
    let hot_power = PowerParams {
        core_w: PowerParams::default().core_w * 1.3,
        smt_w: PowerParams::default().smt_w * 1.3,
        ..PowerParams::default()
    };
    let hot_machine = || Machine::xeon_e5_2630_v3(97).with_power_params(hot_power.clone());

    let violation_rate = |feedback: bool| -> f64 {
        let mut app = AdaptiveApplication::with_machine(
            enhanced.clone(),
            Rank::minimize(Metric::exec_time()),
            hot_machine(),
        );
        app.set_feedback(feedback);
        app.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            budget,
            10,
        ));
        app.run_for(20.0);
        let violations = app.trace().iter().filter(|s| s.power_w > budget).count();
        violations as f64 / app.trace().len() as f64
    };

    let without = violation_rate(false);
    let with = violation_rate(true);
    println!("power budget: {budget} W; deployed core power: +30% vs profiled");
    println!("violation rate without feedback: {:>5.1}%", without * 100.0);
    println!("violation rate with feedback   : {:>5.1}%", with * 100.0);
    assert!(
        with < without || without == 0.0,
        "feedback must not increase violations"
    );
    println!();
    socrates_bench::write_json(
        "ablation_feedback",
        &FeedbackResult {
            budget_w: budget,
            violation_rate_without_feedback: without,
            violation_rate_with_feedback: with,
        },
    );
}

#[derive(Serialize)]
struct AdaptationRow {
    strategy: String,
    mean_exec_ms: f64,
    violation_rate: f64,
}

/// Ablation 3: adaptive selection vs one-fits-all static configurations
/// under a time-varying power budget (the paper's motivating scenario).
fn adaptation_value(toolchain: &Toolchain, store: &ArtifactStore) {
    println!("=== Ablation 3: adaptive vs static under a changing power budget ===");
    let enhanced = toolchain
        .enhance_with_store(App::TwoMm, store)
        .expect("enhance");
    // Budget schedule: generous -> tight -> medium, 10 virtual s each.
    let schedule = [140.0, 60.0, 100.0];

    // Adaptive run.
    let mut app =
        AdaptiveApplication::new(enhanced.clone(), Rank::minimize(Metric::exec_time()), 55);
    app.add_constraint(Constraint::new(
        Metric::power(),
        Cmp::LessOrEqual,
        schedule[0],
        10,
    ));
    let mut adaptive_samples = Vec::new();
    let mut budgets_per_sample = Vec::new();
    for &budget in &schedule {
        app.manager_mut()
            .asrtm_mut()
            .set_constraint_value(&Metric::power(), budget);
        for s in app.run_for(10.0) {
            adaptive_samples.push(s.clone());
            budgets_per_sample.push(budget);
        }
    }

    // Static baselines: the config a non-adaptive deployment would pick
    // for the loose or the tight budget, run unchanged across the day.
    let static_best_for = |budget: f64| {
        let mut rtm = margot::AsRtm::new(
            enhanced.knowledge.clone(),
            Rank::minimize(Metric::exec_time()),
        );
        rtm.add_constraint(Constraint::new(
            Metric::power(),
            Cmp::LessOrEqual,
            budget,
            10,
        ));
        rtm.best().expect("non-empty").config.clone()
    };

    let run_static = |config: &KnobConfig| {
        let mut machine = Machine::xeon_e5_2630_v3(55);
        let mut samples = Vec::new();
        let mut budgets = Vec::new();
        let mut t = 0.0;
        for &budget in &schedule {
            let deadline = t + 10.0;
            while t < deadline {
                let run = machine.execute(&enhanced.profile, config);
                t += run.time_s;
                samples.push((run.time_s, run.power_w));
                budgets.push(budget);
            }
        }
        (samples, budgets)
    };

    let stats = |execs: &[(f64, f64)], budgets: &[f64]| {
        let mean_exec = execs.iter().map(|(t, _)| t).sum::<f64>() / execs.len() as f64 * 1e3;
        let violations = execs
            .iter()
            .zip(budgets)
            .filter(|((_, p), b)| p > *b)
            .count() as f64
            / execs.len() as f64;
        (mean_exec, violations)
    };

    println!(
        "{:<24} {:>13} {:>12}",
        "strategy", "mean exec", "violations"
    );
    let mut rows = Vec::new();
    let adaptive_execs: Vec<(f64, f64)> = adaptive_samples
        .iter()
        .map(|s| (s.time_s, s.power_w))
        .collect();
    let (ae, av) = stats(&adaptive_execs, &budgets_per_sample);
    println!(
        "{:<24} {:>10.1} ms {:>11.1}%",
        "adaptive (SOCRATES)",
        ae,
        av * 100.0
    );
    rows.push(AdaptationRow {
        strategy: "adaptive".into(),
        mean_exec_ms: ae,
        violation_rate: av,
    });

    for (label, budget) in [("static-for-140W", 140.0), ("static-for-60W", 60.0)] {
        let cfg = static_best_for(budget);
        let (samples, budgets) = run_static(&cfg);
        let (me, mv) = stats(&samples, &budgets);
        println!("{:<24} {:>10.1} ms {:>11.1}%", label, me, mv * 100.0);
        rows.push(AdaptationRow {
            strategy: label.into(),
            mean_exec_ms: me,
            violation_rate: mv,
        });
    }
    println!();
    println!(
        "the fast static config violates the tight budget; the safe static config \
         wastes the loose budget; only the adaptive run gets both right"
    );
    socrates_bench::write_json("ablation_adaptation", &rows);
}
