//! Analysis-driven DSE pruning (`socrates::analysis_prune`) on all 12
//! Polybench apps with the default toolchain.
//!
//! The prune shrinks the schedule a fleet sweeps cooperatively: the
//! static analyzer drops configurations it cannot certify as safe, and
//! feasible configurations that another one beats on the noise-free
//! expected time and power of the design platform are skipped. It must
//! be loss-free: for each rank the fleet tunes for, the configuration
//! that is best without noise on the deployed machine has to stay in
//! the schedule, also when that machine runs hotter than profiled.
//!
//! The analyzer's cost polynomials are not part of the prune. They are
//! a hypothesis about the kernels' work, checked here against the
//! profile's flop counts at the full dataset scale.

use minivm::SpecConfig;
use platform_sim::{Execution, KnobConfig};
use polybench::{App, Dataset, KernelArg};
use socrates::{analysis_prune, analyze_kernel_for, functional_spec, EnhancedApp, Toolchain};
use std::sync::OnceLock;

/// The design platform itself and the 1.6x-hotter deployment of
/// `fleet_online_convergence`.
const DRIFTS: [f64; 2] = [1.0, 1.6];

/// `(app, kept, infeasible, dominated)` for each app's 512-point space.
const PRUNE_COUNTS: [(App, usize, usize, usize); 12] = [
    (App::TwoMm, 111, 0, 401),
    (App::ThreeMm, 113, 0, 399),
    (App::Atax, 92, 0, 420),
    (App::Correlation, 127, 0, 385),
    (App::Doitgen, 95, 0, 417),
    (App::Gemver, 68, 0, 444),
    (App::Jacobi2d, 83, 0, 429),
    (App::Mvt, 114, 0, 398),
    (App::Nussinov, 74, 0, 438),
    (App::Seidel2d, 91, 0, 421),
    (App::Syr2k, 92, 0, 420),
    (App::Syrk, 93, 0, 419),
];

/// Full-scale polynomial flops over `App::flops(Large)`, to three
/// places, for each app whose kernel admits a cost polynomial.
const FLOP_RATIOS: [(App, f64); 10] = [
    (App::TwoMm, 1.241),
    (App::ThreeMm, 1.001),
    (App::Atax, 1.250),
    (App::Doitgen, 1.003),
    (App::Gemver, 1.100),
    (App::Jacobi2d, 0.998),
    (App::Mvt, 1.250),
    (App::Seidel2d, 0.899),
    (App::Syr2k, 1.502),
    (App::Syrk, 1.502),
];

/// The apps whose kernels admit no cost polynomial.
const WITHOUT_POLYNOMIAL: [App; 2] = [App::Correlation, App::Nussinov];

/// The 12 apps, enhanced once for every test in this file.
fn enhanced() -> &'static [EnhancedApp] {
    static ENHANCED: OnceLock<Vec<EnhancedApp>> = OnceLock::new();
    ENHANCED.get_or_init(|| {
        Toolchain::default()
            .enhance_all(&App::ALL)
            .expect("enhance the 12 apps")
    })
}

fn design_configs(e: &EnhancedApp) -> Vec<KnobConfig> {
    e.knowledge
        .points()
        .iter()
        .map(|p| p.config.clone())
        .collect()
}

/// A rank as a score to maximise.
type Score = fn(&Execution) -> f64;

/// The ranks a fleet tunes for.
const RANKS: [(&str, Score); 2] = [
    ("Thr/W2", Execution::throughput_per_watt2),
    ("min time", |e| -e.time_s),
];

#[test]
fn the_prune_keeps_the_noise_free_optimum_of_every_app_rank_and_drift() {
    let mut lost = Vec::new();
    for e in enhanced() {
        let configs = design_configs(e);
        let kept = analysis_prune(e, configs.clone()).kept;
        for drift in DRIFTS {
            let machine = e.platform.hotter(drift).machine(0);
            for (rank, score) in RANKS {
                let best = |cs: &[KnobConfig]| {
                    cs.iter()
                        .map(|c| score(&machine.expected(&e.profile, c)))
                        .fold(f64::NEG_INFINITY, f64::max)
                };
                let oracle = best(&configs);
                if best(&kept) != oracle {
                    let c = configs
                        .iter()
                        .find(|c| score(&machine.expected(&e.profile, c)) == oracle)
                        .expect("the oracle is a design configuration");
                    lost.push(format!(
                        "{} {rank} drift {drift}: {} threads {} {}",
                        e.app, c.tn, c.bp, c.co
                    ));
                }
            }
        }
    }
    assert!(
        lost.is_empty(),
        "the prune drops the oracle in {} of {} cases:\n{}",
        lost.len(),
        enhanced().len() * DRIFTS.len() * RANKS.len(),
        lost.join("\n")
    );
}

#[test]
fn prune_counts_are_pinned_and_every_app_prunes_three_quarters() {
    let mut measured = Vec::new();
    for (e, &(app, ..)) in enhanced().iter().zip(&PRUNE_COUNTS) {
        assert_eq!(e.app, app);
        let r = analysis_prune(e, design_configs(e));
        assert_eq!(r.total(), 512, "{app}");
        assert!(r.prune_ratio() >= 0.75, "{app} prunes {}", r.prune_ratio());
        measured.push((app, r.kept.len(), r.infeasible, r.dominated));
    }
    assert_eq!(measured, PRUNE_COUNTS);
}

/// The Large spec with unclamped dimensions: the kernels never run at
/// this scale, but their cost polynomials can be evaluated there.
fn full_scale_spec(app: App) -> SpecConfig {
    let dims = app.dims(Dataset::Large);
    let mut spec = SpecConfig::new();
    for &(name, v) in &dims {
        spec.set(name, v as i64);
    }
    for arg in app.kernel_args(&dims) {
        spec = match arg {
            KernelArg::Int(v) => spec.arg(v),
            KernelArg::Double(v) => spec.arg(v),
        };
    }
    spec
}

#[test]
fn cost_polynomials_match_the_profile_flops_at_full_scale() {
    let mut ratios = Vec::new();
    let mut without = Vec::new();
    for e in enhanced() {
        let (app, ds) = (e.app, e.dataset);
        let report = analyze_kernel_for(&e.weaved, &e.kernel_entry(), app, ds, 1).expect("analyze");
        assert!(report.is_safe(), "{app}");
        let Some(cost) = &report.cost else {
            without.push(app);
            continue;
        };
        // Exact at the functional scale the analyzer ran at…
        assert!(cost.exact, "{app}");
        assert_eq!(
            cost.eval_at(&functional_spec(app, ds, 1)),
            Some((report.flops, report.loads, report.stores)),
            "{app}"
        );
        // …and extrapolated to the dataset the profile describes.
        let (flops, ..) = cost.eval_at(&full_scale_spec(app)).expect("full scale");
        let ratio = flops as f64 / app.flops(ds);
        ratios.push((app, (ratio * 1e3).round() / 1e3));
    }
    assert_eq!(ratios, FLOP_RATIOS);
    assert_eq!(without, WITHOUT_POLYNOMIAL);
}
