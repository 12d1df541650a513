//! Functional execution of the weaved kernels.
//!
//! The analytic platform model ([`platform_sim`]) predicts *metrics*
//! (time, power); this module actually *runs* the weaved mini-C kernels
//! through the `minivm` crate to produce an
//! [`ExecutionReport`](minivm::ExecutionReport) — a bit-exact checksum
//! of the global state plus semantic flop/load/store counts. The weaved
//! program is lowered through a typed IR into compact register-based
//! bytecode with every specialization constant (array dimensions,
//! pragma parameters such as `__socrates_num_threads`, baked entry
//! arguments) resolved at lowering time, then run by a tight dispatch
//! loop with no per-step allocation.
//!
//! The AST interpreter ([`minivm::interpret`]) stays in `minivm` as the
//! reference oracle only: `crates/minivm/tests/polybench_differential.rs`
//! pins all twelve Polybench apps and `tests/engine_equivalence.rs`
//! property-tests random generated programs against it.
//!
//! [`compile_kernel`] is the one-shot path: it lowers one weaved clone
//! under one [`SpecConfig`](minivm::SpecConfig), runs it, and returns a
//! [`CompiledKernel`] artifact carrying the report, the build cost and
//! the reusable compiled code. [`minivm::compile`] validates the spec
//! before lowering, and it is validation, not the lowering proper, that
//! rejects an unbound pragma parameter.
//!
//! A [`KernelFamily`] builds the kernels of one program: one weaved
//! clone of one app on one dataset. Every spec is validated, but the
//! program is lowered and run once: a later spec that the kernel that
//! ran [`lowers_same_under`](minivm::CompiledKernel::lowers_same_under)
//! shares its code and report. The thread count only reaches pragmas,
//! which validation reads and lowering does not, so every thread count
//! of an app is one lowering and one run. The
//! [`ArtifactStore`](crate::ArtifactStore) keeps one family per `(app,
//! dataset, config fingerprint)` and caches its kernels per thread
//! count. All of it is design-time work: the fleet runtimes only
//! dispatch the clone versions the toolchain built, and never lower or
//! run a kernel.
//!
//! [`analysis_prune`] asks one more question of a program: is a
//! specialization safe to run. The checked VM answers it
//! ([`run_checked`](minivm::CompiledKernel::run_checked) traps reads of
//! never-written cells as well as the out-of-bounds accesses and zero
//! divisors every run traps), once per program under the same reuse
//! rule as a [`KernelFamily`]. The prune reads a clean checked run as
//! feasibility and ranks the feasible configurations on the same
//! noise-free platform expectation the DSE profiles.

use crate::error::SocratesError;
use minic::TranslationUnit;
use minivm::{ExecutionReport, SpecConfig};
use platform_sim::KnobConfig;
use polybench::{App, Dataset, KernelArg};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cap on the functional array dimensions (the analytic profile keeps
/// the paper's full dataset sizes; functional execution clamps each
/// axis to this bound so the reference interpreter the differential
/// suites run stays fast enough for debug-mode test runs).
pub const FUNCTIONAL_DIM_CAP: usize = 20;

/// The functional array dimensions for `app` on `ds`: the dataset's
/// dimensions clamped to [`FUNCTIONAL_DIM_CAP`].
pub fn functional_dims(app: App, ds: Dataset) -> Vec<(&'static str, usize)> {
    app.dims(ds)
        .into_iter()
        .map(|(n, v)| (n, v.min(FUNCTIONAL_DIM_CAP)))
        .collect()
}

/// Builds the execution configuration for `app` on `ds`: clamped
/// dimensions and the weaver's thread variable as specialization
/// constants, plus the kernel's baked entry arguments.
pub fn functional_spec(app: App, ds: Dataset, threads: u32) -> SpecConfig {
    let dims = functional_dims(app, ds);
    let mut spec = SpecConfig::new().bind(lara::THREADS_VAR, threads as i64);
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

/// A lowered, config-specialized kernel: the typed artifact cached by
/// the [`ArtifactStore`](crate::ArtifactStore).
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The application the kernel belongs to.
    pub app: App,
    /// The weaved clone that was executed (e.g. `kernel_2mm_v0`).
    pub entry: String,
    /// Fingerprint of the [`SpecConfig`](minivm::SpecConfig) the kernel
    /// was specialized against (cache key component).
    pub spec_fingerprint: u64,
    /// The execution result: computed at build time by running the
    /// program, or, for a [`KernelFamily`] kernel whose program already
    /// ran, the report of that run. Bit-identical to
    /// [`minivm::interpret`] under the same spec either way.
    pub report: ExecutionReport,
    /// Wall-clock cost of the build: validation, plus the lowering and
    /// the run when the build made them (a family kernel that shares
    /// the run of its program made neither).
    pub compile_ns: u64,
    /// The reusable compiled code, shared with every kernel of its
    /// family that reused this one's run.
    pub code: Arc<minivm::CompiledKernel>,
}

impl CompiledKernel {
    /// Re-executes the compiled code and returns the fresh report.
    /// Cached consumers normally read [`CompiledKernel::report`]
    /// instead.
    pub fn run(&self) -> Result<ExecutionReport, SocratesError> {
        self.code.run().map_err(|e| lower_error(self.app, e))
    }
}

fn lower_error(app: App, source: minivm::EngineError) -> SocratesError {
    SocratesError::lower(app, source)
}

/// Analysis-driven DSE pruning for an enhanced application: drops
/// configurations whose specialization traps the checked VM, and
/// feasible points that another feasible point dominates on the
/// noise-free expectation of the design platform (see
/// [`dse::prune_space`]).
///
/// The expectation is the one [`dse::profile`] scales by measurement
/// noise — [`Machine::expected`](platform_sim::Machine::expected) over
/// the app's own workload profile — so the prune ranks configurations
/// on the model the design knowledge was built from.
///
/// Feasibility is decided once per distinct thread count: the
/// functional spec is validated, and the program is lowered and run in
/// [`run_checked`](minivm::CompiledKernel::run_checked) mode, unless
/// the kernel that last ran
/// [`lowers_same_under`](minivm::CompiledKernel::lowers_same_under) the
/// spec, whose verdict it then shares. A validation or lowering *error*
/// (as opposed to a trap) never prunes — such configurations surface
/// their failure through the normal compile path instead.
pub fn analysis_prune(
    enhanced: &crate::EnhancedApp,
    configs: Vec<KnobConfig>,
) -> dse::PruneReport<KnobConfig> {
    let (tu, entry) = (&enhanced.weaved, enhanced.kernel_entry());
    let (app, ds) = (enhanced.app, enhanced.dataset);
    let machine = enhanced.platform.machine(0);
    let mut ran: Option<(minivm::CompiledKernel, bool)> = None;
    let mut feasible_for: HashMap<u32, bool> = HashMap::new();
    dse::prune_space(
        configs,
        |cfg| {
            *feasible_for.entry(cfg.tn).or_insert_with(|| {
                let spec = functional_spec(app, ds, cfg.tn);
                if minivm::validate(tu, &entry, &spec).is_err() {
                    return true;
                }
                match &ran {
                    Some((code, clean)) if code.lowers_same_under(&spec) => *clean,
                    _ => minivm::compile(tu, &entry, &spec).map_or(true, |code| {
                        let clean = code.run_checked().is_ok();
                        ran = Some((code, clean));
                        clean
                    }),
                }
            })
        },
        |cfg| {
            let e = machine.expected(&enhanced.profile, cfg);
            (e.time_s, e.power_w)
        },
    )
}

/// Lowers one weaved clone of `app` under `spec` to bytecode and
/// executes it once: the one-shot path, for a single kernel of a
/// program. A [`KernelFamily`] builds the many kernels of one program.
///
/// Every pragma parameter the kernel references must be bound in
/// `spec`; validation rejects an unbound parameter here, before any
/// lowering, with a [`StageId::Lower`](crate::StageId::Lower)-tagged
/// [`SocratesError`], never as a late lookup failure in the middle of a
/// profiling sweep. A program that traps fails here too.
pub fn compile_kernel(
    tu: &TranslationUnit,
    entry: &str,
    app: App,
    spec: &SpecConfig,
) -> Result<CompiledKernel, SocratesError> {
    let start = Instant::now();
    let code = minivm::compile(tu, entry, spec).map_err(|e| lower_error(app, e))?;
    let report = code.run().map_err(|e| lower_error(app, e))?;
    Ok(CompiledKernel {
        app,
        entry: entry.to_string(),
        spec_fingerprint: spec.fingerprint(),
        report,
        compile_ns: start.elapsed().as_nanos() as u64,
        code: Arc::new(code),
    })
}

/// The kernels of one program: one weaved program, the clone they enter
/// through, the app and the dataset, plus the first kernel of it that
/// ran.
///
/// [`kernel`](KernelFamily::kernel) validates every spec, so an unbound
/// pragma parameter fails at [`StageId::Lower`](crate::StageId::Lower)
/// whichever kernels ran before. When the kernel that ran
/// [`lowers_same_under`](minivm::CompiledKernel::lowers_same_under) the
/// spec, the new kernel shares its code and report; otherwise the spec
/// is lowered and run, so a program that traps still fails its build.
/// That check covers the spec only, so reuse is bound to one program by
/// construction: a family owns its program text and never builds
/// another's.
#[derive(Debug)]
pub struct KernelFamily {
    tu: Arc<TranslationUnit>,
    entry: String,
    app: App,
    dataset: Dataset,
    /// The code and report of the family's first kernel that ran.
    ran: OnceLock<(Arc<minivm::CompiledKernel>, ExecutionReport)>,
    lowerings: AtomicU64,
}

impl KernelFamily {
    /// The family of `entry` in `tu`, for `app` on `dataset`.
    pub fn new(tu: Arc<TranslationUnit>, entry: impl Into<String>, app: App, ds: Dataset) -> Self {
        KernelFamily {
            tu,
            entry: entry.into(),
            app,
            dataset: ds,
            ran: OnceLock::new(),
            lowerings: AtomicU64::new(0),
        }
    }

    /// The kernel for `threads` under the canonical functional spec (see
    /// [`kernel_with`](KernelFamily::kernel_with)).
    ///
    /// # Errors
    ///
    /// A [`StageId::Lower`](crate::StageId::Lower) error when the spec
    /// fails validation, the program leaves the executable dialect, or
    /// its run traps.
    pub fn kernel(&self, threads: u32) -> Result<CompiledKernel, SocratesError> {
        self.kernel_with(&functional_spec(self.app, self.dataset, threads))
    }

    /// The family's kernel under `spec`: validated, then either sharing
    /// the code and report of the kernel that ran or lowered and run.
    ///
    /// # Errors
    ///
    /// As [`kernel`](KernelFamily::kernel).
    pub fn kernel_with(&self, spec: &SpecConfig) -> Result<CompiledKernel, SocratesError> {
        let start = Instant::now();
        minivm::validate(&self.tu, &self.entry, spec).map_err(|e| lower_error(self.app, e))?;
        let (code, report) = match self.ran.get() {
            Some((code, report)) if code.lowers_same_under(spec) => (Arc::clone(code), *report),
            _ => {
                self.lowerings.fetch_add(1, Ordering::Relaxed);
                let built = compile_kernel(&self.tu, &self.entry, self.app, spec)?;
                // A racing first build may have won; either run is exact.
                let _ = self.ran.set((Arc::clone(&built.code), built.report));
                (built.code, built.report)
            }
        };
        Ok(CompiledKernel {
            app: self.app,
            entry: self.entry.clone(),
            spec_fingerprint: spec.fingerprint(),
            report,
            compile_ns: start.elapsed().as_nanos() as u64,
            code,
        })
    }

    /// Lowerings (each followed by a run) the family has made.
    #[cfg(test)]
    pub(crate) fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StageId;

    fn weaved_clone(app: App) -> (TranslationUnit, String) {
        let tu = minic::parse(&polybench::source(app, Dataset::Mini)).unwrap();
        let mut weaver = lara::Weaver::new(tu);
        let versions = [lara::StaticVersion::new(["O2"], "close")];
        let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions).unwrap();
        let (weaved, _) = weaver.finish();
        (weaved, woven.version_functions[0].clone())
    }

    #[test]
    fn functional_dims_are_clamped() {
        for app in App::ALL {
            for (_, v) in functional_dims(app, Dataset::Large) {
                assert!(v <= FUNCTIONAL_DIM_CAP);
            }
        }
    }

    #[test]
    fn both_engines_agree_on_a_weaved_clone() {
        let app = App::TwoMm;
        let (tu, entry) = weaved_clone(app);
        let spec = functional_spec(app, Dataset::Mini, 4);
        let kernel = compile_kernel(&tu, &entry, app, &spec).unwrap();
        let reference = minivm::interpret(&tu, &entry, &spec).unwrap();
        assert_eq!(kernel.report, reference);
        assert!(kernel.code.op_count() > 0);
        // Re-running the cached code reproduces the build-time report.
        assert_eq!(kernel.run().unwrap(), kernel.report);
    }

    #[test]
    fn thread_count_is_configuration_not_data() {
        let app = App::Atax;
        let (tu, entry) = weaved_clone(app);
        let a = compile_kernel(&tu, &entry, app, &functional_spec(app, Dataset::Mini, 1)).unwrap();
        let b = compile_kernel(&tu, &entry, app, &functional_spec(app, Dataset::Mini, 16)).unwrap();
        assert_eq!(a.report, b.report);
        // …but the specialized artifacts are distinct cache entries.
        assert_ne!(a.spec_fingerprint, b.spec_fingerprint);
    }

    #[test]
    fn unbound_pragma_parameters_fail_at_lowering_time() {
        let app = App::Syrk;
        let (tu, entry) = weaved_clone(app);
        // Dimensions and args bound, the thread variable deliberately not.
        let mut spec = SpecConfig::new();
        for (name, v) in functional_dims(app, Dataset::Mini) {
            spec.set(name, v as i64);
        }
        for arg in app.kernel_args(&functional_dims(app, Dataset::Mini)) {
            spec = match arg {
                KernelArg::Int(v) => spec.arg(v),
                KernelArg::Double(v) => spec.arg(v),
            };
        }
        let err = compile_kernel(&tu, &entry, app, &spec).unwrap_err();
        assert_eq!(err.stage(), StageId::Lower);
        let text = err.to_string();
        assert!(text.starts_with("[lower] syrk:"), "got: {text}");
        assert!(text.contains(lara::THREADS_VAR), "got: {text}");
        // A family whose kernel already ran still validates.
        let family = KernelFamily::new(Arc::new(tu), entry, app, Dataset::Mini);
        family.kernel(1).unwrap();
        let again = family.kernel_with(&spec).unwrap_err();
        assert_eq!(again.to_string(), text);
    }

    #[test]
    fn a_family_lowers_and_runs_its_kernel_once_across_thread_counts() {
        let app = App::TwoMm;
        let (tu, entry) = weaved_clone(app);
        let family = KernelFamily::new(Arc::new(tu.clone()), entry.clone(), app, Dataset::Mini);
        let first = family.kernel(1).unwrap();
        for threads in [2, 7, 32] {
            let k = family.kernel(threads).unwrap();
            assert!(Arc::ptr_eq(&k.code, &first.code), "threads {threads}");
            assert_eq!(k.report, first.report);
            let spec = functional_spec(app, Dataset::Mini, threads);
            let alone = compile_kernel(&tu, &entry, app, &spec).unwrap();
            assert_eq!(k.report, alone.report);
            assert!(k.code.same_program(&alone.code));
            assert_eq!(k.spec_fingerprint, alone.spec_fingerprint);
        }
        assert_eq!(family.lowerings(), 1);
    }

    #[test]
    fn a_checked_run_decides_feasibility_and_the_profile_decides_domination() {
        let enhanced = crate::Toolchain {
            dataset: Dataset::Mini,
            dse_repetitions: 1,
            ..crate::Toolchain::default()
        }
        .enhance(App::Mvt)
        .unwrap();
        let configs: Vec<KnobConfig> = enhanced
            .knowledge
            .points()
            .iter()
            .map(|p| p.config.clone())
            .collect();
        let machine = enhanced.platform.machine(0);
        let expected = |cfg: &KnobConfig| {
            let e = machine.expected(&enhanced.profile, cfg);
            (e.time_s, e.power_w)
        };
        let pruned = analysis_prune(&enhanced, configs.clone());
        assert_eq!(pruned.infeasible, 0);
        assert!(pruned.dominated > 0);
        assert_eq!(
            pruned,
            dse::prune_space(configs.clone(), |_| true, expected),
            "a safe kernel prunes on the profile's expectation alone"
        );

        // Each doctored program traps the checked VM at every thread
        // count, so nothing is feasible: a store one past the end in
        // every clone, and `y_1`, which `init_array` no longer writes,
        // read by every clone. Only the checked run traps the second:
        // the design-time run reads its zero fill and completes.
        let text = minic::print(&enhanced.weaved);
        let entry = enhanced.kernel_entry();
        let spec = functional_spec(enhanced.app, enhanced.dataset, 1);
        for (from, to, design_time_run_completes) in [
            ("x1[i] = x1[i]", "x1[i + 1] = x1[i]", false),
            ("y_1[i] =", "y_2[i] =", true),
        ] {
            let doctored = text.replace(from, to);
            assert_ne!(doctored, text);
            let doctored = crate::EnhancedApp {
                weaved: Arc::new(minic::parse(&doctored).unwrap()),
                ..enhanced.clone()
            };
            let run = compile_kernel(&doctored.weaved, &entry, doctored.app, &spec);
            assert_eq!(run.is_ok(), design_time_run_completes, "{to}");
            let pruned = analysis_prune(&doctored, configs.clone());
            assert_eq!(pruned.infeasible, pruned.total(), "{to}");
            assert!(pruned.kept.is_empty(), "{to}");
        }
    }
}
