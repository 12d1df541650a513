//! Differential equivalence suite: the bytecode engine must be
//! bit-identical to the reference AST interpreter.
//!
//! Three layers of evidence:
//! 1. property tests over randomly generated mini-C programs
//!    (`minic::genprog`) with arbitrary specialization-parameter
//!    bindings — every seed must produce identical [`ExecutionReport`]s
//!    (checksum + flop/load/store counts + return value) on both
//!    engines;
//! 2. the weaved path: LARA-multiversioned Polybench clones (with
//!    `num_threads(__socrates_num_threads)` pragmas woven in) run
//!    bit-identically under arbitrary thread-count bindings;
//! 3. error parity: invalid configurations (unbound pragma parameters)
//!    fail identically on both engines, before any execution.
//!
//! It also pins the reuse the toolchain builds on. A kernel records
//! what its lowering read of the spec; whenever another spec answers
//! those reads alike
//! ([`lowers_same_under`](minivm::CompiledKernel::lowers_same_under)),
//! a fresh lowering under it is the
//! [`same_program`](minivm::CompiledKernel::same_program) and runs to
//! the same result, errors included. A [`KernelFamily`] shares one run
//! across such specs of its own program only, and reuse never hides a
//! trap.
//!
//! CI runs this suite at `RAYON_NUM_THREADS=1/2/8`; the engines are
//! single-threaded by construction, so thread-count invariance is part
//! of the contract.

use minic::genprog;
use minivm::{compile, interpret, validate, EngineError, SpecConfig, VmState};
use polybench::{App, Dataset, KernelArg};
use proptest::prelude::*;
use socrates::{compile_kernel, functional_dims, KernelFamily, StageId};
use std::sync::Arc;

/// Builds the execution spec for a generated program: bind every
/// referenced parameter (cycling through the arbitrary values) — plus
/// the weaver's thread variable, which generated pragmas may reference.
fn spec_for(params: &[String], values: &[i64]) -> SpecConfig {
    let mut spec = SpecConfig::new();
    for (i, name) in params.iter().enumerate() {
        spec.set(name.clone(), values[i % values.len()]);
    }
    spec
}

/// A family over one program text, for the app-agnostic generated
/// programs (the app only tags errors; the dataset only matters to
/// [`KernelFamily::kernel`]).
fn family(tu: &minic::TranslationUnit, entry: &str) -> KernelFamily {
    KernelFamily::new(Arc::new(tu.clone()), entry, App::TwoMm, Dataset::Mini)
}

/// Entry-argument values, two of them signed zeros.
const ARGS: [f64; 3] = [0.0, -0.0, 1.5];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary generated programs × arbitrary parameter bindings →
    /// bit-identical reports on both engines.
    #[test]
    fn generated_programs_run_bit_identically(
        seed in 0u64..1_000_000,
        values in prop::collection::vec(-100i64..100, 1..4),
    ) {
        let prog = genprog::generate(seed);
        let tu = minic::parse(&prog.source).expect("generated programs parse");
        let spec = spec_for(&prog.params, &values);
        let interpreted = interpret(&tu, &prog.entry, &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: interpreter failed: {e}\n{}", prog.source));
        let kernel = compile(&tu, &prog.entry, &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{}", prog.source));
        let compiled = kernel
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: vm failed: {e}\n{}", prog.source));
        prop_assert_eq!(interpreted, compiled, "seed {} diverged:\n{}", seed, prog.source);
    }

    /// Re-running a compiled kernel with a reused VmState never changes
    /// the report (no state leaks between runs).
    #[test]
    fn compiled_reruns_are_stable(seed in 0u64..1_000_000) {
        let prog = genprog::generate(seed);
        let tu = minic::parse(&prog.source).expect("generated programs parse");
        let spec = spec_for(&prog.params, &[7]);
        let kernel = compile(&tu, &prog.entry, &spec).expect("compiles");
        let mut vm = VmState::new();
        let first = kernel.run_with(&mut vm).expect("runs");
        let second = kernel.run_with(&mut vm).expect("runs");
        prop_assert_eq!(first, second);
    }

    /// Sharing a run is exact. Whenever the lowerings of a generated
    /// program under two bindings (equal about half the time) are the
    /// same program, both run to the same result; two lowerings of one
    /// binding always are; and the program's family, having run the
    /// first binding, reports for the second what a fresh run does,
    /// sharing the run exactly when the first kernel lowers the same
    /// under the second binding.
    #[test]
    fn same_programs_run_to_the_same_result(
        seed in 0u64..1_000_000,
        first in prop::collection::vec(-4i64..4, 1..4),
        second in prop::collection::vec(-4i64..4, 1..4),
        equal in any::<bool>(),
    ) {
        let prog = genprog::generate(seed);
        let tu = minic::parse(&prog.source).expect("generated programs parse");
        let spec_a = spec_for(&prog.params, &first);
        let spec_b = spec_for(&prog.params, if equal { &first } else { &second });
        let a = compile(&tu, &prog.entry, &spec_a).expect("compiles");
        let b = compile(&tu, &prog.entry, &spec_b).expect("compiles");
        let again = compile(&tu, &prog.entry, &spec_a).expect("compiles");
        prop_assert!(a.same_program(&again), "seed {}: one spec, two programs", seed);
        let same = a.same_program(&b);
        prop_assert!(same || !equal, "seed {}: equal bindings, two programs", seed);
        if same {
            prop_assert_eq!(a.run(), b.run(), "seed {} shared a wrong report", seed);
        }
        let family = family(&tu, &prog.entry);
        let ran = family.kernel_with(&spec_a).expect("runs");
        let built = family.kernel_with(&spec_b).expect("runs");
        prop_assert_eq!(built.report, b.run().expect("runs"));
        let shared = a.lowers_same_under(&spec_b);
        prop_assert_eq!(Arc::ptr_eq(&built.code, &ran.code), shared);
        prop_assert!(same || !shared, "seed {}: shared across two programs", seed);
    }

    /// Reuse is sound. A generated program (clean or adversarial) takes
    /// a `double` entry argument, and a second spec changes one thing
    /// about the first: nothing, the parameter values, the argument's
    /// bits, a binding that shadows the global `acc`, or a dropped
    /// parameter. Whenever the first kernel lowers the same under a
    /// valid second spec, a fresh lowering under it is the same program
    /// and runs to the same result, errors included.
    #[test]
    fn reuse_holds_only_where_every_recorded_read_answers_alike(
        seed in 0u64..1_000_000,
        adversarial in any::<bool>(),
        first in prop::collection::vec(-4i64..4, 1..4),
        second in prop::collection::vec(-4i64..4, 1..4),
        arg in 0usize..ARGS.len(),
        other_arg in 1usize..ARGS.len(),
        change in 0u8..5,
    ) {
        let prog = if adversarial {
            genprog::generate_adversarial(seed)
        } else {
            genprog::generate(seed)
        };
        let header = format!("void {}() {{\n", prog.entry);
        prop_assert!(prog.source.contains(&header));
        let source = prog.source.replacen(
            &header,
            &format!("void {}(double x) {{\n  acc = x;\n", prog.entry),
            1,
        );
        let tu = minic::parse(&source).expect("generated programs parse");
        let spec_a = spec_for(&prog.params, &first).arg(ARGS[arg]);
        let spec_b = match change {
            0 => spec_a.clone(),
            1 => spec_for(&prog.params, &second).arg(ARGS[arg]),
            2 => spec_for(&prog.params, &first).arg(ARGS[(arg + other_arg) % ARGS.len()]),
            3 => spec_for(&prog.params, &first).bind("acc", 1i64).arg(ARGS[arg]),
            _ => spec_for(prog.params.get(1..).unwrap_or_default(), &first).arg(ARGS[arg]),
        };
        let a = compile(&tu, &prog.entry, &spec_a).expect("compiles");
        prop_assert!(a.lowers_same_under(&spec_a));
        prop_assert!(change != 0 || a.lowers_same_under(&spec_b));
        if a.lowers_same_under(&spec_b) && validate(&tu, &prog.entry, &spec_b).is_ok() {
            let b = compile(&tu, &prog.entry, &spec_b).unwrap_or_else(|e| {
                panic!("seed {seed}, change {change}: reuse where lowering fails: {e}")
            });
            prop_assert!(a.same_program(&b), "seed {}, change {}", seed, change);
            prop_assert_eq!(a.run(), b.run(), "seed {}, change {}", seed, change);
        }
    }

    /// Reuse never hides a trap: an adversarial program's family fails
    /// every thread count's build at the lowering stage with the trap
    /// its run hits, whatever ran before; and a family never serves
    /// another program: beside a clean program's family that ran, it
    /// builds its own kernel.
    #[test]
    fn trapping_programs_still_fail_beside_a_kernel_that_ran(
        seed in 0u64..1_000_000,
        value in -8i64..8,
    ) {
        let clean = genprog::generate(seed);
        let clean_tu = minic::parse(&clean.source).expect("generated programs parse");
        let clean_spec = spec_for(&clean.params, &[value]);
        let ran = family(&clean_tu, &clean.entry)
            .kernel_with(&clean_spec)
            .expect("clean programs run");
        let prog = genprog::generate_adversarial(seed);
        let tu = minic::parse(&prog.source).expect("adversarial programs parse");
        let family = family(&tu, &prog.entry);
        for threads in [1i64, 2, 7] {
            let spec = spec_for(&prog.params, &[value]).bind(lara::THREADS_VAR, threads);
            let alone = compile(&tu, &prog.entry, &spec).expect("compiles").run();
            let built = family.kernel_with(&spec);
            match alone {
                Err(trap) => {
                    let err = built.expect_err("a trapping program must fail its build");
                    prop_assert_eq!(err.stage(), StageId::Lower);
                    prop_assert!(err.to_string().ends_with(&trap.to_string()), "{}", err);
                }
                Ok(report) => {
                    let built = built.expect("a clean run builds");
                    prop_assert_eq!(built.report, report);
                    prop_assert!(!Arc::ptr_eq(&built.code, &ran.code));
                }
            }
        }
    }

    /// The weaved path: a LARA-multiversioned Polybench clone (with the
    /// thread-count pragma woven in) runs bit-identically on both
    /// engines for arbitrary thread-count bindings, and the thread count
    /// does not perturb functional results (it is a pragma parameter,
    /// not a semantic input).
    #[test]
    fn weaved_clones_run_bit_identically(threads in 1i64..64) {
        let app = App::TwoMm;
        let src = polybench::source(app, Dataset::Mini);
        let tu = minic::parse(&src).expect("polybench parses");
        let mut weaver = lara::Weaver::new(tu);
        let versions = [lara::StaticVersion::new(["O2"], "close")];
        let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions)
            .expect("weaving succeeds");
        let (weaved_tu, _) = weaver.finish();
        let clone = &woven.version_functions[0];

        let dims: Vec<(&str, usize)> = app
            .dims(Dataset::Mini)
            .into_iter()
            .map(|(n, v)| (n, v.min(16)))
            .collect();
        let mut spec = SpecConfig::new().bind(lara::THREADS_VAR, threads);
        for &(name, v) in &dims {
            spec.set(name, v);
        }
        for arg in app.kernel_args(&dims) {
            spec = match arg {
                KernelArg::Int(v) => spec.arg(v),
                KernelArg::Double(v) => spec.arg(v),
            };
        }

        let interpreted = interpret(&weaved_tu, clone, &spec).expect("interpreter runs clone");
        let compiled = compile(&weaved_tu, clone, &spec).expect("clone compiles").run().expect("vm runs clone");
        prop_assert_eq!(interpreted, compiled);

        // The thread binding is configuration, not data: a different
        // binding yields the same functional result.
        let spec2 = spec.clone().bind(lara::THREADS_VAR, 1i64);
        let other = interpret(&weaved_tu, clone, &spec2).expect("interpreter runs clone");
        prop_assert_eq!(interpreted.checksum, other.checksum);
    }
}

/// Unbound pragma parameters fail identically on both engines, at
/// validation time, before any kernel work happens.
#[test]
fn unbound_pragma_parameter_errors_identically() {
    let app = App::Syrk;
    let src = polybench::source(app, Dataset::Mini);
    let tu = minic::parse(&src).unwrap();
    let mut weaver = lara::Weaver::new(tu);
    let versions = [lara::StaticVersion::new(["O2"], "close")];
    let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions).unwrap();
    let (weaved_tu, _) = weaver.finish();
    let clone = &woven.version_functions[0];

    // Dimensions bound, thread variable deliberately not.
    let mut spec = SpecConfig::new();
    for (name, v) in app.dims(Dataset::Mini) {
        spec.set(name, v.min(16));
    }
    for arg in app.kernel_args(&app.dims(Dataset::Mini)) {
        spec = match arg {
            KernelArg::Int(v) => spec.arg(v),
            KernelArg::Double(v) => spec.arg(v),
        };
    }
    let a = interpret(&weaved_tu, clone, &spec).unwrap_err();
    let b = compile(&weaved_tu, clone, &spec).map(|_| ()).unwrap_err();
    assert_eq!(a, b);
    assert!(
        matches!(
            &a,
            EngineError::UnboundPragmaParam { param, .. } if param == lara::THREADS_VAR
        ),
        "expected an unbound-pragma error, got: {a}"
    );
}

/// A spec constant the code reads, not only a pragma, makes each
/// binding its own program: the family lowers and runs the second
/// binding instead of sharing the first one's report.
#[test]
fn a_constant_read_in_code_runs_once_per_binding() {
    let src = r#"
long out;
void kernel() {
#pragma omp parallel for num_threads(__socrates_num_threads)
  for (int i = 0; i < 4; i++) out = out + __socrates_num_threads;
}
"#;
    let tu = minic::parse(src).unwrap();
    let spec = |threads: i64| SpecConfig::new().bind(lara::THREADS_VAR, threads);
    let family = family(&tu, "kernel");
    let one = family.kernel_with(&spec(1)).unwrap();
    let two = family.kernel_with(&spec(2)).unwrap();
    assert!(!one.code.lowers_same_under(&spec(2)));
    assert!(!one.code.same_program(&two.code));
    assert!(!Arc::ptr_eq(&one.code, &two.code), "the second binding ran");
    assert_ne!(one.report.checksum, two.report.checksum);
    assert_eq!(two.report, interpret(&tu, "kernel", &spec(2)).unwrap());
}

/// Program equality and the recorded reads compare baked floats by
/// their bits: `0.0` and `-0.0`, as an entry argument or as a constant
/// in code, are different programs, a family does not share between
/// them, and storing them gives different checksums.
#[test]
fn signed_zeros_are_different_programs() {
    let by_arg = minic::parse("double out;\nvoid kernel(double x) { out = x; }").unwrap();
    let by_const = minic::parse("double out;\nvoid kernel() { out = Z; }").unwrap();
    let cases = [
        (
            &by_arg,
            SpecConfig::new().arg(0.0),
            SpecConfig::new().arg(-0.0),
        ),
        (
            &by_const,
            SpecConfig::new().bind("Z", 0.0),
            SpecConfig::new().bind("Z", -0.0),
        ),
    ];
    for (tu, pos, neg) in cases {
        let family = family(tu, "kernel");
        let ran = family.kernel_with(&pos).unwrap();
        let built = family.kernel_with(&neg).unwrap();
        assert!(!ran.code.lowers_same_under(&neg));
        assert!(!ran.code.same_program(&built.code));
        assert!(!Arc::ptr_eq(&ran.code, &built.code));
        assert_ne!(ran.report.checksum, built.report.checksum);
        assert_eq!(built.report, interpret(tu, "kernel", &neg).unwrap());
    }
}

/// Validation comes before reuse. After thread count 1 of Syrk's
/// weaved clone ran, a 7-thread spec that leaves the thread variable
/// unbound answers every read of the lowering alike, but still fails
/// at the lowering stage with the one-shot path's message.
#[test]
fn an_unbound_pragma_fails_after_another_thread_count_ran() {
    let app = App::Syrk;
    let tu = minic::parse(&polybench::source(app, Dataset::Mini)).unwrap();
    let mut weaver = lara::Weaver::new(tu);
    let versions = [lara::StaticVersion::new(["O2"], "close")];
    let woven = lara::multiversioning(&mut weaver, &app.kernel_name(), &versions).unwrap();
    let (weaved_tu, _) = weaver.finish();
    let clone = woven.version_functions[0].clone();

    let dims = functional_dims(app, Dataset::Mini);
    let mut unbound = SpecConfig::new().bind("__socrates_threads", 7i64);
    for &(name, v) in &dims {
        unbound.set(name, v);
    }
    for arg in app.kernel_args(&dims) {
        unbound = match arg {
            KernelArg::Int(v) => unbound.arg(v),
            KernelArg::Double(v) => unbound.arg(v),
        };
    }
    let today = compile_kernel(&weaved_tu, &clone, app, &unbound).unwrap_err();

    let family = KernelFamily::new(Arc::new(weaved_tu), clone, app, Dataset::Mini);
    let ran = family.kernel(1).unwrap();
    assert!(ran.code.lowers_same_under(&unbound));
    let err = family.kernel_with(&unbound).unwrap_err();
    assert_eq!(err.stage(), StageId::Lower);
    assert_eq!(err.to_string(), today.to_string());
    assert!(err.to_string().starts_with("[lower] syrk:"), "{err}");
    assert!(err.to_string().contains(lara::THREADS_VAR), "{err}");
    // The thread counts that bind it still share the one run.
    let seven = family.kernel(7).unwrap();
    assert!(Arc::ptr_eq(&seven.code, &ran.code));
}
