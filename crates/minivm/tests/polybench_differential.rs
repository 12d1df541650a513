//! Differential test: both engines execute all 12 Polybench kernels
//! bit-identically, and to pinned outputs, and the bytecode engine's
//! checked mode runs each of them to the same report.
//!
//! The functional dimensions are the Mini dataset's, clamped to keep the
//! (deliberately slow) reference interpreter fast enough for debug-mode
//! test runs. Both engines receive the *same* spec, so the clamp cannot
//! perturb the equivalence being tested.

use minivm::{compile, interpret, SpecConfig, VmState};
use polybench::{App, Dataset, KernelArg};

/// Functional dimension cap for test-speed (applied identically to both
/// engines).
const DIM_CAP: usize = 20;

/// Each app's `(checksum, flops, loads, stores)` at [`functional_spec`]:
/// what the C kernels compute, pinned so that a change to a source, the
/// parser, the lowering or both engines at once cannot go unnoticed.
const PINNED: [(App, u64, u64, u64, u64); 12] = [
    (App::TwoMm, 0x698e_62f9_b954_db6c, 42000, 48400, 18400),
    (App::ThreeMm, 0x3d88_da5d_892f_50e8, 49600, 72000, 26800),
    (App::Atax, 0x23c3_f4d4_2332_ca24, 2040, 2400, 1260),
    (App::Correlation, 0x48e7_6df5_101c_08b1, 12060, 16070, 6300),
    (App::Doitgen, 0xa36a_3cd0_0078_8500, 15220, 22320, 9460),
    (App::Gemver, 0x9850_233d_54ec_8de8, 4520, 4440, 1780),
    (App::Jacobi2d, 0xcfaa_82ca_22cb_2423, 67200, 64800, 13760),
    (App::Mvt, 0x6dc7_38d7_baa6_feeb, 2080, 2400, 1280),
    (App::Nussinov, 0x3451_991b_3ca2_932d, 0, 5106, 624),
    (App::Seidel2d, 0x1a14_7945_c46a_699e, 59520, 58320, 6880),
    (App::Syr2k, 0x8899_d623_09fa_faf3, 26610, 21210, 5610),
    (App::Syrk, 0x9a49_1349_dc6a_da1e, 13610, 12810, 5210),
];

fn functional_spec(app: App) -> SpecConfig {
    let dims: Vec<(&str, usize)> = app
        .dims(Dataset::Mini)
        .into_iter()
        .map(|(n, v)| (n, v.min(DIM_CAP)))
        .collect();
    let mut spec = SpecConfig::new();
    for &(name, v) in &dims {
        spec.set(name, v);
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
fn all_twelve_apps_run_bit_identically_on_both_engines() {
    let mut vm = VmState::new();
    assert_eq!(
        PINNED.map(|(app, ..)| app),
        App::ALL,
        "one pinned row per app"
    );
    for (app, checksum, flops, loads, stores) in PINNED {
        let src = polybench::source(app, Dataset::Mini);
        let tu = minic::parse(&src).unwrap_or_else(|e| panic!("{}: parse failed: {e}", app.name()));
        let spec = functional_spec(app);
        let entry = app.kernel_name();
        let interpreted = interpret(&tu, &entry, &spec)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", app.name()));
        let kernel = compile(&tu, &entry, &spec)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", app.name()));
        let compiled = kernel
            .run_with(&mut vm)
            .unwrap_or_else(|e| panic!("{}: vm failed: {e}", app.name()));
        assert_eq!(
            interpreted,
            compiled,
            "{}: engine reports diverge",
            app.name()
        );
        // No Polybench kernel faults, so checked mode completes and
        // changes nothing.
        let checked = kernel
            .run_checked_with(&mut vm)
            .unwrap_or_else(|e| panic!("{}: checked VM trapped: {e}", app.name()));
        assert_eq!(
            checked,
            compiled,
            "{}: checked report differs from unchecked",
            app.name()
        );
        assert_eq!(
            (
                interpreted.checksum,
                interpreted.flops,
                interpreted.loads,
                interpreted.stores
            ),
            (checksum, flops, loads, stores),
            "{}: the kernel's output moved from the pinned row",
            app.name()
        );
    }
}

#[test]
fn compiled_kernels_are_deterministic_across_reruns() {
    let app = App::TwoMm;
    let src = polybench::source(app, Dataset::Mini);
    let tu = minic::parse(&src).unwrap();
    let spec = functional_spec(app);
    let kernel = compile(&tu, &app.kernel_name(), &spec).unwrap();
    let mut vm = VmState::new();
    let first = kernel.run_with(&mut vm).unwrap();
    for _ in 0..3 {
        assert_eq!(kernel.run_with(&mut vm).unwrap(), first);
    }
}

#[test]
fn spec_fingerprint_distinguishes_configurations() {
    let app = App::Syrk;
    let base = functional_spec(app);
    let threaded = base.clone().bind("__socrates_num_threads", 4i64);
    assert_ne!(base.fingerprint(), threaded.fingerprint());
}
