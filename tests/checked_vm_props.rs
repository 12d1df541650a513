//! The checked ("sanitizer") VM mode observes a fault-free program
//! without perturbing it: over programs from the fault-free generator
//! [`minic::genprog::generate`] with arbitrary specialization-parameter
//! bindings, the checked run completes and is **bit-identical** to the
//! unchecked run (the shadow bitmaps observe, never perturb).
//!
//! CI runs this suite at `RAYON_NUM_THREADS=1/2/8`; both VM modes are
//! single-threaded by construction, so thread-count invariance is part
//! of the contract.

use minic::genprog;
use minivm::{compile, SpecConfig};
use proptest::prelude::*;

/// Binds every referenced parameter, cycling through the arbitrary
/// values (the `engine_equivalence` idiom).
fn spec_for(params: &[String], values: &[i64]) -> SpecConfig {
    let mut spec = SpecConfig::new();
    for (i, name) in params.iter().enumerate() {
        spec.set(name.clone(), values[i % values.len()]);
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fault_free_programs_run_checked_bit_identically(
        seed in 0u64..1_000_000,
        values in prop::collection::vec(-100i64..100, 1..4),
    ) {
        let prog = genprog::generate(seed);
        let tu = minic::parse(&prog.source).expect("generated programs parse");
        let spec = spec_for(&prog.params, &values);
        let kernel = compile(&tu, &prog.entry, &spec)
            .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{}", prog.source));
        let unchecked = kernel.run()
            .unwrap_or_else(|e| panic!("seed {seed}: unchecked run failed: {e}\n{}", prog.source));
        let checked = kernel.run_checked()
            .unwrap_or_else(|e| panic!("seed {seed}: checked run trapped: {e}\n{}", prog.source));
        prop_assert_eq!(unchecked, checked, "seed {} diverged:\n{}", seed, prog.source);
    }
}
