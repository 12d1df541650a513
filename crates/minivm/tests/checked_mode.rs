//! The checked ("sanitizer") VM mode traps the three fault classes at
//! run time, each with its own message, and observes a program that
//! does not fault without perturbing it. A trap is how the DSE prune
//! rejects a specialization before it is ever profiled.

use minivm::{compile, SpecConfig};

fn parse(src: &str) -> minic::TranslationUnit {
    minic::parse(src).expect("test program parses")
}

#[test]
fn uninit_read_traps_at_run_time_with_its_message() {
    // init_array skips index 0, the kernel reads it.
    let tu = parse(
        "double A[8];
         void init_array() {
             for (int i = 1; i < 8; i++) { A[i] = 1.0; }
         }
         double kernel_gap() {
             double s = 0.0;
             for (int i = 0; i < 8; i++) { s = s + A[i]; }
             return s;
         }",
    );
    let kernel = compile(&tu, "kernel_gap", &SpecConfig::new()).unwrap();
    // The unchecked VM reads the zero-filled cell and completes...
    let unchecked = kernel.run().expect("unchecked mode completes");
    assert_eq!(unchecked.flops, 8);
    // ...while checked mode traps at the unwritten cell.
    let err = kernel.run_checked().expect_err("checked mode must trap");
    let msg = err.to_string();
    assert!(
        msg.contains("uninitialized read of `A` at index 0"),
        "unexpected trap message: {msg}"
    );
}

#[test]
fn out_of_bounds_traps_at_run_time_with_its_message() {
    let tu = parse(
        "double A[8];
         void init_array() {
             for (int i = 0; i < 8; i++) { A[i] = 2.0; }
         }
         double kernel_oob() {
             double s = 0.0;
             for (int i = 0; i <= 8; i++) { s = s + A[i]; }
             return s;
         }",
    );
    let kernel = compile(&tu, "kernel_oob", &SpecConfig::new()).unwrap();
    let unchecked = kernel.run().expect_err("bounds are enforced unchecked too");
    let checked = kernel.run_checked().expect_err("checked mode must trap");
    assert_eq!(checked, unchecked);
    assert_eq!(
        checked.to_string(),
        "runtime error: index 8 out of bounds (len 8)"
    );
}

#[test]
fn division_by_zero_traps_at_run_time_with_its_message() {
    let tu = parse(
        "long d;
         double A[4];
         void init_array() {
             d = 0;
             for (int i = 0; i < 4; i++) { A[i] = 1.0; }
         }
         double kernel_div() {
             long x = 4 / d;
             return A[0] + x;
         }",
    );
    let kernel = compile(&tu, "kernel_div", &SpecConfig::new()).unwrap();
    let unchecked = kernel.run().expect_err("zero divisors trap unchecked too");
    let checked = kernel.run_checked().expect_err("checked mode must trap");
    assert_eq!(checked, unchecked);
    assert_eq!(
        checked.to_string(),
        "runtime error: integer division by zero"
    );
}

#[test]
fn safe_programs_run_checked_bit_identically() {
    let tu = parse(
        "double A[6];
         double B[6];
         void init_array() {
             for (int i = 0; i < 6; i++) {
                 A[i] = 0.5 * i;
                 B[i] = 1.0 + i;
             }
         }
         double kernel_safe() {
             double s = 0.0;
             for (int i = 0; i < 6; i++) { s = s + A[i] * B[i]; }
             return s;
         }",
    );
    let kernel = compile(&tu, "kernel_safe", &SpecConfig::new()).unwrap();
    let unchecked = kernel.run().unwrap();
    let checked = kernel.run_checked().unwrap();
    assert_eq!(unchecked, checked);
    // init: per cell, two stores and two flops (`0.5 * i`, `1.0 + i`).
    // kernel: per step, two loads and two flops.
    assert_eq!((checked.flops, checked.loads, checked.stores), (24, 12, 12));
}
