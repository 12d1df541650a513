//! The adversarial generator's contract, held exactly by the checked
//! VM over a deterministic seed range: a checked run traps if and only
//! if one of the program's armed faults fires at the parameter binding,
//! and its trap belongs to a fault that fires. The programs trip the
//! checked VM at a healthy rate, every fault class shows up as a trap,
//! and every run that does not trap is bit-identical to the unchecked
//! run.

use minic::genprog::{generate_adversarial, ArmedFault, FaultClass};
use minivm::{compile, SpecConfig};

const SEEDS: u64 = 96;
/// Each seed runs under three bindings chosen to pull the conditional
/// faults both ways: `9` satisfies the `P > 5` out-of-bounds guards,
/// `-3` the `P < 0` zero-divisor guards, and at `1` no guard holds.
const BINDINGS: [i64; 3] = [9, -3, 1];
const MIN_TRAP_RATE: f64 = 0.40;

/// Whether `fault` fires when every parameter is bound to `binding`: a
/// definite fault always does, a conditional one when its guard holds.
fn fires(fault: &ArmedFault, binding: i64) -> bool {
    fault.definite
        || match fault.class {
            FaultClass::OutOfBounds => binding > 5,
            FaultClass::DivByZero => binding < 0,
            FaultClass::UninitRead => false,
        }
}

/// The fault class a checked-VM trap message reports.
fn trap_class(msg: &str) -> Option<FaultClass> {
    if msg.contains("out of bounds") {
        Some(FaultClass::OutOfBounds)
    } else if msg.contains("uninitialized read") {
        Some(FaultClass::UninitRead)
    } else if msg.contains("division by zero") {
        Some(FaultClass::DivByZero)
    } else {
        None
    }
}

#[test]
fn adversarial_programs_trap_the_checked_vm_at_a_minimum_rate() {
    let mut runs = 0usize;
    let mut traps = 0usize;
    let mut seen = Vec::new(); // fault classes observed trapping

    for seed in 0..SEEDS {
        let p = generate_adversarial(seed);
        let tu = minic::parse(&p.source)
            .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{}", p.source));

        for &binding in &BINDINGS {
            let mut spec = SpecConfig::new();
            for name in &p.params {
                spec.set(name, binding);
            }
            let kernel = compile(&tu, &p.entry, &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e}\n{}", p.source));
            let firing: Vec<FaultClass> = p
                .faults
                .iter()
                .filter(|f| fires(f, binding))
                .map(|f| f.class)
                .collect();
            runs += 1;

            match kernel.run_checked() {
                Err(err) => {
                    traps += 1;
                    let msg = err.to_string();
                    let class = trap_class(&msg);
                    assert!(
                        class.is_some_and(|c| firing.contains(&c)),
                        "seed {seed} (P = {binding}) trapped ({msg}) but its firing \
                         faults are {firing:?} of {:?}:\n{}",
                        p.faults,
                        p.source
                    );
                    seen.extend(class.filter(|c| !seen.contains(c)));
                }
                Ok(report) => {
                    assert!(
                        firing.is_empty(),
                        "seed {seed} (P = {binding}) fires {firing:?} of {:?} \
                         but ran to completion:\n{}",
                        p.faults,
                        p.source
                    );
                    let unchecked = kernel.run().expect("a clean checked run runs unchecked");
                    assert_eq!(
                        unchecked, report,
                        "seed {seed}: checked and unchecked reports must be bit-identical"
                    );
                }
            }
        }
    }

    let rate = traps as f64 / runs as f64;
    assert!(
        rate >= MIN_TRAP_RATE,
        "trap rate {rate:.2} ({traps}/{runs}) below the {MIN_TRAP_RATE} minimum"
    );
    assert_eq!(
        seen.len(),
        3,
        "not every fault class manifested as a trap: {seen:?}"
    );
}

#[test]
fn conditional_faults_follow_the_parameter_binding() {
    // Find a seed whose *only* fault is conditional, then show the
    // binding decides: one side traps, the other completes.
    let (seed, p) = (0..512)
        .map(|s| (s, generate_adversarial(s)))
        .find(|(_, p)| {
            p.faults.len() == 1
                && !p.faults[0].definite
                && p.faults[0].class == FaultClass::OutOfBounds
        })
        .expect("a conditional-OOB-only seed exists in 0..512");
    let tu = minic::parse(&p.source).expect("program parses");

    let mut hot = SpecConfig::new();
    let mut cold = SpecConfig::new();
    for name in &p.params {
        hot.set(name, 9i64); // satisfies the `P > 5` guard
        cold.set(name, 1i64);
    }
    let trapped = compile(&tu, &p.entry, &hot)
        .expect("compiles")
        .run_checked();
    assert!(trapped.is_err(), "seed {seed}: guard satisfied, must trap");
    let clean = compile(&tu, &p.entry, &cold)
        .expect("compiles")
        .run_checked();
    assert!(
        clean.is_ok(),
        "seed {seed}: guard unsatisfied, must complete"
    );
}
