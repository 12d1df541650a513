//! Execution engines for weaved mini-C kernels.
//!
//! This crate gives the SOCRATES reproduction *functional* kernel
//! execution with two interchangeable engines:
//!
//! * [`interpret`] — a reference AST interpreter that walks the minic
//!   tree directly. Slow, simple, and the semantic ground truth.
//! * [`compile`] — lowers the program to a typed IR with every
//!   specialization constant (array dimensions, OpenMP pragma
//!   parameters, entry arguments) baked in, folds the integer work, and
//!   emits register bytecode executed by a tight dispatch loop with no
//!   per-step allocation.
//!
//! Both engines produce an [`ExecutionReport`] — a checksum of the final
//! global memory image plus counts of the *semantic* events (f64
//! arithmetic, array element loads and stores) — and the two reports are
//! bit-identical for any program in the supported dialect under the same
//! [`SpecConfig`]. That contract is what lets the compiled engine
//! replace the interpreter everywhere without perturbing a single
//! downstream golden trace.
//!
//! # The specialization-constant contract
//!
//! A [`SpecConfig`] is the *entire* configuration surface of a kernel:
//! named constants (resolved after locals and before globals, so they
//! shadow globals such as the weaver's `__socrates_num_threads`) plus
//! the entry function's argument list. Lowering folds the constants into
//! the IR, so a `CompiledKernel` is valid for exactly one spec
//! fingerprint — which is why compiled artifacts are cached per
//! `(app, dataset, config fingerprint)`.
//!
//! # Counted events
//!
//! `flops` counts executed f64 add/sub/mul/div/rem/negate/sqrt after
//! type promotion; `loads`/`stores` count array *element* accesses
//! (scalar locals and globals are free). Integer arithmetic, casts,
//! comparisons, and branches are deliberately uncounted: they are the
//! bookkeeping the compiler is allowed to fold away.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod interp;
mod layout;
mod lower;
mod spec;
mod vm;

pub use spec::{validate_pragmas, SpecConfig, SpecValue};
pub use vm::{CompiledKernel, VmState};

use minic::TranslationUnit;
use serde::{Deserialize, Serialize};

/// An engine failure: unsupported dialect, unbound name, or runtime trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// An OpenMP pragma references a parameter the spec does not bind.
    UnboundPragmaParam {
        /// The function carrying the pragma.
        function: String,
        /// The unbound parameter name.
        param: String,
    },
    /// An identifier resolves to neither a local, a spec constant, nor a
    /// global.
    UnboundIdent {
        /// The unresolved name.
        name: String,
    },
    /// The requested entry function is not defined.
    UnknownEntry {
        /// The missing function name.
        name: String,
    },
    /// The spec supplies the wrong number of entry arguments.
    BadEntryArgs {
        /// The entry function name.
        entry: String,
        /// Parameter count the function declares.
        expected: usize,
        /// Argument count the spec supplies.
        got: usize,
    },
    /// The program uses a construct outside the executable dialect.
    Unsupported {
        /// What was encountered.
        what: String,
    },
    /// A runtime trap: division by zero or an out-of-bounds element
    /// access.
    Runtime {
        /// What trapped.
        what: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnboundPragmaParam { function, param } => write!(
                f,
                "pragma parameter `{param}` in `{function}` is not bound by the configuration"
            ),
            EngineError::UnboundIdent { name } => {
                write!(f, "unbound identifier `{name}`")
            }
            EngineError::UnknownEntry { name } => {
                write!(f, "entry function `{name}` is not defined")
            }
            EngineError::BadEntryArgs {
                entry,
                expected,
                got,
            } => write!(
                f,
                "entry `{entry}` takes {expected} argument(s) but the spec supplies {got}"
            ),
            EngineError::Unsupported { what } => write!(f, "unsupported: {what}"),
            EngineError::Runtime { what } => write!(f, "runtime error: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The value returned by the entry function, preserved bit-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RetValue {
    /// The entry returns `void`.
    Void,
    /// An integer return.
    I64(i64),
    /// A float return, stored as raw IEEE bits so `Eq` is exact.
    F64Bits(u64),
}

/// The observable outcome of one kernel execution: a checksum of every
/// global's final bit pattern plus the counted semantic events. Two
/// engines agree iff their reports are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// FNV-1a over all globals in declaration order, row-major, exact
    /// bit patterns.
    pub checksum: u64,
    /// Executed f64 add/sub/mul/div/rem/negate/sqrt operations.
    pub flops: u64,
    /// Array element reads (including the read half of `op=`).
    pub loads: u64,
    /// Array element writes.
    pub stores: u64,
    /// The entry function's return value.
    pub ret: RetValue,
}

/// Validates a program/spec pair without running it: the entry exists
/// and has a body, the spec's argument count matches, `init_array` (if
/// present) is parameterless, and every pragma parameter either side
/// references is bound. Both engines run this exact check, so they fail
/// identically and *before* any work happens.
pub fn validate(tu: &TranslationUnit, entry: &str, spec: &SpecConfig) -> Result<(), EngineError> {
    let f = tu
        .function(entry)
        .ok_or_else(|| EngineError::UnknownEntry {
            name: entry.to_string(),
        })?;
    if f.body.is_none() {
        return Err(EngineError::Unsupported {
            what: format!("`{entry}` has no body"),
        });
    }
    if f.params.len() != spec.args().len() {
        return Err(EngineError::BadEntryArgs {
            entry: entry.to_string(),
            expected: f.params.len(),
            got: spec.args().len(),
        });
    }
    if let Some(init) = tu.function("init_array") {
        if init.body.is_none() {
            return Err(EngineError::Unsupported {
                what: "`init_array` has no body".into(),
            });
        }
        if !init.params.is_empty() {
            return Err(EngineError::BadEntryArgs {
                entry: "init_array".into(),
                expected: init.params.len(),
                got: 0,
            });
        }
        validate_pragmas(tu, "init_array", spec)?;
    }
    validate_pragmas(tu, entry, spec)?;
    Ok(())
}

/// Runs `init_array` (when present) and then `entry` under `spec` with
/// the reference AST interpreter.
pub fn interpret(
    tu: &TranslationUnit,
    entry: &str,
    spec: &SpecConfig,
) -> Result<ExecutionReport, EngineError> {
    validate(tu, entry, spec)?;
    interp::run(tu, entry, spec)
}

/// Lowers and compiles `entry` (plus `init_array`) under `spec` into a
/// reusable [`CompiledKernel`] with the spec baked in.
///
/// [`validate`] runs first, so it is validation, not the lowering
/// proper, that rejects an unbound pragma parameter. The kernel records
/// every spec lookup the lowering proper makes (validation's pragma
/// lookups are not among them) for
/// [`CompiledKernel::lowers_same_under`].
pub fn compile(
    tu: &TranslationUnit,
    entry: &str,
    spec: &SpecConfig,
) -> Result<CompiledKernel, EngineError> {
    validate(tu, entry, spec)?;
    vm::codegen(lower::lower_program(tu, entry, spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs both engines and asserts bit-identical reports.
    fn both(src: &str, entry: &str, spec: &SpecConfig) -> ExecutionReport {
        let tu = minic::parse(src).unwrap();
        let a = interpret(&tu, entry, spec).unwrap();
        let k = compile(&tu, entry, spec).unwrap();
        let b = k.run().unwrap();
        assert_eq!(a, b, "engines diverge on:\n{src}");
        // Re-running the same compiled kernel with a reused state is
        // also bit-identical.
        let mut vm = VmState::new();
        assert_eq!(k.run_with(&mut vm).unwrap(), b);
        assert_eq!(k.run_with(&mut vm).unwrap(), b);
        b
    }

    #[test]
    fn scalar_kernel_with_exact_counts() {
        // 4 iterations: one load (C[i]), one flop (*alpha), one store.
        let src = r#"
double C[N];
void init_array() { for (int i = 0; i < N; i++) C[i] = i + 0.5; }
void kernel(double alpha) {
  for (int i = 0; i < N; i++) C[i] = C[i] * alpha;
}
"#;
        let spec = SpecConfig::new().bind("N", 4i64).arg(2.0);
        let r = both(src, "kernel", &spec);
        // init: 4 stores, 4 flops (i + 0.5 promotes). kernel: 4 loads,
        // 4 flops, 4 stores.
        assert_eq!(r.flops, 8);
        assert_eq!(r.loads, 4);
        assert_eq!(r.stores, 8);
        assert_eq!(r.ret, RetValue::Void);
    }

    #[test]
    fn compound_element_assign_counts_one_load_one_store() {
        let src = r#"
double A[N][N];
void kernel() {
  for (int i = 0; i < N; i++)
    for (int j = 0; j < N; j++)
      A[i][j] += i * j + 1.5;
}
"#;
        let spec = SpecConfig::new().bind("N", 3i64);
        let r = both(src, "kernel", &spec);
        assert_eq!(r.loads, 9, "compound assign loads the element once");
        assert_eq!(r.stores, 9);
        // Per element: i*j is integer (uncounted), `+ 1.5` promotes
        // (1 flop), `A[i][j] += ...` adds in f64 (1 flop).
        assert_eq!(r.flops, 18);
    }

    #[test]
    fn spec_constants_shadow_globals_and_bake_in() {
        let src = r#"
int __socrates_num_threads = 1;
int out;
void kernel() { out = __socrates_num_threads * 10; }
"#;
        let tu = minic::parse(src).unwrap();
        let spec = SpecConfig::new().bind("__socrates_num_threads", 7i64);
        let a = interpret(&tu, "kernel", &spec).unwrap();
        let b = compile(&tu, "kernel", &spec).unwrap().run().unwrap();
        assert_eq!(a, b);
        // Different spec, different checksum: the constant is baked.
        let spec2 = SpecConfig::new().bind("__socrates_num_threads", 3i64);
        let c = compile(&tu, "kernel", &spec2).unwrap().run().unwrap();
        assert_ne!(a.checksum, c.checksum);
    }

    #[test]
    fn control_flow_zoo_matches() {
        let src = r#"
double acc[1];
int steps;
void kernel() {
  int i = 0;
  while (1) {
    if (i >= 10) break;
    if (i % 2 == 0) { i++; continue; }
    acc[0] += i;
    i++;
  }
  do { acc[0] = acc[0] * 2.0; steps++; } while (steps < 3);
  for (;;) { steps--; if (steps == 0) break; }
  acc[0] = steps > 0 ? acc[0] : -acc[0];
}
"#;
        let r = both(src, "kernel", &SpecConfig::new());
        assert_eq!(r.ret, RetValue::Void);
    }

    #[test]
    fn short_circuit_skips_counted_events() {
        let src = r#"
double A[2];
int hits;
void kernel() {
  A[0] = 1.0;
  if (0 && A[1] > 0.0) hits = 1;
  if (1 || A[1] > 0.0) hits = hits + 2;
  if (A[0] > 0.5 && A[1] >= 0.0) hits = hits + 4;
}
"#;
        let r = both(src, "kernel", &SpecConfig::new());
        // A[1] is only loaded by the third condition's right side.
        assert_eq!(r.loads, 2, "short-circuited loads must not happen");
    }

    #[test]
    fn casts_promotion_and_int_semantics_match() {
        let src = r#"
long out[6];
double f[1];
void kernel() {
  int big = 1 << 62;
  out[0] = big * 4;
  out[1] = -7 / 2;
  out[2] = -7 % 2;
  out[3] = (int)(7.9);
  out[4] = (int)(-7.9);
  out[5] = 13 >> 1;
  f[0] = (double)(1 / 2) + 0.25;
}
"#;
        let r = both(src, "kernel", &SpecConfig::new());
        // `-7.9` is a counted float negation; `+ 0.25` is the other flop.
        assert_eq!(r.flops, 2);
    }

    #[test]
    fn sqrt_counts_a_flop_and_matches() {
        let src = r#"
double out[1];
void kernel(double x) { out[0] = sqrt(x * x + 1.0); }
"#;
        let spec = SpecConfig::new().arg(3.0);
        let r = both(src, "kernel", &spec);
        assert_eq!(r.flops, 3); // mul, add, sqrt
        assert_eq!(r.stores, 1);
    }

    #[test]
    fn integer_return_value_is_preserved() {
        let src = "int kernel(int n) { int s = 0; for (int i = 1; i <= n; i++) s += i; return s; }";
        let spec = SpecConfig::new().arg(10i64);
        let r = both(src, "kernel", &spec);
        assert_eq!(r.ret, RetValue::I64(55));
    }

    #[test]
    fn float_return_bits_are_preserved() {
        let src = "double kernel() { return 0.1 + 0.2; }";
        let r = both(src, "kernel", &SpecConfig::new());
        assert_eq!(r.ret, RetValue::F64Bits((0.1f64 + 0.2f64).to_bits()));
    }

    #[test]
    fn division_by_zero_traps_in_both_engines() {
        let src = "int kernel(int n) { return 1 / n; }";
        let tu = minic::parse(src).unwrap();
        let spec = SpecConfig::new().arg(0i64);
        let a = interpret(&tu, "kernel", &spec).unwrap_err();
        let b = compile(&tu, "kernel", &spec).unwrap().run().unwrap_err();
        assert!(matches!(a, EngineError::Runtime { .. }));
        assert_eq!(a, b);
    }

    /// The immediate-operand ops a kernel's entry carries.
    fn immediates(k: &CompiledKernel) -> Vec<vm::Op> {
        k.entry
            .ops
            .iter()
            .copied()
            .filter(|op| matches!(op, vm::Op::AluIK(..) | vm::Op::CmpIK(..)))
            .collect()
    }

    #[test]
    fn ops_stay_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<vm::Op>(), 16);
    }

    #[test]
    fn immediate_integer_ops_wrap_and_shift_like_the_interpreter() {
        let src = r#"
long out[16];
void kernel(long x) {
  out[0] = x + 1;
  out[1] = x - 1;
  out[2] = x * 3;
  out[3] = x << 64;
  out[4] = x << 65;
  out[5] = x >> 64;
  out[6] = x >> -1;
  out[7] = x << -63;
  out[8] = x & 255;
  out[9] = x | 6;
  out[10] = x ^ -1;
  out[11] = x < 5;
  out[12] = x <= -9223372036854775807;
  out[13] = x == 9223372036854775807;
  out[14] = x != 0;
  out[15] = (x > -1) + (x >= 7) * 2;
}
"#;
        let tu = minic::parse(src).unwrap();
        let mut checksums = Vec::new();
        for x in [i64::MIN, i64::MIN + 1, -1, 0, 7, i64::MAX - 1, i64::MAX] {
            let spec = SpecConfig::new().arg(x);
            checksums.push(both(src, "kernel", &spec).checksum);
            let k = compile(&tu, "kernel", &spec).unwrap();
            let ops = immediates(&k);
            assert_eq!(ops.len(), 18, "one immediate per constant right operand");
            for k in [64, 65, -1, -63, i64::MIN + 1, i64::MAX] {
                assert!(
                    ops.iter().any(|op| matches!(op,
                        vm::Op::AluIK(_, _, _, v) | vm::Op::CmpIK(_, _, _, v) if *v == k)),
                    "no immediate {k} in {ops:?}"
                );
            }
        }
        checksums.dedup();
        assert_eq!(checksums.len(), 7, "each input stores different results");
    }

    #[test]
    fn a_constant_zero_divisor_still_traps_at_run_time() {
        for src in [
            "long kernel(long x) { return x / 0; }",
            "long kernel(long x) { return x % 0; }",
            "long kernel(long x) { return 1 / 0 + x; }",
        ] {
            let tu = minic::parse(src).unwrap();
            let spec = SpecConfig::new().arg(5i64);
            let k = compile(&tu, "kernel", &spec).expect("a zero divisor lowers");
            assert!(immediates(&k).is_empty(), "{src}: {:?}", k.entry.ops);
            let err = k.run().unwrap_err();
            assert_eq!(err, interpret(&tu, "kernel", &spec).unwrap_err());
            assert_eq!(err.to_string(), "runtime error: integer division by zero");
        }
        // A non-zero constant divisor runs.
        let r = both(
            "long kernel(long x) { return x / 2 + x % 3; }",
            "kernel",
            &SpecConfig::new().arg(-7i64),
        );
        assert_eq!(r.ret, RetValue::I64(-4));
    }

    #[test]
    fn a_kernel_lowers_the_same_under_specs_that_answer_its_reads_alike() {
        let src = r#"
double A[N];
int g;
void kernel(double a) {
#pragma omp parallel for num_threads(T)
  for (int i = 0; i < N; i++) A[i] = a + g;
}
"#;
        let tu = minic::parse(src).unwrap();
        let spec = SpecConfig::new().bind("N", 4i64).bind("T", 1i64).arg(0.5);
        let k = compile(&tu, "kernel", &spec).unwrap();
        assert!(k.lowers_same_under(&spec));
        // The pragma parameter is validation's lookup, not lowering's.
        let other_threads = spec.clone().bind("T", 8i64);
        assert!(k.lowers_same_under(&other_threads));
        assert!(k.same_program(&compile(&tu, "kernel", &other_threads).unwrap()));
        assert!(k.lowers_same_under(&SpecConfig::new().bind("N", 4i64).arg(0.5)));
        // A dimension, a shadowed global (a miss that now hits) and the
        // argument's bits are all read.
        for other in [
            spec.clone().bind("N", 5i64),
            spec.clone().bind("g", 2i64),
            SpecConfig::new().bind("N", 4i64).bind("T", 1i64).arg(-0.5),
        ] {
            assert!(!k.lowers_same_under(&other), "{other:?}");
            assert!(!k.same_program(&compile(&tu, "kernel", &other).unwrap()));
        }
    }

    #[test]
    fn unbound_pragma_fails_before_execution() {
        let src = r#"
double A[4];
void kernel() {
#pragma omp parallel for num_threads(__socrates_num_threads)
  for (int i = 0; i < 4; i++) A[i] = 1.0;
}
"#;
        let tu = minic::parse(src).unwrap();
        let spec = SpecConfig::new();
        let a = interpret(&tu, "kernel", &spec).unwrap_err();
        let b = compile(&tu, "kernel", &spec).unwrap_err();
        assert_eq!(a, b);
        assert!(matches!(a, EngineError::UnboundPragmaParam { .. }));
        let ok = SpecConfig::new().bind("__socrates_num_threads", 4i64);
        both(src, "kernel", &ok);
    }

    #[test]
    fn entry_arity_is_validated_up_front() {
        let tu = minic::parse("void kernel(double a) { }").unwrap();
        let err = compile(&tu, "kernel", &SpecConfig::new()).unwrap_err();
        assert!(matches!(
            err,
            EngineError::BadEntryArgs {
                expected: 1,
                got: 0,
                ..
            }
        ));
        let err = interpret(&tu, "missing", &SpecConfig::new()).unwrap_err();
        assert!(matches!(err, EngineError::UnknownEntry { .. }));
    }

    #[test]
    fn ternary_unifies_mixed_branch_types() {
        let src = r#"
double out[2];
void kernel(int n) {
  out[0] = n > 0 ? 1 : 2.5;
  out[1] = n > 0 ? 2.5 : 1;
}
"#;
        let r1 = both(src, "kernel", &SpecConfig::new().arg(1i64));
        let r2 = both(src, "kernel", &SpecConfig::new().arg(-1i64));
        assert_ne!(r1.checksum, r2.checksum);
    }

    #[test]
    fn decrementing_and_strided_loops_match() {
        let src = r#"
double A[N];
void init_array() { for (int i = 0; i < N; i++) A[i] = i * 1.0; }
void kernel() {
  for (int i = N - 1; i >= 0; i -= 2) A[i] = A[i] + 1.0;
}
"#;
        let spec = SpecConfig::new().bind("N", 9i64);
        let r = both(src, "kernel", &spec);
        assert_eq!(r.loads, 5);
    }

    #[test]
    fn loop_scoped_redeclaration_resets_to_zero() {
        let src = r#"
long out[3];
void kernel() {
  for (int i = 0; i < 3; i++) {
    long acc;
    acc = acc + i + 1;
    out[i] = acc;
  }
}
"#;
        both(src, "kernel", &SpecConfig::new());
    }
}
