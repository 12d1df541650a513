//! Specialization constants: the complete constant environment a kernel
//! is lowered (or interpreted) against.
//!
//! Both engines resolve identifiers in the same order — local variables,
//! then specialization constants, then globals — so a [`SpecConfig`] is
//! the *entire* configuration surface of a compiled artifact: array
//! dimensions, OpenMP pragma parameters such as `__socrates_num_threads`,
//! and the entry function's actual arguments are all baked in at
//! lowering time. Two executions with equal specs are bit-identical;
//! [`SpecConfig::fingerprint`] is the cache key half that captures this.

use crate::EngineError;
use minic::{Block, Pragma, Stmt, TranslationUnit};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// A specialization-constant value: mini-C scalars are two-typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecValue {
    /// An integer constant (array dimensions, thread counts, ...).
    I64(i64),
    /// A floating constant (entry arguments such as `alpha`).
    F64(f64),
}

impl From<i64> for SpecValue {
    fn from(v: i64) -> Self {
        SpecValue::I64(v)
    }
}

impl From<usize> for SpecValue {
    fn from(v: usize) -> Self {
        SpecValue::I64(v as i64)
    }
}

impl From<u32> for SpecValue {
    fn from(v: u32) -> Self {
        SpecValue::I64(i64::from(v))
    }
}

impl From<f64> for SpecValue {
    fn from(v: f64) -> Self {
        SpecValue::F64(v)
    }
}

/// The constant environment a kernel is specialized against: named
/// constants plus the entry function's actual arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecConfig {
    consts: BTreeMap<String, SpecValue>,
    args: Vec<SpecValue>,
}

impl SpecConfig {
    /// An empty spec (no constants, no entry arguments).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style: binds a named constant.
    #[must_use]
    pub fn bind(mut self, name: impl Into<String>, value: impl Into<SpecValue>) -> Self {
        self.set(name, value);
        self
    }

    /// Binds a named constant in place.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<SpecValue>) {
        self.consts.insert(name.into(), value.into());
    }

    /// Builder-style: appends an entry-function argument.
    #[must_use]
    pub fn arg(mut self, value: impl Into<SpecValue>) -> Self {
        self.args.push(value.into());
        self
    }

    /// The entry-function arguments, in call order.
    pub fn args(&self) -> &[SpecValue] {
        &self.args
    }

    /// Looks up a named constant.
    pub fn lookup(&self, name: &str) -> Option<SpecValue> {
        self.consts.get(name).copied()
    }

    /// FNV-1a fingerprint over the canonical encoding of the spec; equal
    /// fingerprints mean equal constant environments, so this is the
    /// configuration half of a compiled-kernel cache key.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for (name, value) in &self.consts {
            h.write(name.as_bytes());
            h.write(&[0xff]);
            hash_value(&mut h, *value);
        }
        h.write(&[0xfe]);
        for value in &self.args {
            hash_value(&mut h, *value);
        }
        h.finish()
    }
}

/// Whether two values are the same constant: same type, and a float
/// by its bits, so `0.0` and `-0.0` differ.
fn same_value(a: SpecValue, b: SpecValue) -> bool {
    match (a, b) {
        (SpecValue::I64(x), SpecValue::I64(y)) => x == y,
        (SpecValue::F64(x), SpecValue::F64(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

/// The view of a [`SpecConfig`] that lowering reads through. It records
/// every name it is asked about with the answer it gave, a miss
/// included, so the lowered kernel can tell which other specs it would
/// have been lowered the same under.
pub(crate) struct SpecReader<'a> {
    spec: &'a SpecConfig,
    /// One entry per distinct name, in first-read order: a spec answers
    /// a name the same way every time it is asked.
    reads: RefCell<Vec<(Box<str>, Option<SpecValue>)>>,
}

impl<'a> SpecReader<'a> {
    pub(crate) fn new(spec: &'a SpecConfig) -> Self {
        SpecReader {
            spec,
            reads: RefCell::new(Vec::new()),
        }
    }

    /// [`SpecConfig::lookup`], recorded.
    pub(crate) fn lookup(&self, name: &str) -> Option<SpecValue> {
        let value = self.spec.lookup(name);
        let mut reads = self.reads.borrow_mut();
        if !reads.iter().any(|(read, _)| **read == *name) {
            reads.push((name.into(), value));
        }
        value
    }

    /// The integer bound to `name`, recorded as the full answer (a
    /// float binding is a different answer from a miss).
    pub(crate) fn int(&self, name: &str) -> Option<i64> {
        match self.lookup(name) {
            Some(SpecValue::I64(v)) => Some(v),
            _ => None,
        }
    }

    /// The entry arguments; [`SpecReader::finish`] records all of them.
    pub(crate) fn args(&self) -> &'a [SpecValue] {
        self.spec.args()
    }

    /// Everything the lowering read.
    pub(crate) fn finish(self) -> SpecReads {
        SpecReads {
            consts: self.reads.into_inner(),
            args: self.spec.args().to_vec(),
        }
    }
}

/// What one lowering read of its spec: each name it looked up with the
/// answer it got, and the entry arguments.
#[derive(Debug, Clone)]
pub(crate) struct SpecReads {
    consts: Vec<(Box<str>, Option<SpecValue>)>,
    args: Vec<SpecValue>,
}

impl SpecReads {
    /// Whether `spec` gives every recorded lookup the same answer and
    /// passes the same arguments, comparing floats by their bits.
    pub(crate) fn answered_same_by(&self, spec: &SpecConfig) -> bool {
        let same = |a: Option<SpecValue>, b: Option<SpecValue>| match (a, b) {
            (Some(a), Some(b)) => same_value(a, b),
            (a, b) => a.is_none() && b.is_none(),
        };
        self.args.len() == spec.args().len()
            && self
                .args
                .iter()
                .zip(spec.args())
                .all(|(&a, &b)| same_value(a, b))
            && self
                .consts
                .iter()
                .all(|(name, answer)| same(*answer, spec.lookup(name)))
    }
}

fn hash_value(h: &mut Fnv, value: SpecValue) {
    match value {
        SpecValue::I64(v) => {
            h.write(&[0x01]);
            h.write(&v.to_le_bytes());
        }
        SpecValue::F64(v) => {
            h.write(&[0x02]);
            h.write(&v.to_bits().to_le_bytes());
        }
    }
}

/// Incremental FNV-1a (64-bit) hasher; the crate-wide fingerprint and
/// checksum primitive.
#[derive(Debug, Clone)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Validates that every OpenMP pragma parameter referenced by `function`
/// (both function-attached pragmas and statement pragmas in its body) is
/// either an integer literal or bound in `spec`.
///
/// This is the lowering-time check both engines share, so an unbound
/// `num_threads(PARAM)` fails fast with
/// [`EngineError::UnboundPragmaParam`] instead of surfacing as a late
/// lookup failure mid-execution.
pub fn validate_pragmas(
    tu: &TranslationUnit,
    function: &str,
    spec: &SpecConfig,
) -> Result<(), EngineError> {
    let Some(f) = tu.function(function) else {
        return Ok(());
    };
    for p in &f.pragmas {
        check_pragma(p, function, spec)?;
    }
    if let Some(body) = &f.body {
        check_block(body, function, spec)?;
    }
    Ok(())
}

fn check_block(block: &Block, function: &str, spec: &SpecConfig) -> Result<(), EngineError> {
    for stmt in &block.stmts {
        check_stmt(stmt, function, spec)?;
    }
    Ok(())
}

fn check_stmt(stmt: &Stmt, function: &str, spec: &SpecConfig) -> Result<(), EngineError> {
    match stmt {
        Stmt::Pragma(p) => check_pragma(p, function, spec),
        Stmt::Block(b) => check_block(b, function, spec),
        Stmt::If {
            then_branch,
            else_branch,
            ..
        } => {
            check_block(then_branch, function, spec)?;
            if let Some(e) = else_branch {
                check_block(e, function, spec)?;
            }
            Ok(())
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            check_block(body, function, spec)
        }
        _ => Ok(()),
    }
}

fn check_pragma(p: &Pragma, function: &str, spec: &SpecConfig) -> Result<(), EngineError> {
    if let Some(omp) = p.as_omp() {
        if let Some(nt) = omp.num_threads() {
            let param = nt.trim();
            if param.parse::<i64>().is_err() && spec.lookup(param).is_none() {
                return Err(EngineError::UnboundPragmaParam {
                    function: function.to_string(),
                    param: param.to_string(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_tracks_bindings_and_args() {
        let a = SpecConfig::new().bind("N", 4i64).arg(1.5);
        let b = SpecConfig::new().bind("N", 4i64).arg(1.5);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), a.clone().bind("N", 5i64).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().arg(2i64).fingerprint());
        // An i64 and an f64 with the same numeric value are distinct.
        let i = SpecConfig::new().bind("N", 1i64);
        let f = SpecConfig::new().bind("N", 1.0);
        assert_ne!(i.fingerprint(), f.fingerprint());
    }

    #[test]
    fn a_reader_records_each_name_once_with_its_answer_and_the_args() {
        let spec = SpecConfig::new().bind("N", 4i64).bind("X", 0.0).arg(1.5);
        let reader = SpecReader::new(&spec);
        assert_eq!(reader.int("N"), Some(4));
        assert_eq!(reader.int("X"), None, "a float is not an int");
        assert_eq!(reader.lookup("g"), None);
        assert_eq!(reader.int("N"), Some(4));
        let reads = reader.finish();
        assert_eq!(reads.consts.len(), 3, "{reads:?}");
        assert!(reads.answered_same_by(&spec));
        // Unread bindings do not matter; every read and argument does,
        // floats by their bits and misses included.
        assert!(reads.answered_same_by(&spec.clone().bind("unread", 1i64)));
        let differ = [
            spec.clone().bind("N", 5i64),
            spec.clone().bind("X", -0.0),
            spec.clone().bind("X", 0i64),
            spec.clone().bind("g", 0i64),
            SpecConfig::new().bind("N", 4i64).bind("X", 0.0).arg(-1.5),
            SpecConfig::new().bind("N", 4i64).bind("X", 0.0),
            spec.clone().arg(1.5),
        ];
        for other in differ {
            assert!(!reads.answered_same_by(&other), "{other:?}");
        }
    }

    #[test]
    fn unbound_pragma_param_is_rejected() {
        let src = "void k() {\n#pragma omp parallel for num_threads(NT)\nfor (int i = 0; i < 4; i++) { }\n}";
        let tu = minic::parse(src).unwrap();
        let err = validate_pragmas(&tu, "k", &SpecConfig::new()).unwrap_err();
        assert!(
            matches!(err, EngineError::UnboundPragmaParam { ref function, ref param }
                if function == "k" && param == "NT")
        );
        // Binding the parameter or using a literal passes.
        assert!(validate_pragmas(&tu, "k", &SpecConfig::new().bind("NT", 8i64)).is_ok());
        let lit = minic::parse(
            "void k() {\n#pragma omp parallel for num_threads(8)\nfor (int i = 0; i < 4; i++) { }\n}",
        )
        .unwrap();
        assert!(validate_pragmas(&lit, "k", &SpecConfig::new()).is_ok());
    }
}
