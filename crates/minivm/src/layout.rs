//! Global memory layout shared by both execution engines.
//!
//! The layout resolves every file-scope declaration against the
//! specialization constants: array dimensions become concrete row-major
//! extents, scalar globals become single slots, and constant
//! initializers (the weaver's `int __socrates_version = 0;`) are
//! evaluated once. Both engines allocate [`Memory`] from the same
//! [`Layout`], and the final-state checksum walks globals in declaration
//! order — so checksum equality is structural, not coincidental.

use crate::spec::{Fnv, SpecReader, SpecValue};
use crate::EngineError;
use minic::{Expr, Init, Item, TranslationUnit, Type, UnaryOp};
use std::collections::HashMap;

/// The two scalar types of the mini-C machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ElemTy {
    /// 64-bit signed integer (`char`/`int`/`unsigned`/`long`).
    I,
    /// 64-bit IEEE float (`float`/`double` — both run double-precision).
    F,
}

/// A runtime scalar value.
///
/// Equality is exact: floats compare by their bits, so `0.0 != -0.0`
/// and a NaN equals itself. A value baked into a program (a scalar
/// initializer, an entry argument) is part of what the program is, and
/// the checksum hashes bits too.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Value {
    I(i64),
    F(f64),
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (*self, *other) {
            (Value::I(a), Value::I(b)) => a == b,
            (Value::F(a), Value::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Value {
    pub(crate) fn zero(ty: ElemTy) -> Value {
        match ty {
            ElemTy::I => Value::I(0),
            ElemTy::F => Value::F(0.0),
        }
    }

    pub(crate) fn ty(self) -> ElemTy {
        match self {
            Value::I(_) => ElemTy::I,
            Value::F(_) => ElemTy::F,
        }
    }

    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Value::I(v) => v as f64,
            Value::F(v) => v,
        }
    }

    pub(crate) fn truthy(self) -> bool {
        match self {
            Value::I(v) => v != 0,
            Value::F(v) => v != 0.0,
        }
    }

    /// Coerces to a declared slot type (C assignment conversion; the
    /// float-to-int direction uses Rust's saturating `as`).
    pub(crate) fn coerce(self, ty: ElemTy) -> Value {
        match (ty, self) {
            (ElemTy::I, Value::F(v)) => Value::I(v as i64),
            (ElemTy::F, Value::I(v)) => Value::F(v as f64),
            _ => self,
        }
    }
}

impl From<SpecValue> for Value {
    fn from(v: SpecValue) -> Value {
        match v {
            SpecValue::I64(x) => Value::I(x),
            SpecValue::F64(x) => Value::F(x),
        }
    }
}

/// One resolved file-scope declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GlobalDef {
    pub(crate) elem: ElemTy,
    /// Base offset into the heap of `elem`'s type.
    pub(crate) base: usize,
    /// Total element count (1 for scalars).
    pub(crate) len: usize,
    /// Array extents in declaration order; empty for scalars.
    pub(crate) dims: Vec<usize>,
    /// Row-major strides matching `dims`.
    pub(crate) strides: Vec<i64>,
    /// Constant initializer (scalars only); arrays zero-initialize.
    pub(crate) init: Option<Value>,
}

impl GlobalDef {
    pub(crate) fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }
}

/// The resolved global memory map of a translation unit under a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Layout {
    pub(crate) globals: Vec<GlobalDef>,
    pub(crate) by_name: HashMap<String, usize>,
    pub(crate) i_len: usize,
    pub(crate) f_len: usize,
}

/// Flat typed heaps holding every global; both engines execute against
/// this exact representation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memory {
    pub(crate) i: Vec<i64>,
    pub(crate) f: Vec<f64>,
}

impl Layout {
    /// Resolves every global declaration of `tu` against `spec`.
    pub(crate) fn build(tu: &TranslationUnit, spec: &SpecReader) -> Result<Layout, EngineError> {
        let mut layout = Layout {
            globals: Vec::new(),
            by_name: HashMap::new(),
            i_len: 0,
            f_len: 0,
        };
        for item in &tu.items {
            let Item::Global(decls) = item else { continue };
            for decl in decls {
                let (elem, dims) = resolve_type(&decl.ty, &decl.name, spec)?;
                let mut len = 1usize;
                for &d in &dims {
                    len = len.checked_mul(d).ok_or_else(|| EngineError::Unsupported {
                        what: format!("array `{}` overflows the address space", decl.name),
                    })?;
                }
                if len > u32::MAX as usize / 2 {
                    return Err(EngineError::Unsupported {
                        what: format!("array `{}` is too large ({len} elements)", decl.name),
                    });
                }
                let init = match &decl.init {
                    None => None,
                    Some(Init::Expr(e)) if dims.is_empty() => {
                        Some(const_init(e, elem, &decl.name, spec)?)
                    }
                    Some(_) => {
                        return Err(EngineError::Unsupported {
                            what: format!("initializer on global `{}`", decl.name),
                        })
                    }
                };
                let mut strides = vec![1i64; dims.len()];
                for k in (0..dims.len().saturating_sub(1)).rev() {
                    strides[k] = strides[k + 1] * dims[k + 1] as i64;
                }
                let base = match elem {
                    ElemTy::I => {
                        let b = layout.i_len;
                        layout.i_len += len;
                        b
                    }
                    ElemTy::F => {
                        let b = layout.f_len;
                        layout.f_len += len;
                        b
                    }
                };
                if layout
                    .by_name
                    .insert(decl.name.clone(), layout.globals.len())
                    .is_some()
                {
                    return Err(EngineError::Unsupported {
                        what: format!("duplicate global `{}`", decl.name),
                    });
                }
                layout.globals.push(GlobalDef {
                    elem,
                    base,
                    len,
                    dims,
                    strides,
                    init,
                });
            }
        }
        Ok(layout)
    }

    pub(crate) fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.by_name.get(name).map(|&i| &self.globals[i])
    }

    /// Allocates a fresh memory image (zeroed, initializers applied).
    pub(crate) fn new_memory(&self) -> Memory {
        let mut mem = Memory::default();
        self.reset_memory(&mut mem);
        mem
    }

    /// Resets an existing memory image in place (buffer-reusing path).
    pub(crate) fn reset_memory(&self, mem: &mut Memory) {
        mem.i.clear();
        mem.i.resize(self.i_len, 0);
        mem.f.clear();
        mem.f.resize(self.f_len, 0.0);
        for g in &self.globals {
            if let Some(init) = g.init {
                match (g.elem, init.coerce(g.elem)) {
                    (ElemTy::I, Value::I(v)) => mem.i[g.base] = v,
                    (ElemTy::F, Value::F(v)) => mem.f[g.base] = v,
                    _ => unreachable!("coerce returns the requested type"),
                }
            }
        }
    }

    /// FNV-1a checksum over every global's final value, in declaration
    /// order, element-row-major, hashing exact bit patterns.
    pub(crate) fn checksum(&self, mem: &Memory) -> u64 {
        let mut h = Fnv::new();
        for g in &self.globals {
            match g.elem {
                ElemTy::I => {
                    for &v in &mem.i[g.base..g.base + g.len] {
                        h.write(&v.to_le_bytes());
                    }
                }
                ElemTy::F => {
                    for &v in &mem.f[g.base..g.base + g.len] {
                        h.write(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        h.finish()
    }
}

/// Maps a scalar mini-C type onto the two-type machine model.
pub(crate) fn scalar_elem(ty: &Type) -> Option<ElemTy> {
    match ty {
        Type::Char | Type::Int | Type::UInt | Type::Long => Some(ElemTy::I),
        Type::Float | Type::Double => Some(ElemTy::F),
        _ => None,
    }
}

/// Resolves a declared type to (element type, concrete extents).
fn resolve_type(
    ty: &Type,
    name: &str,
    spec: &SpecReader,
) -> Result<(ElemTy, Vec<usize>), EngineError> {
    let mut dims_exprs: Vec<&Expr> = Vec::new();
    let mut base = ty;
    while let Type::Array(inner, dims) = base {
        dims_exprs.extend(dims.iter());
        base = inner;
    }
    let elem = scalar_elem(base).ok_or_else(|| EngineError::Unsupported {
        what: format!("type of global `{name}`"),
    })?;
    let mut dims = Vec::with_capacity(dims_exprs.len());
    for e in dims_exprs {
        let v = eval_dim(e, name, spec)?;
        if v <= 0 {
            return Err(EngineError::Unsupported {
                what: format!("non-positive dimension {v} on global `{name}`"),
            });
        }
        dims.push(v as usize);
    }
    Ok((elem, dims))
}

fn eval_dim(e: &Expr, name: &str, spec: &SpecReader) -> Result<i64, EngineError> {
    e.eval_int(&|n| spec.int(n))
        .ok_or_else(|| match first_unbound_ident(e, spec) {
            Some(unbound) => EngineError::UnboundIdent { name: unbound },
            None => EngineError::Unsupported {
                what: format!("dimension of global `{name}` is not a constant expression"),
            },
        })
}

/// Finds the first identifier in `e` that the spec does not bind to an
/// integer — the root cause of an unevaluable dimension.
fn first_unbound_ident(e: &Expr, spec: &SpecReader) -> Option<String> {
    match e {
        Expr::Ident(n) => (spec.int(n).is_none()).then(|| n.clone()),
        Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => first_unbound_ident(expr, spec),
        Expr::Binary { lhs, rhs, .. } => {
            first_unbound_ident(lhs, spec).or_else(|| first_unbound_ident(rhs, spec))
        }
        _ => None,
    }
}

/// Evaluates a constant scalar initializer.
fn const_init(e: &Expr, elem: ElemTy, name: &str, spec: &SpecReader) -> Result<Value, EngineError> {
    let v = match e {
        Expr::FloatLit(v) => Some(Value::F(*v)),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match expr.as_ref() {
            Expr::FloatLit(v) => Some(Value::F(-v)),
            _ => e.eval_int(&|n| spec.int(n)).map(Value::I),
        },
        _ => e.eval_int(&|n| spec.int(n)).map(Value::I),
    };
    match v {
        Some(v) => Ok(v.coerce(elem)),
        None => Err(EngineError::Unsupported {
            what: format!("non-constant initializer on global `{name}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecConfig;

    #[test]
    fn layout_resolves_dims_through_the_spec() {
        let tu = minic::parse("static double A[N][M];\nstatic int t = 3;").unwrap();
        let spec = SpecConfig::new().bind("N", 4i64).bind("M", 5i64);
        let l = Layout::build(&tu, &SpecReader::new(&spec)).unwrap();
        let a = l.global("A").unwrap();
        assert_eq!(a.dims, vec![4, 5]);
        assert_eq!(a.strides, vec![5, 1]);
        assert_eq!(a.len, 20);
        let t = l.global("t").unwrap();
        assert!(t.is_scalar());
        let mem = l.new_memory();
        assert_eq!(mem.f.len(), 20);
        assert_eq!(mem.i[t.base], 3);
    }

    #[test]
    fn unbound_dimension_names_the_culprit() {
        let tu = minic::parse("static double A[N];").unwrap();
        let err = Layout::build(&tu, &SpecReader::new(&SpecConfig::new())).unwrap_err();
        assert!(matches!(err, EngineError::UnboundIdent { ref name } if name == "N"));
    }

    #[test]
    fn checksum_tracks_every_global_in_order() {
        let tu = minic::parse("static double A[2];\nstatic int b;").unwrap();
        let l = Layout::build(&tu, &SpecReader::new(&SpecConfig::new())).unwrap();
        let mut m1 = l.new_memory();
        let c0 = l.checksum(&m1);
        m1.f[1] = 1.0;
        assert_ne!(l.checksum(&m1), c0);
        m1.f[1] = 0.0;
        m1.i[0] = 7;
        assert_ne!(l.checksum(&m1), c0);
        l.reset_memory(&mut m1);
        assert_eq!(l.checksum(&m1), c0);
    }
}
