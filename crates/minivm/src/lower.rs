//! Lowering: weaved mini-C AST → typed IR, with the spec baked in.
//!
//! The IR is fully typed (every node is statically `I` or `F`) and all
//! specialization constants — array dimensions, pragma parameters,
//! entry arguments — are folded into it. Constant folding is
//! *integer-only*: floating-point operations are never evaluated at
//! lowering time because every executed f64 op is a counted semantic
//! event the bytecode engine must report identically to the reference
//! interpreter. Integer work (loop bounds, index arithmetic, specialized
//! branches) is not counted, so folding it is where the compiled engine
//! earns its speedup without breaking bit-identity.
//!
//! Compound element assignments (`A[i][j] += e`) are rewritten here into
//! explicit temporaries — index once, load once, store once — so the
//! load/store/flop stream matches the interpreter's evaluation order
//! exactly.

use crate::layout::{scalar_elem, ElemTy, Layout, Value};
use crate::spec::{SpecConfig, SpecReader, SpecReads};
use crate::EngineError;
use minic::{
    AssignOp, BinaryOp, Block, Decl, Expr, ForInit, Function, Init, PostfixOp, Stmt,
    TranslationUnit, Type, UnaryOp,
};

/// Integer ALU operations (64-bit wrapping semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IAlu {
    Add,
    Sub,
    Mul,
    /// Traps on a zero divisor.
    Div,
    /// Traps on a zero divisor.
    Rem,
    And,
    Or,
    Xor,
    /// Self-masking shift (`wrapping_shl(b as u32)`).
    Shl,
    Shr,
}

/// Floating ALU operations; each execution counts one flop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FAlu {
    Add,
    Sub,
    Mul,
    Div,
    /// C `fmod` semantics (Rust `%` on f64).
    Rem,
}

/// Comparison predicates (shared by the int and float compare forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A typed IR expression. The suffix names the result type.
#[derive(Debug, Clone)]
pub(crate) enum IExpr {
    ConstI(i64),
    ConstF(f64),
    LocalI(u16),
    LocalF(u16),
    /// Scalar global read; the payload is the heap base offset.
    GlobI(u32),
    GlobF(u32),
    /// Array element read (counts a load).
    LoadI(u16, Box<IExpr>),
    LoadF(u16, Box<IExpr>),
    BinI(IAlu, Box<IExpr>, Box<IExpr>),
    /// Counts a flop.
    BinF(FAlu, Box<IExpr>, Box<IExpr>),
    CmpI(Pred, Box<IExpr>, Box<IExpr>),
    CmpF(Pred, Box<IExpr>, Box<IExpr>),
    NegI(Box<IExpr>),
    /// Counts a flop (float negation is an executed f64 op).
    NegF(Box<IExpr>),
    /// Logical not of a raw integer: `(x == 0) as i64`.
    NotI(Box<IExpr>),
    BitNotI(Box<IExpr>),
    /// `(x != 0.0) as i64` — float truthiness, uncounted.
    TruthyF(Box<IExpr>),
    I2F(Box<IExpr>),
    F2I(Box<IExpr>),
    /// Counts a flop.
    Sqrt(Box<IExpr>),
    /// Short-circuit; operands are raw integers, result is 0/1.
    LogAnd(Box<IExpr>, Box<IExpr>),
    LogOr(Box<IExpr>, Box<IExpr>),
    /// Only the taken branch is evaluated; both branches are pre-coerced
    /// to `ty`.
    Ternary {
        cond: Box<IExpr>,
        then_e: Box<IExpr>,
        else_e: Box<IExpr>,
        ty: ElemTy,
    },
}

impl IExpr {
    /// The static result type; total by construction.
    pub(crate) fn ty(&self) -> ElemTy {
        use IExpr::*;
        match self {
            ConstI(_) | LocalI(_) | GlobI(_) | LoadI(..) | BinI(..) | CmpI(..) | CmpF(..)
            | NegI(_) | NotI(_) | BitNotI(_) | TruthyF(_) | F2I(_) | LogAnd(..) | LogOr(..) => {
                ElemTy::I
            }
            ConstF(_) | LocalF(_) | GlobF(_) | LoadF(..) | BinF(..) | NegF(_) | I2F(_)
            | Sqrt(_) => ElemTy::F,
            Ternary { ty, .. } => *ty,
        }
    }
}

/// A typed IR statement.
#[derive(Debug, Clone)]
pub(crate) enum IStmt {
    /// Writes a local slot; the value is pre-coerced to the slot type.
    SetLocal(u16, ElemTy, IExpr),
    /// Writes a scalar global at a heap base offset (uncounted).
    SetGlob(u32, ElemTy, IExpr),
    /// Writes an array element (counts a store). The index is evaluated
    /// before the value, matching the interpreter's order.
    SetElem(u16, IExpr, IExpr),
    /// Evaluates for side effects (loads still count) and discards.
    Eval(IExpr),
    If {
        cond: IExpr,
        then_s: Vec<IStmt>,
        else_s: Vec<IStmt>,
    },
    While {
        cond: IExpr,
        body: Vec<IStmt>,
    },
    DoWhile {
        body: Vec<IStmt>,
        cond: IExpr,
    },
    For {
        init: Vec<IStmt>,
        cond: Option<IExpr>,
        step: Vec<IStmt>,
        body: Vec<IStmt>,
    },
    Return(Option<IExpr>),
    Break,
    Continue,
}

/// An array referenced by the IR: element type plus heap extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArrRef {
    pub(crate) base: u32,
    pub(crate) len: u32,
}

/// One lowered function body.
#[derive(Debug, Clone)]
pub(crate) struct LFunc {
    pub(crate) stmts: Vec<IStmt>,
    /// Parameter slots in call order (slot, type).
    pub(crate) params: Vec<(u16, ElemTy)>,
    /// Return type; `None` is void.
    pub(crate) ret: Option<ElemTy>,
    pub(crate) n_i: u16,
    pub(crate) n_f: u16,
}

/// A whole lowered program: layout, array table, `init_array` (when
/// present), the entry kernel, and the pre-coerced entry arguments,
/// plus everything the lowering read of its spec.
#[derive(Debug, Clone)]
pub(crate) struct LProgram {
    pub(crate) layout: Layout,
    pub(crate) arrays: Vec<ArrRef>,
    pub(crate) init: Option<LFunc>,
    pub(crate) entry: LFunc,
    pub(crate) entry_args: Vec<Value>,
    pub(crate) reads: SpecReads,
}

/// Lowers `init_array` + `entry` of `tu` under `spec`. Validation
/// (entry existence, arity, pragma bindings) has already happened in
/// [`crate::compile`]. Every spec lookup the lowering makes goes through
/// one [`SpecReader`], so the program records what it read; the
/// pragma lookups of validation are not among them.
pub(crate) fn lower_program(
    tu: &TranslationUnit,
    entry: &str,
    spec: &SpecConfig,
) -> Result<LProgram, EngineError> {
    let spec = SpecReader::new(spec);
    let layout = Layout::build(tu, &spec)?;
    let mut arrays = Vec::new();
    let mut arr_of_global = vec![u16::MAX; layout.globals.len()];
    for (gi, g) in layout.globals.iter().enumerate() {
        if !g.is_scalar() {
            arr_of_global[gi] = arrays.len() as u16;
            arrays.push(ArrRef {
                base: g.base as u32,
                len: g.len as u32,
            });
        }
    }
    let init = match tu.function("init_array") {
        Some(f) => Some(lower_function(f, &layout, &arr_of_global, &spec)?),
        None => None,
    };
    let entry_f = tu
        .function(entry)
        .ok_or_else(|| EngineError::UnknownEntry {
            name: entry.to_string(),
        })?;
    let lowered = lower_function(entry_f, &layout, &arr_of_global, &spec)?;
    let mut entry_args = Vec::with_capacity(spec.args().len());
    for (&(_, ty), &arg) in lowered.params.iter().zip(spec.args()) {
        entry_args.push(Value::from(arg).coerce(ty));
    }
    Ok(LProgram {
        layout,
        arrays,
        init,
        entry: lowered,
        entry_args,
        reads: spec.finish(),
    })
}

fn lower_function(
    f: &Function,
    layout: &Layout,
    arr_of_global: &[u16],
    spec: &SpecReader,
) -> Result<LFunc, EngineError> {
    let body = f.body.as_ref().ok_or_else(|| EngineError::Unsupported {
        what: format!("`{}` has no body", f.name),
    })?;
    let ret = match &f.ret {
        Type::Void => None,
        ty => Some(scalar_elem(ty).ok_or_else(|| EngineError::Unsupported {
            what: format!("return type of `{}`", f.name),
        })?),
    };
    let mut lw = Lowerer {
        layout,
        arr_of_global,
        spec,
        scopes: vec![Vec::new()],
        n_i: 0,
        n_f: 0,
    };
    let mut params = Vec::with_capacity(f.params.len());
    for p in &f.params {
        let ty = scalar_elem(&p.ty).ok_or_else(|| EngineError::Unsupported {
            what: format!("non-scalar parameter `{}` of `{}`", p.name, f.name),
        })?;
        let slot = lw.alloc(ty)?;
        lw.scopes[0].push((p.name.clone(), slot, ty));
        params.push((slot, ty));
    }
    let mut stmts = Vec::new();
    lw.block_stmts(&body.stmts, &mut stmts)?;
    Ok(LFunc {
        stmts,
        params,
        ret,
        n_i: lw.n_i,
        n_f: lw.n_f,
    })
}

/// A resolved write target.
enum Target {
    Local(u16, ElemTy),
    Glob(u32, ElemTy),
}

struct Lowerer<'a> {
    layout: &'a Layout,
    arr_of_global: &'a [u16],
    spec: &'a SpecReader<'a>,
    scopes: Vec<Vec<(String, u16, ElemTy)>>,
    n_i: u16,
    n_f: u16,
}

impl<'a> Lowerer<'a> {
    fn alloc(&mut self, ty: ElemTy) -> Result<u16, EngineError> {
        let n = match ty {
            ElemTy::I => &mut self.n_i,
            ElemTy::F => &mut self.n_f,
        };
        let slot = *n;
        *n = n.checked_add(1).ok_or_else(|| EngineError::Unsupported {
            what: "more than 65535 locals".into(),
        })?;
        Ok(slot)
    }

    fn block_stmts(&mut self, stmts: &[Stmt], out: &mut Vec<IStmt>) -> Result<(), EngineError> {
        for s in stmts {
            self.stmt(s, out)?;
        }
        Ok(())
    }

    fn scoped_block(&mut self, block: &Block) -> Result<Vec<IStmt>, EngineError> {
        self.scopes.push(Vec::new());
        let mut out = Vec::new();
        let r = self.block_stmts(&block.stmts, &mut out);
        self.scopes.pop();
        r?;
        Ok(out)
    }

    fn stmt(&mut self, stmt: &Stmt, out: &mut Vec<IStmt>) -> Result<(), EngineError> {
        match stmt {
            Stmt::Decl(decls) => {
                for d in decls {
                    self.declare(d, out)?;
                }
                Ok(())
            }
            Stmt::Expr(e) => self.stmt_expr(e, out),
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.cond(cond)?;
                // Dead-branch elimination: a spec-constant condition has
                // no side effects, so only the taken branch survives —
                // exactly what the interpreter executes.
                if let IExpr::ConstI(v) = c {
                    if v != 0 {
                        out.extend(self.scoped_block(then_branch)?);
                    } else if let Some(e) = else_branch {
                        out.extend(self.scoped_block(e)?);
                    }
                    return Ok(());
                }
                let then_s = self.scoped_block(then_branch)?;
                let else_s = match else_branch {
                    Some(e) => self.scoped_block(e)?,
                    None => Vec::new(),
                };
                out.push(IStmt::If {
                    cond: c,
                    then_s,
                    else_s,
                });
                Ok(())
            }
            Stmt::While { cond, body } => {
                let c = self.cond(cond)?;
                if matches!(c, IExpr::ConstI(0)) {
                    return Ok(());
                }
                let body = self.scoped_block(body)?;
                out.push(IStmt::While { cond: c, body });
                Ok(())
            }
            Stmt::DoWhile { body, cond } => {
                let body = self.scoped_block(body)?;
                let cond = self.cond(cond)?;
                out.push(IStmt::DoWhile { body, cond });
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(Vec::new());
                let r = self.lower_for(init, cond, step, body, out);
                self.scopes.pop();
                r
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.expr(e)?),
                    None => None,
                };
                out.push(IStmt::Return(v));
                Ok(())
            }
            Stmt::Break => {
                out.push(IStmt::Break);
                Ok(())
            }
            Stmt::Continue => {
                out.push(IStmt::Continue);
                Ok(())
            }
            Stmt::Pragma(_) | Stmt::Empty => Ok(()),
            Stmt::Block(b) => {
                out.extend(self.scoped_block(b)?);
                Ok(())
            }
        }
    }

    fn lower_for(
        &mut self,
        init: &Option<ForInit>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Block,
        out: &mut Vec<IStmt>,
    ) -> Result<(), EngineError> {
        let mut init_s = Vec::new();
        match init {
            Some(ForInit::Decl(decls)) => {
                for d in decls {
                    self.declare(d, &mut init_s)?;
                }
            }
            Some(ForInit::Expr(e)) => self.stmt_expr(e, &mut init_s)?,
            None => {}
        }
        let c = match cond {
            Some(c) => Some(self.cond(c)?),
            None => None,
        };
        if let Some(IExpr::ConstI(0)) = c {
            // The loop body never runs; the init still does.
            out.extend(init_s);
            return Ok(());
        }
        let body_s = self.scoped_block(body)?;
        let mut step_s = Vec::new();
        if let Some(s) = step {
            self.stmt_expr(s, &mut step_s)?;
        }
        out.push(IStmt::For {
            init: init_s,
            cond: c,
            step: step_s,
            body: body_s,
        });
        Ok(())
    }

    fn declare(&mut self, d: &Decl, out: &mut Vec<IStmt>) -> Result<(), EngineError> {
        if d.is_static {
            return Err(EngineError::Unsupported {
                what: format!("static local `{}`", d.name),
            });
        }
        let ty = scalar_elem(&d.ty).ok_or_else(|| EngineError::Unsupported {
            what: format!("non-scalar local `{}`", d.name),
        })?;
        let value = match &d.init {
            None => match ty {
                ElemTy::I => IExpr::ConstI(0),
                ElemTy::F => IExpr::ConstF(0.0),
            },
            Some(Init::Expr(e)) => {
                let v = self.expr(e)?;
                coerce(v, ty)
            }
            Some(Init::List(_)) => {
                return Err(EngineError::Unsupported {
                    what: format!("list initializer on local `{}`", d.name),
                })
            }
        };
        let slot = self.alloc(ty)?;
        // The write precedes the name binding, so `int x = x;` reads any
        // outer `x` — same as the interpreter, which evaluates the
        // initializer before pushing the slot.
        out.push(IStmt::SetLocal(slot, ty, value));
        #[expect(
            clippy::expect_used,
            reason = "lowering starts in the parameter scope and pops only the scopes it pushes"
        )]
        let scope = self.scopes.last_mut().expect("a scope is always active");
        scope.push((d.name.clone(), slot, ty));
        Ok(())
    }

    /// Lowers an expression in statement position: assignments and
    /// inc/dec become stores, anything else is evaluated and discarded.
    fn stmt_expr(&mut self, e: &Expr, out: &mut Vec<IStmt>) -> Result<(), EngineError> {
        match e {
            Expr::Assign { op, lhs, rhs } => self.assign(*op, lhs, rhs, out),
            Expr::Unary {
                op: UnaryOp::PreInc,
                expr,
            }
            | Expr::Postfix {
                op: PostfixOp::Inc,
                expr,
            } => self.incdec(expr, 1, out),
            Expr::Unary {
                op: UnaryOp::PreDec,
                expr,
            }
            | Expr::Postfix {
                op: PostfixOp::Dec,
                expr,
            } => self.incdec(expr, -1, out),
            Expr::Comma(a, b) => {
                self.stmt_expr(a, out)?;
                self.stmt_expr(b, out)
            }
            other => {
                let v = self.expr(other)?;
                // A fully folded constant has no observable effects.
                if !matches!(v, IExpr::ConstI(_) | IExpr::ConstF(_)) {
                    out.push(IStmt::Eval(v));
                }
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        op: AssignOp,
        lhs: &Expr,
        rhs: &Expr,
        out: &mut Vec<IStmt>,
    ) -> Result<(), EngineError> {
        match lhs {
            Expr::Ident(_) => {
                let target = self.write_target(lhs)?;
                let (ty, cur) = match &target {
                    Target::Local(slot, ty) => (*ty, local(*slot, *ty)),
                    Target::Glob(base, ty) => (*ty, glob(*base, *ty)),
                };
                let rhs_v = self.expr(rhs)?;
                let value = if op == AssignOp::Assign {
                    coerce(rhs_v, ty)
                } else {
                    coerce(compound(op, cur, rhs_v)?, ty)
                };
                out.push(match target {
                    Target::Local(slot, ty) => IStmt::SetLocal(slot, ty, value),
                    Target::Glob(base, ty) => IStmt::SetGlob(base, ty, value),
                });
                Ok(())
            }
            Expr::Index { .. } => {
                let (arr, elem, idx) = self.flat_index(lhs)?;
                if op == AssignOp::Assign {
                    // Index before value — the interpreter resolves the
                    // lvalue first.
                    let rhs_v = self.expr(rhs)?;
                    out.push(IStmt::SetElem(arr, idx, coerce(rhs_v, elem)));
                } else {
                    // Rewrite `A[i] op= e` as: idx once, load once (one
                    // counted load), combine, store once (one counted
                    // store) — the interpreter's exact event order.
                    let t_idx = self.alloc(ElemTy::I)?;
                    out.push(IStmt::SetLocal(t_idx, ElemTy::I, idx));
                    let t_cur = self.alloc(elem)?;
                    let load = match elem {
                        ElemTy::I => IExpr::LoadI(arr, Box::new(IExpr::LocalI(t_idx))),
                        ElemTy::F => IExpr::LoadF(arr, Box::new(IExpr::LocalI(t_idx))),
                    };
                    out.push(IStmt::SetLocal(t_cur, elem, load));
                    let rhs_v = self.expr(rhs)?;
                    let value = coerce(compound(op, local(t_cur, elem), rhs_v)?, elem);
                    out.push(IStmt::SetElem(arr, IExpr::LocalI(t_idx), value));
                }
                Ok(())
            }
            other => Err(EngineError::Unsupported {
                what: format!("assignment target {other:?}"),
            }),
        }
    }

    fn incdec(
        &mut self,
        target: &Expr,
        delta: i64,
        out: &mut Vec<IStmt>,
    ) -> Result<(), EngineError> {
        // `x++` in statement position is exactly `x += 1`.
        self.assign(AssignOp::Add, target, &Expr::IntLit(delta), out)
    }

    fn write_target(&mut self, e: &Expr) -> Result<Target, EngineError> {
        let Expr::Ident(n) = e else { unreachable!() };
        if let Some(&(_, slot, ty)) = self
            .scopes
            .iter()
            .rev()
            .flat_map(|s| s.iter().rev())
            .find(|(name, _, _)| name == n)
        {
            return Ok(Target::Local(slot, ty));
        }
        if self.spec.lookup(n).is_some() {
            return Err(EngineError::Unsupported {
                what: format!("assignment to specialization constant `{n}`"),
            });
        }
        match self.layout.global(n) {
            Some(g) if g.is_scalar() => Ok(Target::Glob(g.base as u32, g.elem)),
            Some(_) => Err(EngineError::Unsupported {
                what: format!("assignment to array `{n}`"),
            }),
            None => Err(EngineError::UnboundIdent { name: n.clone() }),
        }
    }

    /// Lowers an index chain `A[i]...[k]` to (array ref, element type,
    /// folded flat-offset expression).
    fn flat_index(&mut self, e: &Expr) -> Result<(u16, ElemTy, IExpr), EngineError> {
        let mut indices: Vec<&Expr> = Vec::new();
        let mut base = e;
        while let Expr::Index { base: b, index } = base {
            indices.push(index);
            base = b;
        }
        indices.reverse();
        let Expr::Ident(name) = base else {
            return Err(EngineError::Unsupported {
                what: format!("subscript of non-identifier {base:?}"),
            });
        };
        let Some(&gi) = self.layout.by_name.get(name) else {
            return Err(EngineError::UnboundIdent { name: name.clone() });
        };
        let g = &self.layout.globals[gi];
        if g.dims.len() != indices.len() {
            return Err(EngineError::Unsupported {
                what: format!(
                    "`{name}` subscripted with {} of {} dimensions",
                    indices.len(),
                    g.dims.len()
                ),
            });
        }
        let (elem, strides) = (g.elem, g.strides.clone());
        let arr = self.arr_of_global[gi];
        let mut flat: Option<IExpr> = None;
        for (idx, stride) in indices.iter().zip(&strides) {
            let iv = self.expr(idx)?;
            if iv.ty() != ElemTy::I {
                return Err(EngineError::Unsupported {
                    what: format!("non-integer subscript on `{name}`"),
                });
            }
            let term = fold_bini(IAlu::Mul, iv, IExpr::ConstI(*stride));
            flat = Some(match flat {
                None => term,
                Some(acc) => fold_bini(IAlu::Add, acc, term),
            });
        }
        let flat = flat.ok_or_else(|| EngineError::Unsupported {
            what: format!("`{name}` used without a subscript"),
        })?;
        Ok((arr, elem, flat))
    }

    /// Lowers a branch/loop condition: float conditions get an uncounted
    /// truthiness test so every condition is a raw integer.
    fn cond(&mut self, e: &Expr) -> Result<IExpr, EngineError> {
        let v = self.expr(e)?;
        Ok(as_truth(v))
    }

    fn expr(&mut self, e: &Expr) -> Result<IExpr, EngineError> {
        match e {
            Expr::IntLit(v) => Ok(IExpr::ConstI(*v)),
            Expr::FloatLit(v) => Ok(IExpr::ConstF(*v)),
            Expr::StrLit(_) | Expr::CharLit(_) => Err(EngineError::Unsupported {
                what: "string/char literal in an executed expression".into(),
            }),
            Expr::Ident(n) => self.read_ident(n),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    let v = self.expr(expr)?;
                    Ok(match v.ty() {
                        ElemTy::I => fold_negi(v),
                        ElemTy::F => IExpr::NegF(Box::new(v)),
                    })
                }
                UnaryOp::Not => {
                    let v = self.expr(expr)?;
                    Ok(fold_noti(as_truth(v)))
                }
                UnaryOp::BitNot => {
                    let v = self.expr(expr)?;
                    if v.ty() != ElemTy::I {
                        return Err(EngineError::Unsupported {
                            what: "bitwise not on a float".into(),
                        });
                    }
                    Ok(match v {
                        IExpr::ConstI(x) => IExpr::ConstI(!x),
                        v => IExpr::BitNotI(Box::new(v)),
                    })
                }
                UnaryOp::PreInc | UnaryOp::PreDec => Err(EngineError::Unsupported {
                    what: "increment/decrement used as a value".into(),
                }),
                UnaryOp::Deref | UnaryOp::AddrOf => Err(EngineError::Unsupported {
                    what: format!("unary `{}`", op.as_str()),
                }),
            },
            Expr::Postfix { .. } => Err(EngineError::Unsupported {
                what: "increment/decrement used as a value".into(),
            }),
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::LogAnd | BinaryOp::LogOr => {
                    let a = as_truth(self.expr(lhs)?);
                    let b = as_truth(self.expr(rhs)?);
                    // Fold a constant left side: short-circuiting a
                    // constant drops no counted events.
                    if let IExpr::ConstI(av) = a {
                        let taken = (av != 0) == matches!(op, BinaryOp::LogAnd);
                        return Ok(if taken {
                            fold_truthy_norm(b)
                        } else {
                            IExpr::ConstI(i64::from(matches!(op, BinaryOp::LogOr)))
                        });
                    }
                    Ok(match op {
                        BinaryOp::LogAnd => IExpr::LogAnd(Box::new(a), Box::new(b)),
                        _ => IExpr::LogOr(Box::new(a), Box::new(b)),
                    })
                }
                _ => {
                    let a = self.expr(lhs)?;
                    let b = self.expr(rhs)?;
                    binary(*op, a, b)
                }
            },
            Expr::Assign { .. } => Err(EngineError::Unsupported {
                what: "assignment used as a value".into(),
            }),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let c = self.cond(cond)?;
                let t = self.expr(then_expr)?;
                let f = self.expr(else_expr)?;
                let ty = unify(t.ty(), f.ty());
                let (t, f) = (coerce(t, ty), coerce(f, ty));
                if let IExpr::ConstI(v) = c {
                    return Ok(if v != 0 { t } else { f });
                }
                Ok(IExpr::Ternary {
                    cond: Box::new(c),
                    then_e: Box::new(t),
                    else_e: Box::new(f),
                    ty,
                })
            }
            Expr::Call { callee, args } => match callee.as_str() {
                "sqrt" => {
                    if args.len() != 1 {
                        return Err(EngineError::Unsupported {
                            what: "sqrt arity".into(),
                        });
                    }
                    let v = self.expr(&args[0])?;
                    Ok(IExpr::Sqrt(Box::new(coerce(v, ElemTy::F))))
                }
                other => Err(EngineError::Unsupported {
                    what: format!("call to `{other}`"),
                }),
            },
            Expr::Index { .. } => {
                let (arr, elem, idx) = self.flat_index(e)?;
                Ok(match elem {
                    ElemTy::I => IExpr::LoadI(arr, Box::new(idx)),
                    ElemTy::F => IExpr::LoadF(arr, Box::new(idx)),
                })
            }
            Expr::Cast { ty, expr } => {
                let v = self.expr(expr)?;
                match scalar_elem(ty) {
                    Some(t) => Ok(coerce(v, t)),
                    None => Err(EngineError::Unsupported {
                        what: format!("cast to {ty:?}"),
                    }),
                }
            }
            Expr::Comma(..) => Err(EngineError::Unsupported {
                what: "comma expression used as a value".into(),
            }),
        }
    }

    /// Reads an identifier: locals, then spec constants (which therefore
    /// shadow globals and fold to literals), then scalar globals.
    fn read_ident(&mut self, n: &str) -> Result<IExpr, EngineError> {
        if let Some(&(_, slot, ty)) = self
            .scopes
            .iter()
            .rev()
            .flat_map(|s| s.iter().rev())
            .find(|(name, _, _)| name == n)
        {
            return Ok(local(slot, ty));
        }
        if let Some(v) = self.spec.lookup(n) {
            return Ok(match Value::from(v) {
                Value::I(x) => IExpr::ConstI(x),
                Value::F(x) => IExpr::ConstF(x),
            });
        }
        match self.layout.global(n) {
            Some(g) if g.is_scalar() => Ok(glob(g.base as u32, g.elem)),
            Some(_) => Err(EngineError::Unsupported {
                what: format!("array `{n}` used as a value"),
            }),
            None => Err(EngineError::UnboundIdent {
                name: n.to_string(),
            }),
        }
    }
}

fn local(slot: u16, ty: ElemTy) -> IExpr {
    match ty {
        ElemTy::I => IExpr::LocalI(slot),
        ElemTy::F => IExpr::LocalF(slot),
    }
}

fn glob(base: u32, ty: ElemTy) -> IExpr {
    match ty {
        ElemTy::I => IExpr::GlobI(base),
        ElemTy::F => IExpr::GlobF(base),
    }
}

fn unify(a: ElemTy, b: ElemTy) -> ElemTy {
    if a == ElemTy::F || b == ElemTy::F {
        ElemTy::F
    } else {
        ElemTy::I
    }
}

/// Inserts a conversion node when the type differs. Int→float folds on
/// constants (the conversion itself is uncounted); float ops never fold.
fn coerce(e: IExpr, want: ElemTy) -> IExpr {
    match (e.ty(), want) {
        (ElemTy::I, ElemTy::F) => match e {
            IExpr::ConstI(v) => IExpr::ConstF(v as f64),
            e => IExpr::I2F(Box::new(e)),
        },
        (ElemTy::F, ElemTy::I) => match e {
            IExpr::ConstF(v) => IExpr::ConstI(v as i64),
            e => IExpr::F2I(Box::new(e)),
        },
        _ => e,
    }
}

/// Raw truthiness operand: integers pass through, floats get an
/// uncounted `!= 0.0` test (which folds only through `NotI` shapes, so a
/// `ConstF` condition stays a runtime test — it never occurs after
/// folding anyway, because float constants are never created by folding
/// float ops).
fn as_truth(e: IExpr) -> IExpr {
    match e.ty() {
        ElemTy::I => e,
        ElemTy::F => match e {
            IExpr::ConstF(v) => IExpr::ConstI(i64::from(v != 0.0)),
            e => IExpr::TruthyF(Box::new(e)),
        },
    }
}

/// Normalizes a raw-integer truth value to 0/1 without adding ops for
/// shapes that are already 0/1.
fn fold_truthy_norm(e: IExpr) -> IExpr {
    match e {
        IExpr::ConstI(v) => IExpr::ConstI(i64::from(v != 0)),
        IExpr::CmpI(..)
        | IExpr::CmpF(..)
        | IExpr::NotI(_)
        | IExpr::TruthyF(_)
        | IExpr::LogAnd(..)
        | IExpr::LogOr(..) => e,
        e => IExpr::NotI(Box::new(IExpr::NotI(Box::new(e)))),
    }
}

fn compound(op: AssignOp, cur: IExpr, rhs: IExpr) -> Result<IExpr, EngineError> {
    let bop = match op {
        AssignOp::Add => BinaryOp::Add,
        AssignOp::Sub => BinaryOp::Sub,
        AssignOp::Mul => BinaryOp::Mul,
        AssignOp::Div => BinaryOp::Div,
        AssignOp::Rem => BinaryOp::Rem,
        AssignOp::And => BinaryOp::BitAnd,
        AssignOp::Or => BinaryOp::BitOr,
        AssignOp::Xor => BinaryOp::BitXor,
        AssignOp::Shl => BinaryOp::Shl,
        AssignOp::Shr => BinaryOp::Shr,
        AssignOp::Assign => unreachable!("plain assignment handled by the caller"),
    };
    binary(bop, cur, rhs)
}

/// Applies the usual promotions and builds (or folds) the typed op node.
fn binary(op: BinaryOp, a: IExpr, b: IExpr) -> Result<IExpr, EngineError> {
    use BinaryOp::*;
    let float = a.ty() == ElemTy::F || b.ty() == ElemTy::F;
    match op {
        Add | Sub | Mul | Div | Rem => {
            if float {
                let fop = match op {
                    Add => FAlu::Add,
                    Sub => FAlu::Sub,
                    Mul => FAlu::Mul,
                    Div => FAlu::Div,
                    _ => FAlu::Rem,
                };
                Ok(IExpr::BinF(
                    fop,
                    Box::new(coerce(a, ElemTy::F)),
                    Box::new(coerce(b, ElemTy::F)),
                ))
            } else {
                let iop = match op {
                    Add => IAlu::Add,
                    Sub => IAlu::Sub,
                    Mul => IAlu::Mul,
                    Div => IAlu::Div,
                    _ => IAlu::Rem,
                };
                Ok(fold_bini(iop, a, b))
            }
        }
        Eq | Ne | Lt | Gt | Le | Ge => {
            let pred = match op {
                Eq => Pred::Eq,
                Ne => Pred::Ne,
                Lt => Pred::Lt,
                Gt => Pred::Gt,
                Le => Pred::Le,
                _ => Pred::Ge,
            };
            if float {
                Ok(IExpr::CmpF(
                    pred,
                    Box::new(coerce(a, ElemTy::F)),
                    Box::new(coerce(b, ElemTy::F)),
                ))
            } else if let (IExpr::ConstI(x), IExpr::ConstI(y)) = (&a, &b) {
                let r = match pred {
                    Pred::Eq => x == y,
                    Pred::Ne => x != y,
                    Pred::Lt => x < y,
                    Pred::Le => x <= y,
                    Pred::Gt => x > y,
                    Pred::Ge => x >= y,
                };
                Ok(IExpr::ConstI(i64::from(r)))
            } else {
                Ok(IExpr::CmpI(pred, Box::new(a), Box::new(b)))
            }
        }
        BitAnd | BitOr | BitXor | Shl | Shr => {
            if float {
                return Err(EngineError::Unsupported {
                    what: format!("`{}` on a float", op.as_str()),
                });
            }
            let iop = match op {
                BitAnd => IAlu::And,
                BitOr => IAlu::Or,
                BitXor => IAlu::Xor,
                Shl => IAlu::Shl,
                _ => IAlu::Shr,
            };
            Ok(fold_bini(iop, a, b))
        }
        LogAnd | LogOr => unreachable!("short-circuit ops handled by the caller"),
    }
}

/// Folds an integer ALU op. Both-constant operands evaluate with the
/// runtime's exact wrapping semantics (except a constant zero divisor,
/// which stays a runtime trap); identity operands that are themselves
/// constants (`x * 1`, `x + 0`) are dropped — dropping a constant never
/// drops a counted event.
fn fold_bini(op: IAlu, a: IExpr, b: IExpr) -> IExpr {
    if let (IExpr::ConstI(x), IExpr::ConstI(y)) = (&a, &b) {
        let (x, y) = (*x, *y);
        if !(matches!(op, IAlu::Div | IAlu::Rem) && y == 0) {
            return IExpr::ConstI(match op {
                IAlu::Add => x.wrapping_add(y),
                IAlu::Sub => x.wrapping_sub(y),
                IAlu::Mul => x.wrapping_mul(y),
                IAlu::Div => x.wrapping_div(y),
                IAlu::Rem => x.wrapping_rem(y),
                IAlu::And => x & y,
                IAlu::Or => x | y,
                IAlu::Xor => x ^ y,
                IAlu::Shl => x.wrapping_shl(y as u32),
                IAlu::Shr => x.wrapping_shr(y as u32),
            });
        }
    }
    match (op, &a, &b) {
        (IAlu::Mul, IExpr::ConstI(1), _) => b,
        (IAlu::Mul, _, IExpr::ConstI(1)) => a,
        (IAlu::Add, IExpr::ConstI(0), _) => b,
        (IAlu::Add, _, IExpr::ConstI(0))
        | (IAlu::Sub, _, IExpr::ConstI(0))
        | (IAlu::Shl, _, IExpr::ConstI(0))
        | (IAlu::Shr, _, IExpr::ConstI(0)) => a,
        _ => IExpr::BinI(op, Box::new(a), Box::new(b)),
    }
}

fn fold_negi(e: IExpr) -> IExpr {
    match e {
        IExpr::ConstI(v) => IExpr::ConstI(v.wrapping_neg()),
        e => IExpr::NegI(Box::new(e)),
    }
}

fn fold_noti(e: IExpr) -> IExpr {
    match e {
        IExpr::ConstI(v) => IExpr::ConstI(i64::from(v == 0)),
        e => IExpr::NotI(Box::new(e)),
    }
}
