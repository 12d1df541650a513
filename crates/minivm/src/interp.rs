//! The reference engine: a deliberately straightforward AST walker.
//!
//! Every execution rule here — evaluation order, type promotion,
//! wrapping integer arithmetic, the flop/load/store counting contract —
//! is the specification the bytecode engine must match bit for bit. The
//! walker resolves names by scanning scope vectors and re-visits the
//! tree on every iteration; it makes no attempt to be fast, which is
//! exactly what makes it a trustworthy differential oracle for the
//! compiled engine.

use crate::layout::{scalar_elem, ElemTy, Layout, Memory, Value};
use crate::spec::{SpecConfig, SpecReader};
use crate::{EngineError, ExecutionReport, RetValue};
use minic::{
    AssignOp, BinaryOp, Block, Expr, ForInit, PostfixOp, Stmt, TranslationUnit, Type, UnaryOp,
};

/// Runs `init_array` (when defined) followed by `entry` under `spec` and
/// reports the final state. Validation (entry existence, arity, pragma
/// bindings) has already happened in [`crate::interpret`].
pub(crate) fn run(
    tu: &TranslationUnit,
    entry: &str,
    spec: &SpecConfig,
) -> Result<ExecutionReport, EngineError> {
    let layout = Layout::build(tu, &SpecReader::new(spec))?;
    let mem = layout.new_memory();
    let mut interp = Interp {
        tu,
        spec,
        layout: &layout,
        mem,
        flops: 0,
        loads: 0,
        stores: 0,
        scopes: Vec::new(),
    };
    if tu.function("init_array").is_some() {
        interp.call("init_array", &[])?;
    }
    let args: Vec<Value> = spec.args().iter().map(|&a| Value::from(a)).collect();
    let ret = interp.call(entry, &args)?;
    Ok(ExecutionReport {
        checksum: layout.checksum(&interp.mem),
        flops: interp.flops,
        loads: interp.loads,
        stores: interp.stores,
        ret,
    })
}

/// One declared local variable.
struct Slot {
    name: String,
    ty: ElemTy,
    val: Value,
}

/// Statement outcome for control flow.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

/// A resolved assignment target.
enum Lv {
    Local(usize, usize),
    GlobalScalar(usize),
    Elem(usize, i64),
}

struct Interp<'a> {
    tu: &'a TranslationUnit,
    spec: &'a SpecConfig,
    layout: &'a Layout,
    mem: Memory,
    flops: u64,
    loads: u64,
    stores: u64,
    scopes: Vec<Vec<Slot>>,
}

impl<'a> Interp<'a> {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<RetValue, EngineError> {
        let f = self
            .tu
            .function(name)
            .ok_or_else(|| EngineError::UnknownEntry {
                name: name.to_string(),
            })?;
        if f.params.len() != args.len() {
            return Err(EngineError::BadEntryArgs {
                entry: name.to_string(),
                expected: f.params.len(),
                got: args.len(),
            });
        }
        let mut frame = Vec::with_capacity(f.params.len());
        for (p, &a) in f.params.iter().zip(args) {
            let ty = scalar_elem(&p.ty).ok_or_else(|| EngineError::Unsupported {
                what: format!("non-scalar parameter `{}` of `{name}`", p.name),
            })?;
            frame.push(Slot {
                name: p.name.clone(),
                ty,
                val: a.coerce(ty),
            });
        }
        let Some(body) = f.body.as_ref() else {
            return Err(EngineError::Unsupported {
                what: format!("`{name}` has no body"),
            });
        };
        let saved = std::mem::take(&mut self.scopes);
        self.scopes.push(frame);
        let flow = self.exec_stmts(&body.stmts);
        self.scopes = saved;
        let ret = match flow? {
            Flow::Return(v) => v,
            _ => None,
        };
        Ok(match &f.ret {
            Type::Void => RetValue::Void,
            ty => {
                let rt = scalar_elem(ty).ok_or_else(|| EngineError::Unsupported {
                    what: format!("return type of `{name}`"),
                })?;
                let v = ret.unwrap_or(Value::zero(rt)).coerce(rt);
                match v {
                    Value::I(x) => RetValue::I64(x),
                    Value::F(x) => RetValue::F64Bits(x.to_bits()),
                }
            }
        })
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, EngineError> {
        self.scopes.push(Vec::new());
        let flow = self.exec_stmts(&block.stmts);
        self.scopes.pop();
        flow
    }

    fn exec_stmts(&mut self, stmts: &[Stmt]) -> Result<Flow, EngineError> {
        for stmt in stmts {
            match self.exec(stmt)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, EngineError> {
        match stmt {
            Stmt::Decl(decls) => {
                for d in decls {
                    self.declare(d)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec_block(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        ret => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::DoWhile { body, cond } => {
                loop {
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Normal | Flow::Continue => {}
                        ret => return Ok(ret),
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(Vec::new());
                let flow = self.exec_for(init, cond, step, body);
                self.scopes.pop();
                flow
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Pragma(_) => Ok(Flow::Normal),
            Stmt::Block(b) => self.exec_block(b),
            Stmt::Empty => Ok(Flow::Normal),
        }
    }

    fn exec_for(
        &mut self,
        init: &Option<ForInit>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Block,
    ) -> Result<Flow, EngineError> {
        match init {
            Some(ForInit::Decl(decls)) => {
                for d in decls {
                    self.declare(d)?;
                }
            }
            Some(ForInit::Expr(e)) => {
                self.eval(e)?;
            }
            None => {}
        }
        loop {
            if let Some(c) = cond {
                if !self.eval(c)?.truthy() {
                    break;
                }
            }
            match self.exec_block(body)? {
                Flow::Break => break,
                Flow::Normal | Flow::Continue => {}
                ret => return Ok(ret),
            }
            if let Some(s) = step {
                self.eval(s)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn declare(&mut self, d: &minic::Decl) -> Result<(), EngineError> {
        if d.is_static {
            return Err(EngineError::Unsupported {
                what: format!("static local `{}`", d.name),
            });
        }
        let ty = scalar_elem(&d.ty).ok_or_else(|| EngineError::Unsupported {
            what: format!("non-scalar local `{}`", d.name),
        })?;
        let val = match &d.init {
            None => Value::zero(ty),
            Some(minic::Init::Expr(e)) => self.eval(e)?.coerce(ty),
            Some(minic::Init::List(_)) => {
                return Err(EngineError::Unsupported {
                    what: format!("list initializer on local `{}`", d.name),
                })
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "statements run only inside `call`, which pushes the parameter frame first"
        )]
        let scope = self.scopes.last_mut().expect("a scope is always active");
        scope.push(Slot {
            name: d.name.clone(),
            ty,
            val,
        });
        Ok(())
    }

    fn eval(&mut self, e: &Expr) -> Result<Value, EngineError> {
        match e {
            Expr::IntLit(v) => Ok(Value::I(*v)),
            Expr::FloatLit(v) => Ok(Value::F(*v)),
            Expr::StrLit(_) | Expr::CharLit(_) => Err(EngineError::Unsupported {
                what: "string/char literal in an executed expression".into(),
            }),
            Expr::Ident(n) => self.read_var(n),
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => match self.eval(expr)? {
                    Value::F(v) => {
                        self.flops += 1;
                        Ok(Value::F(-v))
                    }
                    Value::I(v) => Ok(Value::I(v.wrapping_neg())),
                },
                UnaryOp::Not => Ok(Value::I(i64::from(!self.eval(expr)?.truthy()))),
                UnaryOp::BitNot => match self.eval(expr)? {
                    Value::I(v) => Ok(Value::I(!v)),
                    Value::F(_) => Err(EngineError::Unsupported {
                        what: "bitwise not on a float".into(),
                    }),
                },
                UnaryOp::PreInc => self.incdec(expr, 1, true),
                UnaryOp::PreDec => self.incdec(expr, -1, true),
                UnaryOp::Deref | UnaryOp::AddrOf => Err(EngineError::Unsupported {
                    what: format!("unary `{}`", op.as_str()),
                }),
            },
            Expr::Postfix { op, expr } => match op {
                PostfixOp::Inc => self.incdec(expr, 1, false),
                PostfixOp::Dec => self.incdec(expr, -1, false),
            },
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::LogAnd => {
                    if !self.eval(lhs)?.truthy() {
                        Ok(Value::I(0))
                    } else {
                        Ok(Value::I(i64::from(self.eval(rhs)?.truthy())))
                    }
                }
                BinaryOp::LogOr => {
                    if self.eval(lhs)?.truthy() {
                        Ok(Value::I(1))
                    } else {
                        Ok(Value::I(i64::from(self.eval(rhs)?.truthy())))
                    }
                }
                _ => {
                    let a = self.eval(lhs)?;
                    let b = self.eval(rhs)?;
                    self.binary(*op, a, b)
                }
            },
            Expr::Assign { op, lhs, rhs } => self.assign(*op, lhs, rhs),
            Expr::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                let ty = unify(self.static_ty(then_expr), self.static_ty(else_expr));
                let taken = if self.eval(cond)?.truthy() {
                    then_expr
                } else {
                    else_expr
                };
                Ok(self.eval(taken)?.coerce(ty))
            }
            Expr::Call { callee, args } => match callee.as_str() {
                "sqrt" => {
                    if args.len() != 1 {
                        return Err(EngineError::Unsupported {
                            what: "sqrt arity".into(),
                        });
                    }
                    let v = self.eval(&args[0])?.as_f64();
                    self.flops += 1;
                    Ok(Value::F(v.sqrt()))
                }
                other => Err(EngineError::Unsupported {
                    what: format!("call to `{other}`"),
                }),
            },
            Expr::Index { .. } => {
                let (g, flat) = self.element(e)?;
                let def = &self.layout.globals[g];
                self.loads += 1;
                Ok(match def.elem {
                    ElemTy::I => Value::I(self.mem.i[def.base + flat as usize]),
                    ElemTy::F => Value::F(self.mem.f[def.base + flat as usize]),
                })
            }
            Expr::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                match scalar_elem(ty) {
                    Some(t) => Ok(v.coerce(t)),
                    None => Err(EngineError::Unsupported {
                        what: format!("cast to {ty:?}"),
                    }),
                }
            }
            Expr::Comma(a, b) => {
                self.eval(a)?;
                self.eval(b)
            }
        }
    }

    /// Arithmetic/comparison with C usual promotions: either-float makes
    /// the operation a (counted) double-precision one; pure-int uses
    /// wrapping 64-bit semantics.
    fn binary(&mut self, op: BinaryOp, a: Value, b: Value) -> Result<Value, EngineError> {
        use BinaryOp::*;
        let float = a.ty() == ElemTy::F || b.ty() == ElemTy::F;
        match op {
            Add | Sub | Mul | Div | Rem => {
                if float {
                    let (x, y) = (a.as_f64(), b.as_f64());
                    self.flops += 1;
                    Ok(Value::F(match op {
                        Add => x + y,
                        Sub => x - y,
                        Mul => x * y,
                        Div => x / y,
                        Rem => x % y,
                        _ => unreachable!(),
                    }))
                } else {
                    let (Value::I(x), Value::I(y)) = (a, b) else {
                        unreachable!()
                    };
                    if matches!(op, Div | Rem) && y == 0 {
                        return Err(EngineError::Runtime {
                            what: "integer division by zero".into(),
                        });
                    }
                    Ok(Value::I(match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        Div => x.wrapping_div(y),
                        Rem => x.wrapping_rem(y),
                        _ => unreachable!(),
                    }))
                }
            }
            Eq | Ne | Lt | Gt | Le | Ge => {
                let r = if float {
                    let (x, y) = (a.as_f64(), b.as_f64());
                    match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => x < y,
                        Gt => x > y,
                        Le => x <= y,
                        Ge => x >= y,
                        _ => unreachable!(),
                    }
                } else {
                    let (Value::I(x), Value::I(y)) = (a, b) else {
                        unreachable!()
                    };
                    match op {
                        Eq => x == y,
                        Ne => x != y,
                        Lt => x < y,
                        Gt => x > y,
                        Le => x <= y,
                        Ge => x >= y,
                        _ => unreachable!(),
                    }
                };
                Ok(Value::I(i64::from(r)))
            }
            BitAnd | BitOr | BitXor | Shl | Shr => {
                let (Value::I(x), Value::I(y)) = (a, b) else {
                    return Err(EngineError::Unsupported {
                        what: format!("`{}` on a float", op.as_str()),
                    });
                };
                Ok(Value::I(match op {
                    BitAnd => x & y,
                    BitOr => x | y,
                    BitXor => x ^ y,
                    Shl => x.wrapping_shl(y as u32),
                    Shr => x.wrapping_shr(y as u32),
                    _ => unreachable!(),
                }))
            }
            LogAnd | LogOr => unreachable!("short-circuit ops handled by eval"),
        }
    }

    fn assign(&mut self, op: AssignOp, lhs: &Expr, rhs: &Expr) -> Result<Value, EngineError> {
        let lv = self.lvalue(lhs)?;
        let ty = self.lv_ty(&lv);
        let val = if op == AssignOp::Assign {
            self.eval(rhs)?.coerce(ty)
        } else {
            let cur = self.lv_read(&lv);
            let r = self.eval(rhs)?;
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
                AssignOp::Assign => unreachable!(),
            };
            self.binary(bop, cur, r)?.coerce(ty)
        };
        self.lv_write(&lv, val);
        Ok(val)
    }

    fn incdec(&mut self, target: &Expr, delta: i64, pre: bool) -> Result<Value, EngineError> {
        let lv = self.lvalue(target)?;
        let ty = self.lv_ty(&lv);
        let old = self.lv_read(&lv);
        let new = self.binary(BinaryOp::Add, old, Value::I(delta))?.coerce(ty);
        self.lv_write(&lv, new);
        Ok(if pre { new } else { old })
    }

    fn lvalue(&mut self, e: &Expr) -> Result<Lv, EngineError> {
        match e {
            Expr::Ident(n) => {
                for (si, scope) in self.scopes.iter().enumerate().rev() {
                    for (vi, slot) in scope.iter().enumerate().rev() {
                        if slot.name == *n {
                            return Ok(Lv::Local(si, vi));
                        }
                    }
                }
                if self.spec.lookup(n).is_some() {
                    return Err(EngineError::Unsupported {
                        what: format!("assignment to specialization constant `{n}`"),
                    });
                }
                match self.layout.global(n) {
                    Some(g) if g.is_scalar() => Ok(Lv::GlobalScalar(self.layout.by_name[n])),
                    Some(_) => Err(EngineError::Unsupported {
                        what: format!("assignment to array `{n}`"),
                    }),
                    None => Err(EngineError::UnboundIdent { name: n.clone() }),
                }
            }
            Expr::Index { .. } => {
                let (g, flat) = self.element(e)?;
                Ok(Lv::Elem(g, flat))
            }
            other => Err(EngineError::Unsupported {
                what: format!("assignment target {other:?}"),
            }),
        }
    }

    fn lv_ty(&self, lv: &Lv) -> ElemTy {
        match lv {
            Lv::Local(s, v) => self.scopes[*s][*v].ty,
            Lv::GlobalScalar(g) | Lv::Elem(g, _) => self.layout.globals[*g].elem,
        }
    }

    /// Reads the current value of a target; element reads count a load.
    fn lv_read(&mut self, lv: &Lv) -> Value {
        match lv {
            Lv::Local(s, v) => self.scopes[*s][*v].val,
            Lv::GlobalScalar(g) => {
                let def = &self.layout.globals[*g];
                match def.elem {
                    ElemTy::I => Value::I(self.mem.i[def.base]),
                    ElemTy::F => Value::F(self.mem.f[def.base]),
                }
            }
            Lv::Elem(g, flat) => {
                let def = &self.layout.globals[*g];
                self.loads += 1;
                match def.elem {
                    ElemTy::I => Value::I(self.mem.i[def.base + *flat as usize]),
                    ElemTy::F => Value::F(self.mem.f[def.base + *flat as usize]),
                }
            }
        }
    }

    /// Writes a (pre-coerced) value; element writes count a store.
    fn lv_write(&mut self, lv: &Lv, val: Value) {
        match lv {
            Lv::Local(s, v) => self.scopes[*s][*v].val = val,
            Lv::GlobalScalar(g) => {
                let def = &self.layout.globals[*g];
                match (def.elem, val) {
                    (ElemTy::I, Value::I(x)) => self.mem.i[def.base] = x,
                    (ElemTy::F, Value::F(x)) => self.mem.f[def.base] = x,
                    _ => unreachable!("values are coerced before writes"),
                }
            }
            Lv::Elem(g, flat) => {
                let def = &self.layout.globals[*g];
                self.stores += 1;
                match (def.elem, val) {
                    (ElemTy::I, Value::I(x)) => self.mem.i[def.base + *flat as usize] = x,
                    (ElemTy::F, Value::F(x)) => self.mem.f[def.base + *flat as usize] = x,
                    _ => unreachable!("values are coerced before writes"),
                }
            }
        }
    }

    /// Resolves an index chain `A[i]...[k]` to (global index, flat
    /// offset), evaluating index expressions left to right and
    /// bounds-checking the flattened offset.
    fn element(&mut self, e: &Expr) -> Result<(usize, i64), EngineError> {
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
        let Some(&g) = self.layout.by_name.get(name) else {
            return Err(EngineError::UnboundIdent { name: name.clone() });
        };
        let def = &self.layout.globals[g];
        if def.dims.len() != indices.len() {
            return Err(EngineError::Unsupported {
                what: format!(
                    "`{name}` subscripted with {} of {} dimensions",
                    indices.len(),
                    def.dims.len()
                ),
            });
        }
        let (strides, len) = (def.strides.clone(), def.len);
        let mut flat = 0i64;
        for (idx, stride) in indices.iter().zip(&strides) {
            let v = match self.eval(idx)? {
                Value::I(v) => v,
                Value::F(_) => {
                    return Err(EngineError::Unsupported {
                        what: format!("non-integer subscript on `{name}`"),
                    })
                }
            };
            flat = flat.wrapping_add(v.wrapping_mul(*stride));
        }
        if flat < 0 || flat as usize >= len {
            return Err(EngineError::Runtime {
                what: format!("index {flat} out of bounds on `{name}` (len {len})"),
            });
        }
        Ok((g, flat))
    }

    fn read_var(&mut self, n: &str) -> Result<Value, EngineError> {
        for scope in self.scopes.iter().rev() {
            for slot in scope.iter().rev() {
                if slot.name == n {
                    return Ok(slot.val);
                }
            }
        }
        if let Some(v) = self.spec.lookup(n) {
            return Ok(Value::from(v));
        }
        match self.layout.global(n) {
            Some(g) if g.is_scalar() => Ok(match g.elem {
                ElemTy::I => Value::I(self.mem.i[g.base]),
                ElemTy::F => Value::F(self.mem.f[g.base]),
            }),
            Some(_) => Err(EngineError::Unsupported {
                what: format!("array `{n}` used as a value"),
            }),
            None => Err(EngineError::UnboundIdent {
                name: n.to_string(),
            }),
        }
    }

    /// Best-effort static type of an expression; used only to give the
    /// ternary operator the same result type in both engines. Unknown
    /// shapes default to integer (they fail later when evaluated).
    fn static_ty(&self, e: &Expr) -> ElemTy {
        match e {
            Expr::IntLit(_) | Expr::StrLit(_) | Expr::CharLit(_) => ElemTy::I,
            Expr::FloatLit(_) => ElemTy::F,
            Expr::Ident(n) => {
                for scope in self.scopes.iter().rev() {
                    for slot in scope.iter().rev() {
                        if slot.name == *n {
                            return slot.ty;
                        }
                    }
                }
                if let Some(v) = self.spec.lookup(n) {
                    return Value::from(v).ty();
                }
                match self.layout.global(n) {
                    Some(g) => g.elem,
                    None => ElemTy::I,
                }
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg | UnaryOp::PreInc | UnaryOp::PreDec => self.static_ty(expr),
                _ => ElemTy::I,
            },
            Expr::Postfix { expr, .. } => self.static_ty(expr),
            Expr::Binary { op, lhs, rhs } => match op {
                BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Rem => {
                    unify(self.static_ty(lhs), self.static_ty(rhs))
                }
                _ => ElemTy::I,
            },
            Expr::Assign { lhs, .. } => self.static_ty(lhs),
            Expr::Ternary {
                then_expr,
                else_expr,
                ..
            } => unify(self.static_ty(then_expr), self.static_ty(else_expr)),
            Expr::Call { callee, .. } => {
                if callee == "sqrt" {
                    ElemTy::F
                } else {
                    ElemTy::I
                }
            }
            Expr::Index { base, .. } => {
                let mut root = base.as_ref();
                while let Expr::Index { base, .. } = root {
                    root = base;
                }
                match root {
                    Expr::Ident(n) => self.layout.global(n).map_or(ElemTy::I, |g| g.elem),
                    _ => ElemTy::I,
                }
            }
            Expr::Cast { ty, .. } => scalar_elem(ty).unwrap_or(ElemTy::I),
            Expr::Comma(_, b) => self.static_ty(b),
        }
    }
}

fn unify(a: ElemTy, b: ElemTy) -> ElemTy {
    if a == ElemTy::F || b == ElemTy::F {
        ElemTy::F
    } else {
        ElemTy::I
    }
}
