//! The bytecode engine: typed IR → register bytecode → dispatch loop.
//!
//! Code generation is a single pass over the IR with jump back-patching.
//! Each function gets two register files (i64 and f64); named locals
//! occupy the low slots and expression temporaries stack above them,
//! reset per statement. The dispatch loop is a plain safe-indexed
//! `match` over ops with zero per-step allocation; the counted semantic
//! events (flops, loads, stores) are incremented at exactly the ops the
//! reference interpreter counts, which is what makes the two engines'
//! [`ExecutionReport`]s bit-identical.

use crate::layout::{ElemTy, Layout, Memory, Value};
use crate::lower::{ArrRef, FAlu, IAlu, IExpr, IStmt, LFunc, LProgram, Pred};
use crate::spec::{SpecConfig, SpecReads};
use crate::{EngineError, ExecutionReport, RetValue};

/// One bytecode instruction. Register operands are `u16` indices into
/// the current frame's typed register files; `u32` operands are heap
/// base offsets (globals) or jump targets.
///
/// Every operand is an integer, so equality is exact: a float
/// immediate is kept as its IEEE bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// `ri[d] = imm`
    LdcI(u16, i64),
    /// `rf[d] = f64::from_bits(imm)`
    LdcF(u16, u64),
    MovI(u16, u16),
    MovF(u16, u16),
    /// `rf[d] = ri[s] as f64` (uncounted cast)
    CvtIF(u16, u16),
    /// `ri[d] = rf[s] as i64` (saturating, uncounted)
    CvtFI(u16, u16),
    /// Wrapping 64-bit integer ALU; `Div`/`Rem` trap on zero.
    AluI(IAlu, u16, u16, u16),
    /// `ri[d] = ri[a] op imm`: [`Op::AluI`] with a constant right
    /// operand. Never `Div`/`Rem`, which keep the register form so a
    /// zero divisor traps where it always did.
    AluIK(IAlu, u16, u16, i64),
    /// f64 ALU; counts one flop.
    AluF(FAlu, u16, u16, u16),
    CmpI(Pred, u16, u16, u16),
    /// `ri[d] = (ri[a] p imm) as i64`
    CmpIK(Pred, u16, u16, i64),
    /// Float compare into an i-reg (uncounted).
    CmpF(Pred, u16, u16, u16),
    NegI(u16, u16),
    /// Counts one flop.
    NegF(u16, u16),
    /// `ri[d] = (ri[s] == 0) as i64`
    NotI(u16, u16),
    BitNotI(u16, u16),
    /// `ri[d] = (ri[s] != 0) as i64`
    TruthyI(u16, u16),
    /// `ri[d] = (rf[s] != 0.0) as i64`
    TruthyF(u16, u16),
    /// Counts one flop.
    SqrtF(u16, u16),
    LdGlobI(u16, u32),
    LdGlobF(u16, u32),
    StGlobI(u32, u16),
    StGlobF(u32, u16),
    /// `(d, arr, idx)` — bounds-checked element read; counts one load.
    LdElemI(u16, u16, u16),
    LdElemF(u16, u16, u16),
    /// `(arr, idx, src)` — bounds-checked element write; counts one store.
    StElemI(u16, u16, u16),
    StElemF(u16, u16, u16),
    Jmp(u32),
    /// Jump when `ri[c] == 0`.
    Jz(u16, u32),
    Jnz(u16, u32),
    RetV,
    RetI(u16),
    RetF(u16),
}

/// One compiled function: ops plus register-file extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CodeFn {
    pub(crate) ops: Vec<Op>,
    pub(crate) params: Vec<(u16, ElemTy)>,
    pub(crate) n_i: u16,
    pub(crate) n_f: u16,
}

/// A fully specialized, executable kernel: layout, array table,
/// `init_array`, the entry function, and the baked entry arguments.
///
/// Everything configuration-dependent was resolved at lowering time, so
/// running the same `CompiledKernel` twice is deterministic and
/// bit-identical to interpreting the source under the same spec. A run
/// reads nothing but these fields, so two kernels that are
/// [`same_program`](CompiledKernel::same_program) run to equal results,
/// errors included, whatever specs they were lowered from.
///
/// The kernel also keeps what its lowering read of the spec, which is
/// what [`lowers_same_under`](CompiledKernel::lowers_same_under)
/// checks; the record is not part of the program.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    pub(crate) layout: Layout,
    pub(crate) arrays: Vec<ArrRef>,
    pub(crate) init: Option<CodeFn>,
    pub(crate) entry: CodeFn,
    pub(crate) entry_args: Vec<Value>,
    reads: SpecReads,
}

/// Reusable execution state (memory image + register files). Reusing a
/// `VmState` across runs avoids re-allocating the heap per invocation —
/// the fleet hot path runs thousands of kernel executions per round.
#[derive(Debug, Clone, Default)]
pub struct VmState {
    pub(crate) mem: Memory,
    ri: Vec<i64>,
    rf: Vec<f64>,
}

impl VmState {
    /// Creates an empty state; buffers grow to fit on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

struct Counts {
    flops: u64,
    loads: u64,
    stores: u64,
}

/// Per-cell initialization bitmaps for checked execution. Scalar globals
/// are pre-marked (they hold a defined value — zero or their constant
/// initializer — before any statement runs); array cells only become
/// initialized when a store writes them, so a checked load of a
/// never-written cell is a trap even though the unchecked engines would
/// deterministically read the zero fill.
struct Shadow {
    init_i: Vec<bool>,
    init_f: Vec<bool>,
}

impl Shadow {
    /// A zero-capacity shadow for the unchecked path; `exec::<false>`
    /// never touches it.
    fn empty() -> Shadow {
        Shadow {
            init_i: Vec::new(),
            init_f: Vec::new(),
        }
    }

    fn for_layout(layout: &Layout) -> Shadow {
        let mut sh = Shadow {
            init_i: vec![false; layout.i_len],
            init_f: vec![false; layout.f_len],
        };
        for g in &layout.globals {
            if g.is_scalar() {
                match g.elem {
                    ElemTy::I => sh.init_i[g.base] = true,
                    ElemTy::F => sh.init_f[g.base] = true,
                }
            }
        }
        sh
    }
}

impl CompiledKernel {
    /// Runs the kernel with a fresh [`VmState`].
    pub fn run(&self) -> Result<ExecutionReport, EngineError> {
        self.run_with(&mut VmState::new())
    }

    /// Runs the kernel reusing `vm`'s buffers: resets globals to their
    /// initial image, executes `init_array` (when present) and then the
    /// entry function with the baked arguments, and reports the final
    /// checksum plus semantic event counts.
    pub fn run_with(&self, vm: &mut VmState) -> Result<ExecutionReport, EngineError> {
        self.run_impl::<false>(vm, &mut Shadow::empty())
    }

    /// Runs the kernel in checked ("sanitizer") mode with a fresh state.
    ///
    /// Checked mode traps three fault classes: out-of-bounds element
    /// accesses and zero divisors (which the unchecked engines already
    /// trap) plus reads of array cells no store has written. When no
    /// trap fires, the report is bit-identical to
    /// [`CompiledKernel::run`] — the shadow bitmaps observe execution
    /// without perturbing it. The DSE prune reads a clean checked run
    /// as a feasible specialization.
    pub fn run_checked(&self) -> Result<ExecutionReport, EngineError> {
        self.run_checked_with(&mut VmState::new())
    }

    /// Checked-mode counterpart of [`CompiledKernel::run_with`].
    pub fn run_checked_with(&self, vm: &mut VmState) -> Result<ExecutionReport, EngineError> {
        self.run_impl::<true>(vm, &mut Shadow::for_layout(&self.layout))
    }

    fn run_impl<const CHECKED: bool>(
        &self,
        vm: &mut VmState,
        shadow: &mut Shadow,
    ) -> Result<ExecutionReport, EngineError> {
        self.layout.reset_memory(&mut vm.mem);
        let need_i = self.init.as_ref().map_or(0, |f| f.n_i).max(self.entry.n_i) as usize;
        let need_f = self.init.as_ref().map_or(0, |f| f.n_f).max(self.entry.n_f) as usize;
        if vm.ri.len() < need_i {
            vm.ri.resize(need_i, 0);
        }
        if vm.rf.len() < need_f {
            vm.rf.resize(need_f, 0.0);
        }
        let mut counts = Counts {
            flops: 0,
            loads: 0,
            stores: 0,
        };
        if let Some(init) = &self.init {
            self.exec::<CHECKED>(init, vm, &mut counts, shadow)?;
        }
        for (&(slot, _), &arg) in self.entry.params.iter().zip(&self.entry_args) {
            match arg {
                Value::I(v) => vm.ri[slot as usize] = v,
                Value::F(v) => vm.rf[slot as usize] = v,
            }
        }
        let ret = self.exec::<CHECKED>(&self.entry, vm, &mut counts, shadow)?;
        Ok(ExecutionReport {
            checksum: self.layout.checksum(&vm.mem),
            flops: counts.flops,
            loads: counts.loads,
            stores: counts.stores,
            ret,
        })
    }

    /// Whether `other` is exactly this program: the same layout
    /// (globals, name map, heap sizes), array table, `init_array` and
    /// entry code, and entry arguments. Every baked `f64` (code
    /// immediates, scalar initializers, entry arguments) is compared by
    /// its bits, so `0.0` and `-0.0` are different programs, as their
    /// checksums are. When this holds, [`run`](CompiledKernel::run)
    /// returns the same result for both. Nothing compares programs at
    /// run time: this is the test oracle for
    /// [`lowers_same_under`](CompiledKernel::lowers_same_under).
    pub fn same_program(&self, other: &CompiledKernel) -> bool {
        self.layout == other.layout
            && self.arrays == other.arrays
            && self.init == other.init
            && self.entry == other.entry
            && self.entry_args == other.entry_args
    }

    /// Whether lowering the same program text under `spec` would give
    /// exactly this kernel's program: `spec` answers every lookup this
    /// kernel's lowering made (array dimensions, constants read in code,
    /// and the names that missed and fell through to globals) the same
    /// way, and passes the same entry arguments, comparing floats by
    /// their bits. Lowering is a deterministic function of the program
    /// text and those answers, so for the program this kernel was
    /// lowered from, this implies
    /// [`same_program`](CompiledKernel::same_program) with a fresh
    /// [`crate::compile`] under `spec`. It says nothing about another
    /// program text, and it does not validate `spec`: the pragma
    /// lookups of [`crate::validate`] are not recorded.
    pub fn lowers_same_under(&self, spec: &SpecConfig) -> bool {
        self.reads.answered_same_by(spec)
    }

    /// Total instruction count across all compiled functions (an
    /// observability hook for tests and benches).
    pub fn op_count(&self) -> usize {
        self.init.as_ref().map_or(0, |f| f.ops.len()) + self.entry.ops.len()
    }

    fn exec<const CHECKED: bool>(
        &self,
        code: &CodeFn,
        vm: &mut VmState,
        c: &mut Counts,
        shadow: &mut Shadow,
    ) -> Result<RetValue, EngineError> {
        let ops = &code.ops[..];
        let ri = &mut vm.ri;
        let rf = &mut vm.rf;
        let mem = &mut vm.mem;
        let mut pc = 0usize;
        loop {
            match ops[pc] {
                Op::LdcI(d, v) => ri[d as usize] = v,
                Op::LdcF(d, bits) => rf[d as usize] = f64::from_bits(bits),
                Op::MovI(d, s) => ri[d as usize] = ri[s as usize],
                Op::MovF(d, s) => rf[d as usize] = rf[s as usize],
                Op::CvtIF(d, s) => rf[d as usize] = ri[s as usize] as f64,
                Op::CvtFI(d, s) => ri[d as usize] = rf[s as usize] as i64,
                Op::AluI(op, d, a, b) => {
                    ri[d as usize] = int_alu(op, ri[a as usize], ri[b as usize])?;
                }
                Op::AluIK(op, d, a, k) => ri[d as usize] = int_alu(op, ri[a as usize], k)?,
                Op::AluF(op, d, a, b) => {
                    let (x, y) = (rf[a as usize], rf[b as usize]);
                    c.flops += 1;
                    rf[d as usize] = match op {
                        FAlu::Add => x + y,
                        FAlu::Sub => x - y,
                        FAlu::Mul => x * y,
                        FAlu::Div => x / y,
                        FAlu::Rem => x % y,
                    };
                }
                Op::CmpI(p, d, a, b) => {
                    ri[d as usize] = i64::from(compare(p, ri[a as usize], ri[b as usize]));
                }
                Op::CmpIK(p, d, a, k) => ri[d as usize] = i64::from(compare(p, ri[a as usize], k)),
                Op::CmpF(p, d, a, b) => {
                    ri[d as usize] = i64::from(compare(p, rf[a as usize], rf[b as usize]));
                }
                Op::NegI(d, s) => ri[d as usize] = ri[s as usize].wrapping_neg(),
                Op::NegF(d, s) => {
                    c.flops += 1;
                    rf[d as usize] = -rf[s as usize];
                }
                Op::NotI(d, s) => ri[d as usize] = i64::from(ri[s as usize] == 0),
                Op::BitNotI(d, s) => ri[d as usize] = !ri[s as usize],
                Op::TruthyI(d, s) => ri[d as usize] = i64::from(ri[s as usize] != 0),
                Op::TruthyF(d, s) => ri[d as usize] = i64::from(rf[s as usize] != 0.0),
                Op::SqrtF(d, s) => {
                    c.flops += 1;
                    rf[d as usize] = rf[s as usize].sqrt();
                }
                Op::LdGlobI(d, g) => ri[d as usize] = mem.i[g as usize],
                Op::LdGlobF(d, g) => rf[d as usize] = mem.f[g as usize],
                Op::StGlobI(g, s) => mem.i[g as usize] = ri[s as usize],
                Op::StGlobF(g, s) => mem.f[g as usize] = rf[s as usize],
                Op::LdElemI(d, arr, idx) => {
                    let off = self.elem_offset(arr, ri[idx as usize])?;
                    if CHECKED && !shadow.init_i[off] {
                        return Err(self.uninit_read(arr, ri[idx as usize], ElemTy::I));
                    }
                    c.loads += 1;
                    ri[d as usize] = mem.i[off];
                }
                Op::LdElemF(d, arr, idx) => {
                    let off = self.elem_offset(arr, ri[idx as usize])?;
                    if CHECKED && !shadow.init_f[off] {
                        return Err(self.uninit_read(arr, ri[idx as usize], ElemTy::F));
                    }
                    c.loads += 1;
                    rf[d as usize] = mem.f[off];
                }
                Op::StElemI(arr, idx, s) => {
                    let off = self.elem_offset(arr, ri[idx as usize])?;
                    if CHECKED {
                        shadow.init_i[off] = true;
                    }
                    c.stores += 1;
                    mem.i[off] = ri[s as usize];
                }
                Op::StElemF(arr, idx, s) => {
                    let off = self.elem_offset(arr, ri[idx as usize])?;
                    if CHECKED {
                        shadow.init_f[off] = true;
                    }
                    c.stores += 1;
                    mem.f[off] = rf[s as usize];
                }
                Op::Jmp(t) => {
                    pc = t as usize;
                    continue;
                }
                Op::Jz(cr, t) => {
                    if ri[cr as usize] == 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Op::Jnz(cr, t) => {
                    if ri[cr as usize] != 0 {
                        pc = t as usize;
                        continue;
                    }
                }
                Op::RetV => return Ok(RetValue::Void),
                Op::RetI(s) => return Ok(RetValue::I64(ri[s as usize])),
                Op::RetF(s) => return Ok(RetValue::F64Bits(rf[s as usize].to_bits())),
            }
            pc += 1;
        }
    }

    /// Builds the checked-mode trap for a load of a never-written array
    /// cell, naming the array via reverse lookup in the layout (arrays
    /// are identified by base offset + element type, which is unique).
    #[cold]
    fn uninit_read(&self, arr: u16, idx: i64, elem: ElemTy) -> EngineError {
        let base = self.arrays[arr as usize].base as usize;
        let name = self
            .layout
            .by_name
            .iter()
            .find(|(_, &gi)| {
                let g = &self.layout.globals[gi];
                g.elem == elem && g.base == base && !g.is_scalar()
            })
            .map_or("<array>", |(n, _)| n.as_str());
        EngineError::Runtime {
            what: format!("uninitialized read of `{name}` at index {idx}"),
        }
    }

    #[inline]
    fn elem_offset(&self, arr: u16, idx: i64) -> Result<usize, EngineError> {
        let a = self.arrays[arr as usize];
        if (idx as u64) >= u64::from(a.len) {
            return Err(EngineError::Runtime {
                what: format!("index {idx} out of bounds (len {})", a.len),
            });
        }
        Ok(a.base as usize + idx as usize)
    }
}

/// Wrapping 64-bit integer arithmetic; `Div`/`Rem` trap on a zero
/// divisor.
#[inline(always)]
fn int_alu(op: IAlu, x: i64, y: i64) -> Result<i64, EngineError> {
    Ok(match op {
        IAlu::Add => x.wrapping_add(y),
        IAlu::Sub => x.wrapping_sub(y),
        IAlu::Mul => x.wrapping_mul(y),
        IAlu::Div | IAlu::Rem => {
            if y == 0 {
                return Err(EngineError::Runtime {
                    what: "integer division by zero".into(),
                });
            }
            if op == IAlu::Div {
                x.wrapping_div(y)
            } else {
                x.wrapping_rem(y)
            }
        }
        IAlu::And => x & y,
        IAlu::Or => x | y,
        IAlu::Xor => x ^ y,
        IAlu::Shl => x.wrapping_shl(y as u32),
        IAlu::Shr => x.wrapping_shr(y as u32),
    })
}

#[inline(always)]
fn compare<T: PartialOrd>(p: Pred, x: T, y: T) -> bool {
    match p {
        Pred::Eq => x == y,
        Pred::Ne => x != y,
        Pred::Lt => x < y,
        Pred::Le => x <= y,
        Pred::Gt => x > y,
        Pred::Ge => x >= y,
    }
}

/// Generates bytecode for a whole lowered program.
pub(crate) fn codegen(prog: LProgram) -> Result<CompiledKernel, EngineError> {
    let init = match &prog.init {
        Some(f) => Some(gen_fn(f)?),
        None => None,
    };
    let entry = gen_fn(&prog.entry)?;
    Ok(CompiledKernel {
        layout: prog.layout,
        arrays: prog.arrays,
        init,
        entry,
        entry_args: prog.entry_args,
        reads: prog.reads,
    })
}

/// Break/continue patch lists for the innermost loop.
struct LoopCtx {
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

struct Gen {
    ops: Vec<Op>,
    /// First temp slot (= named local count) per file.
    base_i: u16,
    base_f: u16,
    /// Next free temp per file (reset to base per statement).
    next_i: u16,
    next_f: u16,
    /// High-water marks for the final register-file extents.
    max_i: u16,
    max_f: u16,
    ret: Option<ElemTy>,
    loops: Vec<LoopCtx>,
}

fn gen_fn(f: &LFunc) -> Result<CodeFn, EngineError> {
    let mut g = Gen {
        ops: Vec::new(),
        base_i: f.n_i,
        base_f: f.n_f,
        next_i: f.n_i,
        next_f: f.n_f,
        max_i: f.n_i,
        max_f: f.n_f,
        ret: f.ret,
        loops: Vec::new(),
    };
    g.stmts(&f.stmts)?;
    g.default_ret()?;
    Ok(CodeFn {
        ops: g.ops,
        params: f.params.clone(),
        n_i: g.max_i,
        n_f: g.max_f,
    })
}

impl Gen {
    fn temp(&mut self, ty: ElemTy) -> Result<u16, EngineError> {
        let (next, max) = match ty {
            ElemTy::I => (&mut self.next_i, &mut self.max_i),
            ElemTy::F => (&mut self.next_f, &mut self.max_f),
        };
        let slot = *next;
        *next = next
            .checked_add(1)
            .ok_or_else(|| EngineError::Unsupported {
                what: "expression needs more than 65535 registers".into(),
            })?;
        *max = (*max).max(*next);
        Ok(slot)
    }

    fn reset_temps(&mut self) {
        self.next_i = self.base_i;
        self.next_f = self.base_f;
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.ops[at] {
            Op::Jmp(t) | Op::Jz(_, t) | Op::Jnz(_, t) => *t = target,
            other => unreachable!("patching a non-jump op {other:?}"),
        }
    }

    /// Emits a loop body under a fresh break/continue context and
    /// returns the context's unpatched jumps.
    fn loop_body(&mut self, body: &[IStmt]) -> Result<LoopCtx, EngineError> {
        self.loops.push(LoopCtx {
            breaks: Vec::new(),
            continues: Vec::new(),
        });
        self.stmts(body)?;
        #[expect(
            clippy::expect_used,
            reason = "the body pops every context it pushes, so the top is the one pushed above"
        )]
        let ctx = self.loops.pop().expect("loop context pushed above");
        Ok(ctx)
    }

    /// Points a loop's `break`s at `end` and its `continue`s at `next`.
    fn patch_loop(&mut self, ctx: LoopCtx, end: u32, next: u32) {
        for at in ctx.breaks {
            self.patch(at, end);
        }
        for at in ctx.continues {
            self.patch(at, next);
        }
    }

    fn stmts(&mut self, stmts: &[IStmt]) -> Result<(), EngineError> {
        for s in stmts {
            self.reset_temps();
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &IStmt) -> Result<(), EngineError> {
        match s {
            IStmt::SetLocal(slot, ty, value) => {
                let r = self.expr(value)?;
                if r != *slot {
                    self.ops.push(match ty {
                        ElemTy::I => Op::MovI(*slot, r),
                        ElemTy::F => Op::MovF(*slot, r),
                    });
                }
                Ok(())
            }
            IStmt::SetGlob(base, ty, value) => {
                let r = self.expr(value)?;
                self.ops.push(match ty {
                    ElemTy::I => Op::StGlobI(*base, r),
                    ElemTy::F => Op::StGlobF(*base, r),
                });
                Ok(())
            }
            IStmt::SetElem(arr, idx, value) => {
                let ridx = self.expr(idx)?;
                let rval = self.expr(value)?;
                self.ops.push(match value.ty() {
                    ElemTy::I => Op::StElemI(*arr, ridx, rval),
                    ElemTy::F => Op::StElemF(*arr, ridx, rval),
                });
                Ok(())
            }
            IStmt::Eval(e) => {
                self.expr(e)?;
                Ok(())
            }
            IStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let rc = self.expr(cond)?;
                let jz = self.ops.len();
                self.ops.push(Op::Jz(rc, 0));
                self.stmts(then_s)?;
                if else_s.is_empty() {
                    let end = self.here();
                    self.patch(jz, end);
                } else {
                    let jend = self.ops.len();
                    self.ops.push(Op::Jmp(0));
                    let else_at = self.here();
                    self.patch(jz, else_at);
                    self.stmts(else_s)?;
                    let end = self.here();
                    self.patch(jend, end);
                }
                Ok(())
            }
            IStmt::While { cond, body } => {
                let start = self.here();
                let rc = self.expr(cond)?;
                let jz = self.ops.len();
                self.ops.push(Op::Jz(rc, 0));
                let ctx = self.loop_body(body)?;
                self.ops.push(Op::Jmp(start));
                let end = self.here();
                self.patch(jz, end);
                self.patch_loop(ctx, end, start);
                Ok(())
            }
            IStmt::DoWhile { body, cond } => {
                let start = self.here();
                let ctx = self.loop_body(body)?;
                let cond_at = self.here();
                self.reset_temps();
                let rc = self.expr(cond)?;
                self.ops.push(Op::Jnz(rc, start));
                let end = self.here();
                self.patch_loop(ctx, end, cond_at);
                Ok(())
            }
            IStmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.stmts(init)?;
                let start = self.here();
                self.reset_temps();
                let jz = match cond {
                    Some(c) => {
                        let rc = self.expr(c)?;
                        let jz = self.ops.len();
                        self.ops.push(Op::Jz(rc, 0));
                        Some(jz)
                    }
                    None => None,
                };
                let ctx = self.loop_body(body)?;
                let step_at = self.here();
                self.stmts(step)?;
                self.ops.push(Op::Jmp(start));
                let end = self.here();
                if let Some(jz) = jz {
                    self.patch(jz, end);
                }
                self.patch_loop(ctx, end, step_at);
                Ok(())
            }
            IStmt::Return(e) => {
                match (e, self.ret) {
                    (None, None) => self.ops.push(Op::RetV),
                    (None, Some(_)) => self.default_ret()?,
                    (Some(e), None) => {
                        // A `return expr;` in a void function still
                        // evaluates the expression for its effects.
                        self.expr(e)?;
                        self.ops.push(Op::RetV);
                    }
                    (Some(e), Some(rt)) => {
                        let mut r = self.expr(e)?;
                        if e.ty() != rt {
                            let t = self.temp(rt)?;
                            self.ops.push(match rt {
                                ElemTy::I => Op::CvtFI(t, r),
                                ElemTy::F => Op::CvtIF(t, r),
                            });
                            r = t;
                        }
                        self.ops.push(match rt {
                            ElemTy::I => Op::RetI(r),
                            ElemTy::F => Op::RetF(r),
                        });
                    }
                }
                Ok(())
            }
            // A break/continue outside any loop unwinds the whole call in
            // the interpreter (the function simply ends), so emit the
            // default return for parity.
            IStmt::Break => match self.loops.last_mut() {
                Some(ctx) => {
                    ctx.breaks.push(self.ops.len());
                    self.ops.push(Op::Jmp(0));
                    Ok(())
                }
                None => self.default_ret(),
            },
            IStmt::Continue => match self.loops.last_mut() {
                Some(ctx) => {
                    ctx.continues.push(self.ops.len());
                    self.ops.push(Op::Jmp(0));
                    Ok(())
                }
                None => self.default_ret(),
            },
        }
    }

    /// Emits the fall-off-the-end return: void returns void, non-void
    /// returns a zero of the return type (the interpreter's behavior for
    /// a missing `return`).
    fn default_ret(&mut self) -> Result<(), EngineError> {
        match self.ret {
            None => self.ops.push(Op::RetV),
            Some(ElemTy::I) => {
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::LdcI(t, 0));
                self.ops.push(Op::RetI(t));
            }
            Some(ElemTy::F) => {
                let t = self.temp(ElemTy::F)?;
                self.ops.push(Op::LdcF(t, 0.0f64.to_bits()));
                self.ops.push(Op::RetF(t));
            }
        }
        Ok(())
    }

    /// Generates code for an expression, returning the register (in the
    /// file matching the node's type) holding the result.
    fn expr(&mut self, e: &IExpr) -> Result<u16, EngineError> {
        match e {
            IExpr::ConstI(v) => {
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::LdcI(t, *v));
                Ok(t)
            }
            IExpr::ConstF(v) => {
                let t = self.temp(ElemTy::F)?;
                self.ops.push(Op::LdcF(t, v.to_bits()));
                Ok(t)
            }
            IExpr::LocalI(s) | IExpr::LocalF(s) => Ok(*s),
            IExpr::GlobI(g) => {
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::LdGlobI(t, *g));
                Ok(t)
            }
            IExpr::GlobF(g) => {
                let t = self.temp(ElemTy::F)?;
                self.ops.push(Op::LdGlobF(t, *g));
                Ok(t)
            }
            IExpr::LoadI(arr, idx) => {
                let ri = self.expr(idx)?;
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::LdElemI(t, *arr, ri));
                Ok(t)
            }
            IExpr::LoadF(arr, idx) => {
                let ri = self.expr(idx)?;
                let t = self.temp(ElemTy::F)?;
                self.ops.push(Op::LdElemF(t, *arr, ri));
                Ok(t)
            }
            // A constant right operand rides in the op; a constant
            // divisor stays a register so a zero still traps at run
            // time, as in the interpreter.
            IExpr::BinI(op, a, b) => {
                let ra = self.expr(a)?;
                if let (IExpr::ConstI(k), false) = (b.as_ref(), matches!(op, IAlu::Div | IAlu::Rem))
                {
                    let t = self.temp(ElemTy::I)?;
                    self.ops.push(Op::AluIK(*op, t, ra, *k));
                    return Ok(t);
                }
                let rb = self.expr(b)?;
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::AluI(*op, t, ra, rb));
                Ok(t)
            }
            IExpr::BinF(op, a, b) => {
                let ra = self.expr(a)?;
                let rb = self.expr(b)?;
                let t = self.temp(ElemTy::F)?;
                self.ops.push(Op::AluF(*op, t, ra, rb));
                Ok(t)
            }
            IExpr::CmpI(p, a, b) => {
                let ra = self.expr(a)?;
                if let IExpr::ConstI(k) = b.as_ref() {
                    let t = self.temp(ElemTy::I)?;
                    self.ops.push(Op::CmpIK(*p, t, ra, *k));
                    return Ok(t);
                }
                let rb = self.expr(b)?;
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::CmpI(*p, t, ra, rb));
                Ok(t)
            }
            IExpr::CmpF(p, a, b) => {
                let ra = self.expr(a)?;
                let rb = self.expr(b)?;
                let t = self.temp(ElemTy::I)?;
                self.ops.push(Op::CmpF(*p, t, ra, rb));
                Ok(t)
            }
            IExpr::NegI(s) => self.unary(s, ElemTy::I, Op::NegI),
            IExpr::NegF(s) => self.unary(s, ElemTy::F, Op::NegF),
            IExpr::NotI(s) => self.unary(s, ElemTy::I, Op::NotI),
            IExpr::BitNotI(s) => self.unary(s, ElemTy::I, Op::BitNotI),
            IExpr::TruthyF(s) => self.unary(s, ElemTy::I, Op::TruthyF),
            IExpr::I2F(s) => self.unary(s, ElemTy::F, Op::CvtIF),
            IExpr::F2I(s) => self.unary(s, ElemTy::I, Op::CvtFI),
            IExpr::Sqrt(s) => self.unary(s, ElemTy::F, Op::SqrtF),
            IExpr::LogAnd(a, b) => {
                let t = self.temp(ElemTy::I)?;
                let ra = self.expr(a)?;
                let jz = self.ops.len();
                self.ops.push(Op::Jz(ra, 0));
                let rb = self.expr(b)?;
                self.ops.push(Op::TruthyI(t, rb));
                let jend = self.ops.len();
                self.ops.push(Op::Jmp(0));
                let false_at = self.here();
                self.patch(jz, false_at);
                self.ops.push(Op::LdcI(t, 0));
                let end = self.here();
                self.patch(jend, end);
                Ok(t)
            }
            IExpr::LogOr(a, b) => {
                let t = self.temp(ElemTy::I)?;
                let ra = self.expr(a)?;
                let jnz = self.ops.len();
                self.ops.push(Op::Jnz(ra, 0));
                let rb = self.expr(b)?;
                self.ops.push(Op::TruthyI(t, rb));
                let jend = self.ops.len();
                self.ops.push(Op::Jmp(0));
                let true_at = self.here();
                self.patch(jnz, true_at);
                self.ops.push(Op::LdcI(t, 1));
                let end = self.here();
                self.patch(jend, end);
                Ok(t)
            }
            IExpr::Ternary {
                cond,
                then_e,
                else_e,
                ty,
            } => {
                let t = self.temp(*ty)?;
                let rc = self.expr(cond)?;
                let jz = self.ops.len();
                self.ops.push(Op::Jz(rc, 0));
                let rt = self.expr(then_e)?;
                if rt != t {
                    self.ops.push(match ty {
                        ElemTy::I => Op::MovI(t, rt),
                        ElemTy::F => Op::MovF(t, rt),
                    });
                }
                let jend = self.ops.len();
                self.ops.push(Op::Jmp(0));
                let else_at = self.here();
                self.patch(jz, else_at);
                let re = self.expr(else_e)?;
                if re != t {
                    self.ops.push(match ty {
                        ElemTy::I => Op::MovI(t, re),
                        ElemTy::F => Op::MovF(t, re),
                    });
                }
                let end = self.here();
                self.patch(jend, end);
                Ok(t)
            }
        }
    }

    fn unary(
        &mut self,
        s: &IExpr,
        out_ty: ElemTy,
        make: fn(u16, u16) -> Op,
    ) -> Result<u16, EngineError> {
        let rs = self.expr(s)?;
        let t = self.temp(out_ty)?;
        self.ops.push(make(t, rs));
        Ok(t)
    }
}
