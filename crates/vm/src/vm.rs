//! The dispatch loop: explicit call frames over a shared register stack.
//!
//! Budget semantics mirror [`ppe_lang::Evaluator`] exactly so the AST
//! evaluator can serve as a differential oracle:
//!
//! - **fuel** is charged once per function application (named call,
//!   closure application, or `FnVal` application), after the arity check
//!   and before the depth check — [`EvalError::OutOfFuel`];
//! - **call depth** counts nested, unreturned applications including the
//!   entry call, bounded by `max_depth` — [`EvalError::DepthExceeded`];
//! - the **wall-clock deadline**, if set, is checked every 1024 executed
//!   instructions — [`EvalError::DeadlineExceeded`]. (The oracle checks
//!   every 1024 expression nodes; the cadence differs by a constant
//!   factor, the classification does not.)

use std::mem;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use ppe_lang::{
    Const, Env, EvalError, Prim, Program, Symbol, Value, DEFAULT_FUEL, DEFAULT_MAX_DEPTH,
};
use ppe_online::Governor;

use crate::cache::{self, compile_cached};
use crate::chunk::{Chunk, CompiledProgram, Op, OPND_CONST, OPND_REG_MASK, OPND_STEAL};

/// How often the wall clock is consulted when a deadline is set: every
/// 1024 executed instructions.
const DEADLINE_CHECK_MASK: u64 = 0x3FF;

/// Placeholder for registers that have not been written yet.
fn nil() -> Value {
    Value::Bool(false)
}

/// Phase one of packed-operand fetch: materialize constants and *steal*
/// last-use registers (`mem::replace` with nil) into an owned slot. Plain
/// register operands return `None` and are read by reference in phase two
/// ([`opnd`]), after all mutation is done.
#[inline(always)]
fn fetch_owned(regs: &mut [Value], base: usize, consts: &[Const], w: u16) -> Option<Value> {
    if w & OPND_CONST != 0 {
        Some(Value::from_const(consts[usize::from(w & !OPND_CONST)]))
    } else if w & OPND_STEAL != 0 {
        Some(std::mem::replace(
            &mut regs[base + usize::from(w & OPND_REG_MASK)],
            nil(),
        ))
    } else {
        None
    }
}

/// Phase two: a borrowed view of the operand, from the owned slot or the
/// register file.
#[inline(always)]
fn opnd<'a>(slot: &'a Option<Value>, regs: &'a [Value], base: usize, w: u16) -> &'a Value {
    match slot {
        Some(v) => v,
        None => &regs[base + usize::from(w & OPND_REG_MASK)],
    }
}

/// An owned copy of the operand, for the slow path (`Prim::eval`) and for
/// consuming uses (the `updvec` vector and element).
#[inline(always)]
fn opnd_owned(slot: Option<Value>, regs: &[Value], base: usize, w: u16) -> Value {
    slot.unwrap_or_else(|| regs[base + usize::from(w & OPND_REG_MASK)].clone())
}

/// Applies a binary primitive to two operand views: the fast paths for the
/// prims that dominate residual execution, with everything they do not
/// produce — type mismatches, overflow, NaN, bad indices, uncommon prims —
/// falling through to [`Prim::eval`], which recomputes on the same values
/// and classifies the error, so the two paths cannot disagree with the
/// oracle. Shared by [`Op::Prim2`] and both levels of [`Op::Fused`].
#[inline(always)]
fn prim2_apply(prim: Prim, va: &Value, vb: &Value) -> Result<Value, EvalError> {
    let fast = match (prim, va, vb) {
        (Prim::Add, Value::Int(x), Value::Int(y)) => x.checked_add(*y).map(Value::Int),
        (Prim::Sub, Value::Int(x), Value::Int(y)) => x.checked_sub(*y).map(Value::Int),
        (Prim::Mul, Value::Int(x), Value::Int(y)) => x.checked_mul(*y).map(Value::Int),
        (Prim::Add, Value::Float(x), Value::Float(y)) => {
            let r = x + y;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        (Prim::Sub, Value::Float(x), Value::Float(y)) => {
            let r = x - y;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        (Prim::Mul, Value::Float(x), Value::Float(y)) => {
            let r = x * y;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        (Prim::Eq, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x == y)),
        (Prim::Ne, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x != y)),
        (Prim::Lt, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x < y)),
        (Prim::Le, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x <= y)),
        (Prim::Gt, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x > y)),
        (Prim::Ge, Value::Int(x), Value::Int(y)) => Some(Value::Bool(x >= y)),
        (Prim::VRef, Value::Vector(v), Value::Int(i)) => {
            // 1-based, in-range access only; everything else is the
            // oracle's VectorIndex error.
            i.checked_sub(1)
                .and_then(|x| usize::try_from(x).ok())
                .and_then(|idx| v.get(idx))
                .cloned()
        }
        _ => None,
    };
    match fast {
        Some(v) => Ok(v),
        None => prim.eval(&[va.clone(), vb.clone()]),
    }
}

/// Fast path for the hottest fused shape: a binary op over two vector
/// elements at constant indices — `(op (vref a i) (vref b j))`, which is
/// what unrolled numeric residuals are mostly made of. Reads registers
/// only (no steals, no mutation), so bailing out with `None` at any point
/// leaves the generic path to recompute from scratch; returns `Some` only
/// when no error could occur anywhere in the tree, so the error paths stay
/// the oracle's.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fused_vv_fast(
    regs: &[Value],
    base: usize,
    consts: &[Const],
    outer: Prim,
    a0: u16,
    a1: u16,
    b0: u16,
    b1: u16,
) -> Option<Value> {
    if (a0 | b0) & (OPND_CONST | OPND_STEAL) != 0 || a1 & OPND_CONST == 0 || b1 & OPND_CONST == 0 {
        return None;
    }
    let Value::Vector(va) = &regs[base + usize::from(a0)] else {
        return None;
    };
    let Value::Vector(vb) = &regs[base + usize::from(b0)] else {
        return None;
    };
    let Const::Int(ia) = consts[usize::from(a1 & !OPND_CONST)] else {
        return None;
    };
    let Const::Int(ib) = consts[usize::from(b1 & !OPND_CONST)] else {
        return None;
    };
    let x = va.get(usize::try_from(ia.checked_sub(1)?).ok()?)?;
    let y = vb.get(usize::try_from(ib.checked_sub(1)?).ok()?)?;
    scalar_apply(outer, x, y)
}

/// Fast path for fused scalar chains — `(op a (op2 b c))` over ints and
/// floats, e.g. the trailing adds of an unrolled reduction. Reads
/// registers without performing steals (skipping a steal of a scalar is
/// invisible: no shared structure, nothing downstream tests uniqueness);
/// `None` on anything but pure in-range arithmetic.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn fused_scalar_fast(
    regs: &[Value],
    base: usize,
    consts: &[Const],
    outer: Prim,
    inner: Prim,
    a0: u16,
    b0: u16,
    b1: u16,
) -> Option<Value> {
    #[inline(always)]
    fn operand(regs: &[Value], base: usize, consts: &[Const], w: u16) -> Option<Value> {
        if w & OPND_CONST != 0 {
            Some(Value::from_const(consts[usize::from(w & !OPND_CONST)]))
        } else {
            match &regs[base + usize::from(w & OPND_REG_MASK)] {
                v @ (Value::Int(_) | Value::Float(_)) => Some(v.clone()),
                _ => None,
            }
        }
    }
    let va = operand(regs, base, consts, a0)?;
    let vb = operand(regs, base, consts, b0)?;
    let vc = operand(regs, base, consts, b1)?;
    let mid = scalar_apply(inner, &vb, &vc)?;
    scalar_apply(outer, &va, &mid)
}

/// Pure scalar arithmetic with the oracle's domain: checked ints, NaN-free
/// floats; `None` for anything that could be an error or an uncommon prim.
#[inline(always)]
fn scalar_apply(p: Prim, x: &Value, y: &Value) -> Option<Value> {
    match (p, x, y) {
        (Prim::Add, Value::Int(a), Value::Int(b)) => a.checked_add(*b).map(Value::Int),
        (Prim::Sub, Value::Int(a), Value::Int(b)) => a.checked_sub(*b).map(Value::Int),
        (Prim::Mul, Value::Int(a), Value::Int(b)) => a.checked_mul(*b).map(Value::Int),
        (Prim::Add, Value::Float(a), Value::Float(b)) => {
            let r = a + b;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        (Prim::Sub, Value::Float(a), Value::Float(b)) => {
            let r = a - b;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        (Prim::Mul, Value::Float(a), Value::Float(b)) => {
            let r = a * b;
            (!r.is_nan()).then_some(Value::Float(r))
        }
        _ => None,
    }
}

/// Generic (slow-path) execution of an [`Op::Fused`]: steals and constants
/// materialize up front (the compiler guarantees no slot steals a register
/// another slot reads); applications then run in oracle order — left inner,
/// right inner, outer. Kept out of line so the dispatch loop's hot path
/// stays small.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn fused_generic(
    regs: &mut [Value],
    base: usize,
    consts: &[Const],
    outer: Prim,
    fa: Option<Prim>,
    fb: Option<Prim>,
    a0: u16,
    a1: u16,
    b0: u16,
    b1: u16,
) -> Result<Value, EvalError> {
    let s0 = fetch_owned(regs, base, consts, a0);
    let s1 = fetch_owned(regs, base, consts, a1);
    let s2 = fetch_owned(regs, base, consts, b0);
    let s3 = fetch_owned(regs, base, consts, b1);
    let va = match fa {
        Some(p) => prim2_apply(p, opnd(&s0, regs, base, a0), opnd(&s1, regs, base, a1))?,
        None => opnd_owned(s0, regs, base, a0),
    };
    let vb = match fb {
        Some(p) => prim2_apply(p, opnd(&s2, regs, base, b0), opnd(&s3, regs, base, b1))?,
        None => opnd_owned(s2, regs, base, b0),
    };
    prim2_apply(outer, &va, &vb)
}

/// Hidden environment key under which VM-created closures record their
/// lambda-site index. The spelling contains a space, which the lexer can
/// never produce, so it cannot collide with a program variable.
fn site_key() -> Symbol {
    static KEY: OnceLock<Symbol> = OnceLock::new();
    *KEY.get_or_init(|| Symbol::intern("vm lambda site"))
}

/// Hidden environment key recording which compiled program a closure was
/// created by (see [`CompiledProgram::instance`]).
fn instance_key() -> Symbol {
    static KEY: OnceLock<Symbol> = OnceLock::new();
    *KEY.get_or_init(|| Symbol::intern("vm program instance"))
}

/// Execution budgets for a VM run; defaults match the AST evaluator's.
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Number of function applications allowed per run.
    pub fuel: u64,
    /// Call-depth limit (the entry call counts as depth 1).
    pub max_depth: u32,
    /// Optional wall-clock budget per run.
    pub deadline: Option<Duration>,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions {
            fuel: DEFAULT_FUEL,
            max_depth: DEFAULT_MAX_DEPTH,
            deadline: None,
        }
    }
}

impl VmOptions {
    /// Budgets inherited from a live [`Governor`]: whatever fuel and
    /// wall-clock allowance the governor has left becomes this run's
    /// budget, so residual execution launched from inside a governed
    /// request cannot outspend the request itself. The call-depth limit
    /// keeps its default (execution depth is not a specializer budget).
    pub fn from_governor(g: &Governor) -> VmOptions {
        VmOptions {
            fuel: g.remaining_fuel(),
            max_depth: DEFAULT_MAX_DEPTH,
            deadline: g.remaining_deadline(),
        }
    }
}

/// What one execution cost; feeds the service-level VM counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecReport {
    /// Chunks compiled for this run (0 on a chunk-cache hit).
    pub chunks_compiled: u64,
    /// True if the compiled program came from the chunk cache.
    pub cache_hit: bool,
    /// Instructions executed.
    pub ops_executed: u64,
    /// Function applications performed.
    pub fuel_used: u64,
}

/// A bytecode interpreter with the budgets of [`VmOptions`].
///
/// # Examples
///
/// ```
/// use ppe_lang::{parse_program, Value};
/// use ppe_vm::{compile, Vm};
///
/// let p = parse_program("(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))").unwrap();
/// let cp = compile(&p).unwrap();
/// let mut vm = Vm::new();
/// assert_eq!(vm.run_main(&cp, &[Value::Int(5)]).unwrap(), Value::Int(120));
/// ```
#[derive(Debug, Default)]
pub struct Vm {
    opts: VmOptions,
    fuel: u64,
    last_ops: u64,
    /// Recycled register storage: cleared between runs, capacity kept.
    /// The specializer's static-eval path replays thousands of tiny
    /// chunks per run, where a fresh allocation would rival the whole
    /// execution.
    regs_buf: Vec<Value>,
}

struct Frame {
    chunk: u32,
    ret_pc: u32,
    base: u32,
    /// Absolute register index (caller window) the result lands in.
    dst: u32,
}

impl Vm {
    /// A VM with default budgets (same as `Evaluator::new`).
    pub fn new() -> Vm {
        Vm::with_options(VmOptions::default())
    }

    /// A VM with explicit budgets.
    pub fn with_options(opts: VmOptions) -> Vm {
        Vm {
            opts,
            fuel: opts.fuel,
            last_ops: 0,
            regs_buf: Vec::new(),
        }
    }

    /// Runs the program's main function; resets fuel, like the oracle's
    /// `run_main`.
    ///
    /// # Errors
    ///
    /// Any [`EvalError`], with the same classification the AST evaluator
    /// would produce on the same program and arguments.
    pub fn run_main(&mut self, cp: &CompiledProgram, args: &[Value]) -> Result<Value, EvalError> {
        if cp.chunks.is_empty() {
            return Err(EvalError::UnknownFunction(Symbol::intern(
                "<empty program>",
            )));
        }
        self.run_at(cp, 0, args)
    }

    /// Runs a named function; resets fuel.
    ///
    /// # Errors
    ///
    /// As for [`Vm::run_main`].
    pub fn run(
        &mut self,
        cp: &CompiledProgram,
        name: Symbol,
        args: &[Value],
    ) -> Result<Value, EvalError> {
        self.fuel = self.opts.fuel;
        let entry = *cp
            .by_name
            .get(&name)
            .ok_or(EvalError::UnknownFunction(name))?;
        self.run_at(cp, entry, args)
    }

    /// Runs the chunk at `entry`; resets fuel. The hot entry for the
    /// spec-eval path: no symbol lookup (main is always chunk 0).
    fn run_at(
        &mut self,
        cp: &CompiledProgram,
        entry: u32,
        args: &[Value],
    ) -> Result<Value, EvalError> {
        self.fuel = self.opts.fuel;
        let deadline_at = self.opts.deadline.map(|d| Instant::now() + d);
        let mut ops: u64 = 0;
        let out = self.exec(cp, entry, args, deadline_at, &mut ops);
        self.last_ops = ops;
        cache::add_ops_executed(ops);
        out
    }

    /// Applications consumed by the last run (oracle: `fuel_used`).
    pub fn fuel_used(&self) -> u64 {
        self.opts.fuel - self.fuel
    }

    /// Instructions executed by the last run.
    pub fn ops_executed(&self) -> u64 {
        self.last_ops
    }

    fn exec(
        &mut self,
        cp: &CompiledProgram,
        entry: u32,
        args: &[Value],
        deadline_at: Option<Instant>,
        ops: &mut u64,
    ) -> Result<Value, EvalError> {
        // Entry protocol mirrors `Evaluator::apply_named` (the caller
        // resolved the name): arity → fuel → depth.
        let mut chunk: &Chunk = &cp.chunks[entry as usize];
        if usize::from(chunk.arity) != args.len() {
            return Err(EvalError::Arity {
                function: chunk.name,
                expected: usize::from(chunk.arity),
                got: args.len(),
            });
        }
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        if self.opts.max_depth == 0 {
            return Err(EvalError::DepthExceeded);
        }

        let mut regs: Vec<Value> = mem::take(&mut self.regs_buf);
        regs.clear();
        regs.reserve(usize::from(chunk.n_regs));
        regs.extend_from_slice(args);
        regs.resize(usize::from(chunk.n_regs), nil());
        let mut frames: Vec<Frame> = Vec::new();
        let mut cur_chunk: u32 = entry;
        let mut pc: usize = 0;
        let mut base: usize = 0;

        let out = (|| loop {
            let op = chunk.code[pc];
            pc += 1;
            *ops += 1;
            if let Some(at) = deadline_at {
                if *ops & DEADLINE_CHECK_MASK == 0 && Instant::now() >= at {
                    return Err(EvalError::DeadlineExceeded);
                }
            }
            match op {
                Op::Const { dst, k } => {
                    regs[base + usize::from(dst)] = Value::from_const(cp.consts[k as usize]);
                }
                Op::LoadFn { dst, f } => {
                    regs[base + usize::from(dst)] = Value::FnVal(f);
                }
                Op::Move { dst, src } => {
                    regs[base + usize::from(dst)] = regs[base + usize::from(src)].clone();
                }
                Op::Prim1 { prim, dst, a } => {
                    let sa = fetch_owned(&mut regs, base, &cp.consts, a);
                    let va = opnd(&sa, &regs, base, a);
                    let fast = match (prim, va) {
                        (Prim::Not, Value::Bool(x)) => Some(Value::Bool(!x)),
                        (Prim::Neg, Value::Int(x)) => x.checked_neg().map(Value::Int),
                        (Prim::Neg, Value::Float(x)) => Some(Value::Float(-x)),
                        (Prim::VSize, Value::Vector(v)) => Some(Value::Int(v.len() as i64)),
                        _ => None,
                    };
                    let v = match fast {
                        Some(v) => v,
                        None => prim.eval(&[opnd_owned(sa, &regs, base, a)])?,
                    };
                    regs[base + usize::from(dst)] = v;
                }
                Op::Prim2 { prim, dst, a, b } => {
                    let sa = fetch_owned(&mut regs, base, &cp.consts, a);
                    let sb = fetch_owned(&mut regs, base, &cp.consts, b);
                    let v =
                        prim2_apply(prim, opnd(&sa, &regs, base, a), opnd(&sb, &regs, base, b))?;
                    regs[base + usize::from(dst)] = v;
                }
                Op::Fused {
                    outer,
                    fa,
                    fb,
                    dst,
                    a0,
                    a1,
                    b0,
                    b1,
                } => {
                    // Shape-specialized fast paths first; they read
                    // registers without mutating, so a `None` falls
                    // through to the generic path with nothing consumed.
                    let fastv = if fa == Some(Prim::VRef) && fb == Some(Prim::VRef) {
                        fused_vv_fast(&regs, base, &cp.consts, outer, a0, a1, b0, b1)
                    } else if fa.is_none() {
                        fb.and_then(|p2| {
                            fused_scalar_fast(&regs, base, &cp.consts, outer, p2, a0, b0, b1)
                        })
                    } else {
                        None
                    };
                    let v = match fastv {
                        Some(v) => v,
                        None => fused_generic(
                            &mut regs, base, &cp.consts, outer, fa, fb, a0, a1, b0, b1,
                        )?,
                    };
                    regs[base + usize::from(dst)] = v;
                }
                Op::FoldChain {
                    prim,
                    dst,
                    base: fbase,
                    n,
                } => {
                    // The compiler evaluated the spine elements into
                    // `regs[lo..lo+n]` in source order; applying the
                    // operator innermost-out (right to left) is exactly the
                    // oracle's order for the nested expression. The
                    // temporaries are dead afterwards, so values are stolen.
                    debug_assert!(n >= 2, "degenerate fold chain");
                    let lo = base + usize::from(fbase);
                    let mut acc = mem::replace(&mut regs[lo + usize::from(n) - 1], nil());
                    for i in (0..usize::from(n) - 1).rev() {
                        let x = mem::replace(&mut regs[lo + i], nil());
                        acc = match scalar_apply(prim, &x, &acc) {
                            Some(v) => v,
                            None => prim2_apply(prim, &x, &acc)?,
                        };
                    }
                    regs[base + usize::from(dst)] = acc;
                }
                Op::Prim3 { prim, dst, a, b, c } => {
                    let sa = fetch_owned(&mut regs, base, &cp.consts, a);
                    let sb = fetch_owned(&mut regs, base, &cp.consts, b);
                    let sc = fetch_owned(&mut regs, base, &cp.consts, c);
                    let shape = match (opnd(&sa, &regs, base, a), opnd(&sb, &regs, base, b)) {
                        (Value::Vector(v), Value::Int(i)) => Some((*i, v.len())),
                        _ => None,
                    };
                    let v = match (prim, shape) {
                        (Prim::UpdVec, Some((i, len))) => {
                            if !(i >= 1 && (i as u64) <= len as u64) {
                                return Err(EvalError::VectorIndex { index: i, len });
                            }
                            let idx = (i - 1) as usize;
                            let val = opnd_owned(sc, &regs, base, c);
                            match opnd_owned(sa, &regs, base, a) {
                                // A stolen, uniquely referenced vector is
                                // updated in place — the compiler proved no
                                // one else can observe it. Shared vectors
                                // get the oracle's copy-on-update.
                                Value::Vector(mut rc) => match Rc::get_mut(&mut rc) {
                                    Some(slot) => {
                                        slot[idx] = val;
                                        Value::Vector(rc)
                                    }
                                    None => {
                                        let mut out = rc.as_ref().clone();
                                        out[idx] = val;
                                        Value::vector(out)
                                    }
                                },
                                _ => unreachable!("shape checked above"),
                            }
                        }
                        _ => {
                            let args = [
                                opnd_owned(sa, &regs, base, a),
                                opnd_owned(sb, &regs, base, b),
                                opnd_owned(sc, &regs, base, c),
                            ];
                            prim.eval(&args)?
                        }
                    };
                    regs[base + usize::from(dst)] = v;
                }
                Op::Prim {
                    prim,
                    dst,
                    base: abase,
                    n,
                } => {
                    let lo = base + usize::from(abase);
                    let v = prim.eval(&regs[lo..lo + usize::from(n)])?;
                    regs[base + usize::from(dst)] = v;
                }
                Op::Release { src } => {
                    regs[base + usize::from(src)] = nil();
                }
                Op::Jump { to } => pc = to as usize,
                Op::JumpIfFalse { cond, to } => match regs[base + usize::from(cond)] {
                    Value::Bool(true) => {}
                    Value::Bool(false) => pc = to as usize,
                    _ => return Err(EvalError::NonBoolCondition),
                },
                Op::Call {
                    func,
                    dst,
                    base: abase,
                    n: _,
                } => {
                    // Name and arity are compile-time facts; charge fuel,
                    // then check depth, as the oracle does.
                    if self.fuel == 0 {
                        return Err(EvalError::OutOfFuel);
                    }
                    self.fuel -= 1;
                    if frames.len() as u32 + 1 >= self.opts.max_depth {
                        return Err(EvalError::DepthExceeded);
                    }
                    frames.push(Frame {
                        chunk: cur_chunk,
                        ret_pc: pc as u32,
                        base: base as u32,
                        dst: (base + usize::from(dst)) as u32,
                    });
                    base += usize::from(abase);
                    cur_chunk = func;
                    chunk = &cp.chunks[cur_chunk as usize];
                    pc = 0;
                    regs.resize(base + usize::from(chunk.n_regs), nil());
                }
                Op::CallValue {
                    f,
                    dst,
                    base: abase,
                    n,
                } => {
                    let fv = regs[base + usize::from(f)].clone();
                    match fv {
                        Value::FnVal(g) => {
                            let func = *cp.by_name.get(&g).ok_or(EvalError::UnknownFunction(g))?;
                            let callee = &cp.chunks[func as usize];
                            if callee.arity != n {
                                return Err(EvalError::Arity {
                                    function: g,
                                    expected: usize::from(callee.arity),
                                    got: usize::from(n),
                                });
                            }
                            if self.fuel == 0 {
                                return Err(EvalError::OutOfFuel);
                            }
                            self.fuel -= 1;
                            if frames.len() as u32 + 1 >= self.opts.max_depth {
                                return Err(EvalError::DepthExceeded);
                            }
                            frames.push(Frame {
                                chunk: cur_chunk,
                                ret_pc: pc as u32,
                                base: base as u32,
                                dst: (base + usize::from(dst)) as u32,
                            });
                            base += usize::from(abase);
                            cur_chunk = func;
                            chunk = &cp.chunks[cur_chunk as usize];
                            pc = 0;
                            regs.resize(base + usize::from(chunk.n_regs), nil());
                        }
                        Value::Closure(clo) => {
                            let env = &clo.env;
                            if clo.params.len() != usize::from(n) {
                                return Err(EvalError::Arity {
                                    function: Symbol::intern("<lambda>"),
                                    expected: clo.params.len(),
                                    got: usize::from(n),
                                });
                            }
                            if self.fuel == 0 {
                                return Err(EvalError::OutOfFuel);
                            }
                            self.fuel -= 1;
                            if frames.len() as u32 + 1 >= self.opts.max_depth {
                                return Err(EvalError::DepthExceeded);
                            }
                            let site = match (env.lookup(instance_key()), env.lookup(site_key())) {
                                (Some(&Value::Int(inst)), Some(&Value::Int(site)))
                                    if inst as u64 == cp.instance =>
                                {
                                    &cp.lambdas[site as usize]
                                }
                                _ => {
                                    // A closure not created by this compiled
                                    // program (e.g. built by the AST
                                    // evaluator and passed in as an
                                    // argument). The language itself cannot
                                    // construct one of these.
                                    return Err(EvalError::Unsupported(
                                        "closure was not created by this VM",
                                    ));
                                }
                            };
                            let func = site.chunk;
                            let callee = &cp.chunks[func as usize];
                            frames.push(Frame {
                                chunk: cur_chunk,
                                ret_pc: pc as u32,
                                base: base as u32,
                                dst: (base + usize::from(dst)) as u32,
                            });
                            base += usize::from(abase);
                            cur_chunk = func;
                            chunk = callee;
                            pc = 0;
                            regs.resize(base + usize::from(chunk.n_regs), nil());
                            let cap0 = base + usize::from(chunk.arity);
                            for (i, &(sym, _)) in site.captures.iter().enumerate() {
                                regs[cap0 + i] =
                                    env.lookup(sym).cloned().ok_or(EvalError::UnboundVar(sym))?;
                            }
                        }
                        _ => return Err(EvalError::NotAFunction),
                    }
                }
                Op::MakeClosure { site, dst } => {
                    let s = &cp.lambdas[site as usize];
                    let mut env = Env::empty()
                        .bind(instance_key(), Value::Int(cp.instance as i64))
                        .bind(site_key(), Value::Int(site as i64));
                    for &(sym, r) in &s.captures {
                        env = env.bind(sym, regs[base + usize::from(r)].clone());
                    }
                    regs[base + usize::from(dst)] =
                        Value::closure(s.params.clone(), Rc::new(s.body.clone()), env);
                }
                Op::Ret { src } => {
                    let v = std::mem::replace(&mut regs[base + usize::from(src)], nil());
                    match frames.pop() {
                        None => return Ok(v),
                        Some(fr) => {
                            cur_chunk = fr.chunk;
                            chunk = &cp.chunks[cur_chunk as usize];
                            pc = fr.ret_pc as usize;
                            base = fr.base as usize;
                            regs.resize(base + usize::from(chunk.n_regs), nil());
                            regs[fr.dst as usize] = v;
                        }
                    }
                }
                Op::Fail { err } => return Err(cp.errors[err as usize].clone()),
            }
        })();
        // Drop this run's values now, keep the capacity for the next.
        regs.clear();
        self.regs_buf = regs;
        out
    }
}

/// One-shot convenience: compile `program` through the chunk cache and run
/// its main function, returning the outcome together with an
/// [`ExecReport`] for metrics.
pub fn execute_main(
    program: &Program,
    args: &[Value],
    opts: VmOptions,
) -> (Result<Value, EvalError>, ExecReport) {
    let (cp, cache_hit, chunks_compiled) = match compile_cached(program) {
        Ok(x) => x,
        // Structural compile failure: report through the common error
        // channel with an empty report.
        Err(e) => return (Err(e.to_eval_error()), ExecReport::default()),
    };
    let mut vm = Vm::with_options(opts);
    let out = vm.run_main(&cp, args);
    let report = ExecReport {
        chunks_compiled,
        cache_hit,
        ops_executed: vm.ops_executed(),
        fuel_used: vm.fuel_used(),
    };
    (out, report)
}
