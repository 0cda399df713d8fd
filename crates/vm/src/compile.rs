//! Lowering from the object-language AST to bytecode.
//!
//! Compilation resolves every variable to a register at compile time
//! (innermost binding wins, as in the evaluator's environment), lowers
//! primitives to three-address form (operands read registers or the
//! constant pool directly — see [`crate::chunk::OPND_CONST`]), places
//! call arguments in consecutive registers so calls can use overlapping
//! windows, and turns statically evident failures — unbound variables,
//! unknown functions, wrong arities — into [`Op::Fail`] instructions that
//! fire at exactly the point in evaluation order where the AST evaluator
//! would report them.
//!
//! A lightweight liveness analysis rides along: while compiling any
//! subexpression the compiler keeps a *continuation stack* of expressions
//! that may still evaluate afterwards in this frame. A variable operand
//! that occurs nowhere on that stack (and in no other operand of the same
//! instruction) is marked [`crate::chunk::OPND_STEAL`], letting the VM
//! take the value out of the register instead of cloning it — which in
//! turn is what makes `updvec` on a dead binding an in-place update.
//! The analysis is conservative (it ignores shadowing and looks inside
//! lambda bodies), so a missed steal costs a clone, never correctness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use ppe_lang::{Const, EvalError, Expr, Prim, Program, Symbol};

use crate::chunk::{
    Chunk, CompiledProgram, LambdaSite, Op, OPND_CONST, OPND_MAX_CONST, OPND_MAX_REG,
    OPND_REG_MASK, OPND_STEAL,
};

/// Guard on the compiler's own recursion over expression trees, so
/// pathologically nested sources are refused with a structured error
/// instead of overflowing the native stack. The trip point is *static*
/// nesting, checked once at compile time — unlike the evaluator's
/// `DEFAULT_MAX_EXPR_DEPTH`, which counts dynamic `eval` nesting — and is
/// set well below it because compilation happens on whatever thread asked
/// for it, while deep evaluation runs on the workspace's big-stack worker
/// threads. Real residuals nest a few hundred deep at most (see
/// DESIGN.md §16).
pub const MAX_COMPILE_DEPTH: u32 = 10_000;

/// Minimum right-nested spine length lowered to an [`Op::FoldChain`]. A
/// shorter spine of leaves already collapses into one [`Op::Fused`], so
/// the fold superinstruction only pays for itself from four elements up.
const MIN_FOLD_CHAIN: usize = 4;

/// Why a program could not be lowered to bytecode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileErrorKind {
    /// Expression nesting exceeded [`MAX_COMPILE_DEPTH`].
    TooDeep,
    /// A single function body needed more than `u16::MAX` registers.
    TooManyRegisters,
    /// More than `u32::MAX` pool entries (practically unreachable).
    PoolOverflow,
}

/// A structured compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError {
    /// What went wrong.
    pub kind: CompileErrorKind,
    /// The function being compiled when the limit tripped.
    pub function: Symbol,
}

impl CompileError {
    /// The evaluator-error classification of this failure, used when a
    /// compile failure must be reported through the common `EvalError`
    /// channel: nesting limits map to `DepthExceeded` (the oracle's
    /// classification for over-deep expressions), resource overflows to
    /// `Unsupported`.
    pub fn to_eval_error(&self) -> EvalError {
        match self.kind {
            CompileErrorKind::TooDeep => EvalError::DepthExceeded,
            CompileErrorKind::TooManyRegisters => {
                EvalError::Unsupported("function too large to compile (register limit)")
            }
            CompileErrorKind::PoolOverflow => {
                EvalError::Unsupported("program too large to compile (pool limit)")
            }
        }
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = match self.kind {
            CompileErrorKind::TooDeep => "expression nesting too deep",
            CompileErrorKind::TooManyRegisters => "register limit exceeded",
            CompileErrorKind::PoolOverflow => "constant/error pool overflow",
        };
        write!(f, "cannot compile `{}`: {what}", self.function)
    }
}

impl std::error::Error for CompileError {}

static INSTANCE: AtomicU64 = AtomicU64::new(1);

struct Builder<'p> {
    program: &'p Program,
    chunks: Vec<Chunk>,
    consts: Vec<Const>,
    const_ids: HashMap<Const, u32>,
    errors: Vec<EvalError>,
    lambdas: Vec<LambdaSite>,
    by_name: HashMap<Symbol, u32>,
}

fn placeholder_chunk() -> Chunk {
    Chunk {
        code: Vec::new(),
        n_regs: 0,
        name: Symbol::intern("<pending>"),
        arity: 0,
        n_captures: 0,
    }
}

impl<'p> Builder<'p> {
    fn const_id(&mut self, c: Const) -> u32 {
        if let Some(&k) = self.const_ids.get(&c) {
            return k;
        }
        let k = u32::try_from(self.consts.len()).expect("constant pool overflow");
        self.consts.push(c);
        self.const_ids.insert(c, k);
        k
    }

    fn error_id(&mut self, e: EvalError) -> u32 {
        if let Some(i) = self.errors.iter().position(|x| *x == e) {
            return u32::try_from(i).expect("error pool overflow");
        }
        let i = u32::try_from(self.errors.len()).expect("error pool overflow");
        self.errors.push(e);
        i
    }
}

/// Compiles a whole program to bytecode. Definitions become chunks
/// `0..defs.len()` in order; lambda bodies are appended as they are
/// encountered.
///
/// # Errors
///
/// [`CompileError`] when a structural limit trips (see
/// [`CompileErrorKind`]). Semantic errors (unbound variables, unknown
/// functions, bad arities) do *not* fail compilation — they lower to
/// [`Op::Fail`] so their runtime classification matches the oracle.
///
/// # Examples
///
/// ```
/// use ppe_lang::parse_program;
///
/// let p = parse_program("(define (inc x) (+ x 1))").unwrap();
/// let cp = ppe_vm::compile(&p).unwrap();
/// assert_eq!(cp.chunks.len(), 1);
/// ```
pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
    let defs = program.defs();
    let mut by_name = HashMap::with_capacity(defs.len());
    for (i, d) in defs.iter().enumerate() {
        // First definition wins, matching `Program::lookup`.
        by_name
            .entry(d.name)
            .or_insert(u32::try_from(i).expect("too many definitions"));
    }
    let mut b = Builder {
        program,
        chunks: vec![placeholder_chunk(); defs.len()],
        consts: Vec::new(),
        const_ids: HashMap::new(),
        errors: Vec::new(),
        lambdas: Vec::new(),
        by_name,
    };
    for (i, d) in defs.iter().enumerate() {
        let chunk = compile_fn(&mut b, d.name, &d.params, &[], &d.body)?;
        b.chunks[i] = chunk;
    }
    Ok(CompiledProgram {
        chunks: b.chunks,
        consts: b.consts,
        errors: b.errors,
        lambdas: b.lambdas,
        by_name: b.by_name,
        instance: INSTANCE.fetch_add(1, Ordering::Relaxed),
    })
}

/// Whether symbol `x` occurs in `e` — as a variable, a call target, or a
/// function reference — ignoring shadowing and descending into lambda
/// bodies. A conservative over-approximation of "might still be read",
/// used by the liveness analysis; over-counting only costs a missed
/// steal, never correctness.
fn occurs(x: Symbol, e: &Expr) -> bool {
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Const(_) => {}
            Expr::Var(y) | Expr::FnRef(y) => {
                if *y == x {
                    return true;
                }
            }
            Expr::Prim(_, args) => stack.extend(args.iter()),
            Expr::If(c, t, f) => {
                stack.push(c);
                stack.push(t);
                stack.push(f);
            }
            Expr::Call(name, args) => {
                if *name == x {
                    return true;
                }
                stack.extend(args.iter());
            }
            Expr::Let(_, bound, body) => {
                stack.push(bound);
                stack.push(body);
            }
            Expr::Lambda(_, body) => stack.push(body),
            Expr::App(f, args) => {
                stack.push(f);
                stack.extend(args.iter());
            }
        }
    }
    false
}

/// Compiles one function body (a definition's, or a lambda's with its
/// captured variables appended to the parameter registers).
fn compile_fn<'p>(
    b: &mut Builder<'p>,
    name: Symbol,
    params: &[Symbol],
    captures: &[Symbol],
    body: &'p Expr,
) -> Result<Chunk, CompileError> {
    let mut fc = FnCompiler {
        b,
        name,
        code: Vec::new(),
        scope: Vec::new(),
        cont: Vec::new(),
        next_reg: 0,
        max_reg: 0,
        depth: 0,
        fuse_barrier: 0,
    };
    for &p in params.iter().chain(captures) {
        let r = fc.alloc()?;
        fc.scope.push((p, r));
    }
    let ret = fc.alloc()?;
    fc.expr(body, ret)?;
    fc.code.push(Op::Ret { src: ret });
    Ok(Chunk {
        code: fc.code,
        n_regs: fc.max_reg,
        name,
        arity: u16::try_from(params.len()).expect("arity overflow"),
        n_captures: u16::try_from(captures.len()).expect("capture overflow"),
    })
}

struct FnCompiler<'a, 'p> {
    b: &'a mut Builder<'p>,
    name: Symbol,
    code: Vec<Op>,
    /// Lexical scope: `(name, register)`, innermost last.
    scope: Vec<(Symbol, u16)>,
    /// Expressions that may still evaluate *after* the one currently being
    /// compiled, in this frame (let bodies, if branches, sibling operands).
    /// A variable absent from every entry is dead once its current read
    /// completes — the basis for steal flags and `Op::Release`.
    cont: Vec<&'p Expr>,
    next_reg: u16,
    max_reg: u16,
    depth: u32,
    /// Instructions at indices below this may not participate in peephole
    /// fusion: a jump target lands at (or below) this position, so the
    /// producer/consumer pair would not be adjacent on the jumping path.
    fuse_barrier: usize,
}

impl<'p> FnCompiler<'_, 'p> {
    fn err(&self, kind: CompileErrorKind) -> CompileError {
        CompileError {
            kind,
            function: self.name,
        }
    }

    fn alloc(&mut self) -> Result<u16, CompileError> {
        let r = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(1)
            .ok_or_else(|| self.err(CompileErrorKind::TooManyRegisters))?;
        self.max_reg = self.max_reg.max(self.next_reg);
        Ok(r)
    }

    /// Allocates `n` consecutive registers, returning the first.
    fn alloc_n(&mut self, n: usize) -> Result<u16, CompileError> {
        let n = u16::try_from(n).map_err(|_| self.err(CompileErrorKind::TooManyRegisters))?;
        let base = self.next_reg;
        self.next_reg = self
            .next_reg
            .checked_add(n)
            .ok_or_else(|| self.err(CompileErrorKind::TooManyRegisters))?;
        self.max_reg = self.max_reg.max(self.next_reg);
        Ok(base)
    }

    fn lookup(&self, x: Symbol) -> Option<u16> {
        self.scope
            .iter()
            .rev()
            .find(|(s, _)| *s == x)
            .map(|&(_, r)| r)
    }

    fn emit(&mut self, op: Op) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    /// Points the jump at `at` to the next instruction to be emitted.
    fn patch_to_here(&mut self, at: usize) {
        let here = u32::try_from(self.code.len()).expect("code overflow");
        // A jump now lands at this position: ops emitted here may follow a
        // *non-adjacent* predecessor on the jumping path, so they must not
        // fuse backwards.
        self.fuse_barrier = self.code.len();
        match &mut self.code[at] {
            Op::Jump { to } | Op::JumpIfFalse { to, .. } => *to = here,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Whether `x` may still be read after the expression currently being
    /// compiled finishes, within this frame.
    fn is_live_later(&self, x: Symbol) -> bool {
        self.cont.iter().any(|e| occurs(x, e))
    }

    /// Compiles the elements of `args[from..]` into consecutive registers
    /// starting at `base + from`, keeping the not-yet-evaluated siblings
    /// on the continuation stack so steals inside one argument cannot
    /// clear a register a later argument still reads.
    fn fill_window(&mut self, args: &'p [Expr], base: u16) -> Result<(), CompileError> {
        for (i, a) in args.iter().enumerate() {
            let pushed = args.len() - i - 1;
            for later in &args[i + 1..] {
                self.cont.push(later);
            }
            let out = self.expr(a, base + i as u16);
            self.cont.truncate(self.cont.len() - pushed);
            out?;
        }
        Ok(())
    }

    /// After a call window has been fully populated, any variable that was
    /// copied in and is dead afterwards still pins its value from the
    /// binding register for the whole call. Clearing those registers
    /// (`Op::Release`) is semantically invisible and lets a callee-side
    /// `updvec` on the passed vector see a unique reference.
    fn release_dead_window(&mut self, f: Option<&Expr>, args: &[Expr]) {
        let mut released: Vec<u16> = Vec::new();
        for a in f.into_iter().chain(args.iter()) {
            let Expr::Var(x) = a else { continue };
            let Some(reg) = self.lookup(*x) else { continue };
            if released.contains(&reg) || self.is_live_later(*x) {
                continue;
            }
            released.push(reg);
            self.emit(Op::Release { src: reg });
        }
    }

    /// Whether `e` can be a leaf of an [`Op::Fused`] tree: a constant or
    /// an in-scope variable whose packed encoding fits. (Unbound variables
    /// are excluded — their `Fail` must be emitted at their own place in
    /// evaluation order, which the unfused path handles.)
    fn leaf_ok(&mut self, e: &Expr) -> bool {
        match e {
            Expr::Const(c) => self.b.const_id(*c) <= u32::from(OPND_MAX_CONST),
            Expr::Var(x) => matches!(self.lookup(*x), Some(r) if r <= OPND_MAX_REG),
            _ => false,
        }
    }

    /// Packs one fused-tree leaf, deciding its steal flag against all the
    /// *other* leaves of the same instruction (operand fetch is hoisted, so
    /// a register stolen by one slot must not be read by any other) and
    /// against the continuation.
    fn leaf_word(&mut self, leaves: &[&'p Expr], i: usize) -> u16 {
        match leaves[i] {
            Expr::Const(c) => {
                let k = self.b.const_id(*c);
                OPND_CONST | u16::try_from(k).expect("prechecked const id")
            }
            Expr::Var(x) => {
                let r = self.lookup(*x).expect("prechecked var");
                let dup = leaves
                    .iter()
                    .enumerate()
                    .any(|(j, o)| j != i && matches!(o, Expr::Var(y) if y == x));
                if dup || self.is_live_later(*x) {
                    r
                } else {
                    OPND_STEAL | r
                }
            }
            other => unreachable!("non-leaf in fused tree: {other:?}"),
        }
    }

    fn leaf_words(&mut self, leaves: &[&'p Expr]) -> Vec<u16> {
        (0..leaves.len())
            .map(|i| self.leaf_word(leaves, i))
            .collect()
    }

    /// Lowers a maximal right-nested same-operator spine
    /// `(p e1 (p e2 (… (p eN-1 eN))))` to: the spine elements evaluated
    /// into `N` consecutive temporaries in source order, then one
    /// [`Op::FoldChain`]. This matches the oracle's evaluation order
    /// exactly — a strict evaluator computes every element before any
    /// application, then applies innermost-out — so errors surface at the
    /// same point with the same classification. Only fires for spines of
    /// at least [`MIN_FOLD_CHAIN`] elements; shorter ones lower better
    /// through [`Self::try_fused`] and the emit-time peephole.
    fn try_fold_chain(
        &mut self,
        p: Prim,
        args: &'p [Expr],
        dst: u16,
    ) -> Result<bool, CompileError> {
        let mut spine: Vec<&'p Expr> = vec![&args[0]];
        let mut rest = &args[1];
        while let Expr::Prim(q, qa) = rest {
            if *q != p || qa.len() != 2 {
                break;
            }
            spine.push(&qa[0]);
            rest = &qa[1];
        }
        spine.push(rest);
        let n = spine.len();
        if n < MIN_FOLD_CHAIN {
            return Ok(false);
        }
        // The spine walk is iterative, but it still charges its length
        // against the structural-depth budget the recursive path would
        // have consumed: the accept/reject boundary must not move, so
        // every compilable program stays within the depth envelope the
        // oracle's own dynamic limit was sized against.
        if self.depth + n as u32 >= MAX_COMPILE_DEPTH {
            return Err(self.err(CompileErrorKind::TooDeep));
        }
        let save = self.next_reg;
        let lo = self.alloc_n(n)?;
        for (i, e) in spine.iter().enumerate() {
            let pushed = n - i - 1;
            for later in &spine[i + 1..] {
                self.cont.push(later);
            }
            let out = self.expr(e, lo + i as u16);
            self.cont.truncate(self.cont.len() - pushed);
            out?;
        }
        self.emit(Op::FoldChain {
            prim: p,
            dst,
            base: lo,
            n: u16::try_from(n).expect("checked by alloc_n"),
        });
        self.next_reg = save;
        Ok(true)
    }

    /// Lowers a binary primitive whose operands form a depth-two tree to a
    /// single [`Op::Fused`]. Shapes handled (leaves are constants or
    /// in-scope variables):
    ///
    /// - `(p (q l l) (r l l))` — both subtrees fuse;
    /// - `(p leaf (r l l))` and `(p (q l l) leaf)` — one subtree fuses;
    /// - `(p complex (r l l))` — the left operand evaluates into a
    ///   temporary first (preserving evaluation order), then fuses as a
    ///   direct operand.
    ///
    /// The mirror case `(p (q l l) complex)` must NOT fuse: the left
    /// subtree's primitive application has to run *before* the right
    /// operand evaluates, so it compiles separately (and the emit-time
    /// peephole in [`Self::emit_prim2`] often still collapses the pair).
    /// Returns `Ok(false)` before emitting anything when no shape applies.
    fn try_fused(&mut self, p: Prim, args: &'p [Expr], dst: u16) -> Result<bool, CompileError> {
        fn inner2(e: &Expr) -> Option<(Prim, &[Expr])> {
            match e {
                Expr::Prim(q, qa) if qa.len() == 2 && q.arity() == 2 => Some((*q, &qa[..])),
                _ => None,
            }
        }
        let (e1, e2) = (&args[0], &args[1]);
        let sub_a = match inner2(e1) {
            Some((q, l)) if self.leaf_ok(&l[0]) && self.leaf_ok(&l[1]) => Some((q, l)),
            _ => None,
        };
        let sub_b = match inner2(e2) {
            Some((q, l)) if self.leaf_ok(&l[0]) && self.leaf_ok(&l[1]) => Some((q, l)),
            _ => None,
        };
        match (sub_a, sub_b) {
            (Some((qa, la)), Some((qb, lb))) => {
                let w = self.leaf_words(&[&la[0], &la[1], &lb[0], &lb[1]]);
                self.emit(Op::Fused {
                    outer: p,
                    fa: Some(qa),
                    fb: Some(qb),
                    dst,
                    a0: w[0],
                    a1: w[1],
                    b0: w[2],
                    b1: w[3],
                });
            }
            (Some((qa, la)), None) => {
                if !self.leaf_ok(e2) {
                    // Left-fused, right-complex would reorder the left
                    // subtree's application after the right operand.
                    return Ok(false);
                }
                let w = self.leaf_words(&[&la[0], &la[1], e2]);
                self.emit(Op::Fused {
                    outer: p,
                    fa: Some(qa),
                    fb: None,
                    dst,
                    a0: w[0],
                    a1: w[1],
                    b0: w[2],
                    b1: 0,
                });
            }
            (None, Some((qb, lb))) => {
                if self.leaf_ok(e1) {
                    let w = self.leaf_words(&[e1, &lb[0], &lb[1]]);
                    self.emit(Op::Fused {
                        outer: p,
                        fa: None,
                        fb: Some(qb),
                        dst,
                        a0: w[0],
                        a1: 0,
                        b0: w[1],
                        b1: w[2],
                    });
                } else {
                    // Complex left operand: evaluate it into a temporary
                    // first — its effects (errors, fuel) stay ahead of the
                    // right subtree's application, as the oracle requires.
                    if u32::from(self.next_reg) > u32::from(OPND_MAX_REG) {
                        return Ok(false);
                    }
                    let save = self.next_reg;
                    let t = self.alloc()?;
                    self.cont.push(e2);
                    let out = self.expr(e1, t);
                    self.cont.pop();
                    out?;
                    let w = self.leaf_words(&[&lb[0], &lb[1]]);
                    self.emit(Op::Fused {
                        outer: p,
                        fa: None,
                        fb: Some(qb),
                        dst,
                        a0: OPND_STEAL | t,
                        a1: 0,
                        b0: w[0],
                        b1: w[1],
                    });
                    self.next_reg = save;
                }
            }
            (None, None) => return Ok(false),
        }
        Ok(true)
    }

    /// Emits a binary three-address primitive, first trying to fuse it
    /// with the instruction just emitted: when that instruction is a
    /// [`Op::Prim2`] whose destination this one *steals* (a chained
    /// producer/consumer pair, e.g. the trailing adds of an unrolled
    /// reduction), the pair collapses into one [`Op::Fused`]. Guards: no
    /// jump target may separate the two ([`Self::fuse_barrier`]), and the
    /// surviving operand must neither read nor steal a register the
    /// producer touches (operand fetch is hoisted in the fused form).
    fn emit_prim2(&mut self, p: Prim, dst: u16, wa: u16, wb: u16) {
        let reg_of = |w: u16| (w & OPND_CONST == 0).then_some(w & OPND_REG_MASK);
        let steals = |w: u16| w & OPND_CONST == 0 && w & OPND_STEAL != 0;
        if self.code.len() > self.fuse_barrier {
            if let Some(&Op::Prim2 {
                prim: pi,
                dst: pd,
                a: x,
                b: y,
            }) = self.code.last()
            {
                let steal_of_pd = |w: u16| steals(w) && w & OPND_REG_MASK == pd;
                // The surviving operand must be independent of the
                // producer: not the producer's destination (which the
                // fused op never writes), and not a steal of a register
                // the producer reads (steals are hoisted before reads).
                let safe = |w: u16| {
                    reg_of(w) != Some(pd)
                        && !(steals(w)
                            && (reg_of(x) == Some(w & OPND_REG_MASK)
                                || reg_of(y) == Some(w & OPND_REG_MASK)))
                };
                if steal_of_pd(wb) && !steal_of_pd(wa) && safe(wa) {
                    self.code.pop();
                    self.emit(Op::Fused {
                        outer: p,
                        fa: None,
                        fb: Some(pi),
                        dst,
                        a0: wa,
                        a1: 0,
                        b0: x,
                        b1: y,
                    });
                    return;
                }
                if steal_of_pd(wa) && !steal_of_pd(wb) && safe(wb) {
                    self.code.pop();
                    self.emit(Op::Fused {
                        outer: p,
                        fa: Some(pi),
                        fb: None,
                        dst,
                        a0: x,
                        a1: y,
                        b0: wb,
                        b1: 0,
                    });
                    return;
                }
            }
        }
        self.emit(Op::Prim2 {
            prim: p,
            dst,
            a: wa,
            b: wb,
        });
    }

    /// Lowers a primitive whose static arity matches to three-address
    /// form. Returns `Ok(false)` — before emitting *any* code, so nothing
    /// is ever evaluated twice — when an operand cannot be packed
    /// (register or constant index out of range).
    fn prim_3addr(&mut self, p: Prim, args: &'p [Expr], dst: u16) -> Result<bool, CompileError> {
        let mut n_temps: u16 = 0;
        for a in args {
            let encodable = match a {
                Expr::Const(c) => self.b.const_id(*c) <= u32::from(OPND_MAX_CONST),
                Expr::Var(x) => match self.lookup(*x) {
                    Some(r) => r <= OPND_MAX_REG,
                    None => {
                        // Unbound: compiles to Fail in its own slot, at its
                        // place in evaluation order.
                        n_temps += 1;
                        true
                    }
                },
                _ => {
                    n_temps += 1;
                    true
                }
            };
            if !encodable {
                return Ok(false);
            }
        }
        if u32::from(self.next_reg) + u32::from(n_temps) > u32::from(OPND_MAX_REG) + 1 {
            return Ok(false);
        }

        let save = self.next_reg;
        let mut words = [0u16; 3];
        for (i, a) in args.iter().enumerate() {
            words[i] = match a {
                Expr::Const(c) => {
                    let k = self.b.const_id(*c);
                    OPND_CONST | u16::try_from(k).expect("prechecked const id")
                }
                Expr::Var(x) if self.lookup(*x).is_some() => {
                    let r = self.lookup(*x).expect("matched Some");
                    // Steal only if no *other* operand reads the same
                    // variable at instruction time (operand fetch order is
                    // not evaluation order) and nothing later in the frame
                    // reads it.
                    let dup = args
                        .iter()
                        .enumerate()
                        .any(|(j, o)| j != i && matches!(o, Expr::Var(y) if y == x));
                    if dup || self.is_live_later(*x) {
                        r
                    } else {
                        OPND_STEAL | r
                    }
                }
                _ => {
                    let t = self.alloc()?;
                    let pushed = args.len() - 1;
                    for (j, other) in args.iter().enumerate() {
                        if j != i {
                            self.cont.push(other);
                        }
                    }
                    let out = self.expr(a, t);
                    self.cont.truncate(self.cont.len() - pushed);
                    out?;
                    // Temporaries are dead once the instruction runs.
                    OPND_STEAL | t
                }
            };
        }
        match args.len() {
            1 => self.emit(Op::Prim1 {
                prim: p,
                dst,
                a: words[0],
            }),
            2 => {
                self.emit_prim2(p, dst, words[0], words[1]);
                self.code.len() - 1
            }
            _ => self.emit(Op::Prim3 {
                prim: p,
                dst,
                a: words[0],
                b: words[1],
                c: words[2],
            }),
        };
        self.next_reg = save;
        Ok(true)
    }

    /// The windowed fallback: arguments in consecutive registers,
    /// evaluated left to right, then one [`Op::Prim`]. Handles statically
    /// wrong arities (the runtime arity check reports them in evaluation
    /// order, as the oracle does) and operands out of packed range.
    fn prim_windowed(&mut self, p: Prim, args: &'p [Expr], dst: u16) -> Result<(), CompileError> {
        let save = self.next_reg;
        let base = self.alloc_n(args.len())?;
        self.fill_window(args, base)?;
        let n = u16::try_from(args.len()).expect("checked by alloc_n");
        self.emit(Op::Prim {
            prim: p,
            dst,
            base,
            n,
        });
        self.next_reg = save;
        Ok(())
    }

    /// Compiles `e` so that its value ends up in register `dst`.
    /// `next_reg` is left unchanged (temporaries are stack-disciplined).
    fn expr(&mut self, e: &'p Expr, dst: u16) -> Result<(), CompileError> {
        self.depth += 1;
        if self.depth >= MAX_COMPILE_DEPTH {
            return Err(self.err(CompileErrorKind::TooDeep));
        }
        let out = self.expr_inner(e, dst);
        self.depth -= 1;
        out
    }

    fn expr_inner(&mut self, e: &'p Expr, dst: u16) -> Result<(), CompileError> {
        match e {
            Expr::Const(c) => {
                let k = self.b.const_id(*c);
                self.emit(Op::Const { dst, k });
            }
            Expr::Var(x) => match self.lookup(*x) {
                Some(src) if src == dst => {}
                Some(src) => {
                    self.emit(Op::Move { dst, src });
                }
                None => {
                    let err = self.b.error_id(EvalError::UnboundVar(*x));
                    self.emit(Op::Fail { err });
                }
            },
            Expr::Prim(p, args) => {
                let fits = (1..=3).contains(&args.len()) && args.len() == p.arity();
                if fits && args.len() == 2 && self.try_fold_chain(*p, args, dst)? {
                    // Lowered to spine evaluation plus one fold
                    // superinstruction.
                } else if fits && args.len() == 2 && self.try_fused(*p, args, dst)? {
                    // Lowered to a single fused tree instruction.
                } else if !(fits && self.prim_3addr(*p, args, dst)?) {
                    self.prim_windowed(*p, args, dst)?;
                }
            }
            Expr::If(c, t, f) => {
                let save = self.next_reg;
                let cond = self.alloc()?;
                self.cont.push(t);
                self.cont.push(f);
                let out = self.expr(c, cond);
                self.cont.truncate(self.cont.len() - 2);
                out?;
                self.next_reg = save;
                let jf = self.emit(Op::JumpIfFalse { cond, to: 0 });
                self.expr(t, dst)?;
                let j = self.emit(Op::Jump { to: 0 });
                self.patch_to_here(jf);
                self.expr(f, dst)?;
                self.patch_to_here(j);
            }
            Expr::Call(name, args) => {
                let save = self.next_reg;
                let base = self.alloc_n(args.len())?;
                self.fill_window(args, base)?;
                self.release_dead_window(None, args);
                let n = u16::try_from(args.len()).expect("checked by alloc_n");
                // Resolution failures become runtime `Fail`s at this point
                // in evaluation order: the oracle evaluates arguments
                // first, then reports UnknownFunction/Arity.
                match self.b.by_name.get(name).copied() {
                    Some(func) => {
                        let expected = self.b.program.defs()[func as usize].arity();
                        if expected == args.len() {
                            self.emit(Op::Call { func, dst, base, n });
                        } else {
                            let err = self.b.error_id(EvalError::Arity {
                                function: *name,
                                expected,
                                got: args.len(),
                            });
                            self.emit(Op::Fail { err });
                        }
                    }
                    None => {
                        let err = self.b.error_id(EvalError::UnknownFunction(*name));
                        self.emit(Op::Fail { err });
                    }
                }
                self.next_reg = save;
            }
            Expr::Let(x, bound, body) => {
                let slot = self.alloc()?;
                self.cont.push(body);
                let out = self.expr(bound, slot);
                self.cont.pop();
                out?;
                self.scope.push((*x, slot));
                let out = self.expr(body, dst);
                self.scope.pop();
                out?;
                self.next_reg = slot;
            }
            Expr::Lambda(params, body) => {
                let mut fv = Vec::new();
                e.free_vars(&mut fv);
                let captures: Vec<(Symbol, u16)> = fv
                    .into_iter()
                    .filter_map(|x| self.lookup(x).map(|r| (x, r)))
                    .collect();
                let site = compile_lambda(self.b, params, body, captures)?;
                self.emit(Op::MakeClosure { site, dst });
            }
            Expr::FnRef(f) => {
                self.emit(Op::LoadFn { dst, f: *f });
            }
            Expr::App(f, args) => {
                let save = self.next_reg;
                let freg = self.alloc()?;
                for a in args.iter() {
                    self.cont.push(a);
                }
                let out = self.expr(f, freg);
                self.cont.truncate(self.cont.len() - args.len());
                out?;
                let base = self.alloc_n(args.len())?;
                debug_assert_eq!(base, freg + 1);
                self.fill_window(args, base)?;
                self.release_dead_window(Some(f), args);
                let n = u16::try_from(args.len()).expect("checked by alloc_n");
                self.emit(Op::CallValue {
                    f: freg,
                    dst,
                    base,
                    n,
                });
                self.next_reg = save;
            }
        }
        Ok(())
    }
}

fn compile_lambda<'p>(
    b: &mut Builder<'p>,
    params: &[Symbol],
    body: &'p Expr,
    captures: Vec<(Symbol, u16)>,
) -> Result<u32, CompileError> {
    let chunk_id = u32::try_from(b.chunks.len()).expect("too many chunks");
    b.chunks.push(placeholder_chunk());
    let capture_syms: Vec<Symbol> = captures.iter().map(|&(s, _)| s).collect();
    let chunk = compile_fn(b, Symbol::intern("<lambda>"), params, &capture_syms, body)?;
    b.chunks[chunk_id as usize] = chunk;
    let site = u32::try_from(b.lambdas.len()).expect("too many lambdas");
    b.lambdas.push(LambdaSite {
        chunk: chunk_id,
        params: params.to_vec(),
        body: body.clone(),
        captures,
    });
    Ok(site)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vm;
    use ppe_lang::{parse_program, Value};

    #[test]
    fn constants_are_pooled_once() {
        let p = parse_program("(define (f x) (+ (+ x 1) (+ x 1)))").unwrap();
        let cp = compile(&p).unwrap();
        assert_eq!(cp.consts, vec![Const::Int(1)]);
    }

    #[test]
    fn unknown_function_compiles_to_fail_not_error() {
        // The parser validates call targets, so build the ill-formed
        // program directly — `Program::new` admits it, as the oracle does.
        let p = ppe_lang::Program::new(vec![ppe_lang::FunDef::new(
            Symbol::intern("f"),
            vec![Symbol::intern("x")],
            Expr::call("mystery", vec![Expr::var("x")]),
        )])
        .unwrap();
        let cp = compile(&p).unwrap();
        assert!(cp
            .errors
            .iter()
            .any(|e| matches!(e, EvalError::UnknownFunction(_))));
    }

    #[test]
    fn lambda_captures_in_scope_variables_only() {
        let p = parse_program("(define (f x) (let ((k 2)) (lambda (y) (+ (* k x) y))))").unwrap();
        let cp = compile(&p).unwrap();
        assert_eq!(cp.lambdas.len(), 1);
        let caps: Vec<&str> = cp.lambdas[0]
            .captures
            .iter()
            .map(|&(s, _)| s.as_str())
            .collect();
        assert_eq!(caps.len(), 2);
        assert!(caps.contains(&"k") && caps.contains(&"x"));
    }

    #[test]
    fn deep_nesting_is_rejected_structurally() {
        // Alternating operators so the chain flattener cannot linearize
        // the spine; the recursive compiler must hit its depth guard.
        let mut src = String::from("(define (f x) ");
        let depth = 12_000;
        for i in 0..depth {
            src.push_str(if i % 2 == 0 { "(+ 1 " } else { "(- 1 " });
        }
        src.push('x');
        for _ in 0..depth {
            src.push(')');
        }
        src.push(')');
        let p = parse_program(&src).unwrap();
        let err = compile(&p).unwrap_err();
        assert_eq!(err.kind, CompileErrorKind::TooDeep);
    }

    #[test]
    fn same_operator_chain_compiles_to_one_fold() {
        // A right-nested same-operator spine flattens into temporaries
        // plus a single FoldChain superinstruction — and the flattener
        // still charges the spine length against the depth budget, so the
        // accept/reject boundary is where it always was.
        let depth = 9_000;
        let mut src = String::from("(define (f x) ");
        for _ in 0..depth {
            src.push_str("(+ 1 ");
        }
        src.push('x');
        for _ in 0..depth {
            src.push(')');
        }
        src.push(')');
        let p = parse_program(&src).unwrap();
        let cp = compile(&p).unwrap();
        let folds = cp.chunks[0]
            .code
            .iter()
            .filter(|op| matches!(op, Op::FoldChain { .. }))
            .count();
        assert_eq!(folds, 1);
        let out = Vm::new().run_main(&cp, &[Value::Int(5)]).unwrap();
        assert_eq!(out, Value::Int(5 + depth as i64));

        let mut too_deep = String::from("(define (f x) ");
        for _ in 0..12_000 {
            too_deep.push_str("(+ 1 ");
        }
        too_deep.push('x');
        for _ in 0..12_000 {
            too_deep.push(')');
        }
        too_deep.push(')');
        let p = parse_program(&too_deep).unwrap();
        assert_eq!(compile(&p).unwrap_err().kind, CompileErrorKind::TooDeep);
    }
}
