//! Bytecode representation: opcodes, per-function chunks, and whole
//! compiled programs.
//!
//! The design is a register machine with *overlapping call windows* in the
//! style of Lua: every function body is compiled into a [`Chunk`] with a
//! statically known register count, arguments are evaluated into the
//! topmost registers of the caller's window, and a call simply shifts the
//! window base so the arguments become registers `0..n` of the callee —
//! no argument copying, no environment allocation.
//!
//! Everything in a [`CompiledProgram`] is plain data (`Const`s, `Symbol`s,
//! `Expr`s, opcode words), so compiled programs are `Send + Sync` and can
//! be shared process-wide through the fingerprint-keyed chunk cache
//! (see [`crate::cache`]) even though the *runtime* value domain is
//! `Rc`-based and single-threaded.

use std::collections::HashMap;

use ppe_lang::{Const, EvalError, Expr, Prim, Symbol};

/// Packed-operand flag: the operand is a constant-pool index, not a
/// register (see [`Op::Prim1`]).
pub const OPND_CONST: u16 = 0x8000;
/// Packed-operand flag (register operands only): this is the last read of
/// the register, so the VM may *steal* the value (`mem::replace` with nil)
/// instead of cloning it. Stealing is what lets `updvec` see a uniquely
/// referenced vector and update it in place.
pub const OPND_STEAL: u16 = 0x4000;
/// Mask extracting the register index from a packed operand.
pub const OPND_REG_MASK: u16 = 0x3FFF;
/// Largest register index encodable in a packed operand; functions that
/// need more registers fall back to windowed [`Op::Prim`].
pub const OPND_MAX_REG: u16 = 0x3FFF;
/// Largest constant-pool index encodable in a packed operand.
pub const OPND_MAX_CONST: u16 = 0x7FFF;

/// A single bytecode instruction.
///
/// Register operands (`dst`, `src`, `base`, …) are indices into the current
/// call window; `k`, `err`, `func` and `site` index the owning
/// [`CompiledProgram`]'s constant pool, error table, chunk table and
/// lambda-site table respectively. Jump targets are absolute instruction
/// indices within the current chunk.
///
/// Primitive applications come in two shapes. The common one is
/// *three-address* ([`Op::Prim1`]/[`Op::Prim2`]/[`Op::Prim3`]): each
/// operand is a packed `u16` that is either a register (optionally flagged
/// [`OPND_STEAL`] when the compiler proved it is the operand's last read)
/// or a constant-pool index (flagged [`OPND_CONST`]), so a residual term
/// like `(* (vref a 7) (vref b 7))` costs three instructions and zero
/// register shuffling — or just one when the whole depth-two tree fuses
/// into an [`Op::Fused`]. The windowed form ([`Op::Prim`]) remains for the
/// degenerate cases the packed encoding cannot express — statically wrong
/// prim arities (which must still fail at runtime, in evaluation order)
/// and functions so large an operand index would not fit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `regs[dst] = consts[k]`.
    Const {
        /// Destination register.
        dst: u16,
        /// Constant-pool index.
        k: u32,
    },
    /// `regs[dst] = FnVal(f)` — a top-level function used as a value.
    LoadFn {
        /// Destination register.
        dst: u16,
        /// The referenced top-level function.
        f: Symbol,
    },
    /// `regs[dst] = regs[src]`.
    Move {
        /// Destination register.
        dst: u16,
        /// Source register.
        src: u16,
    },
    /// `regs[dst] = prim(opnd(a))` — three-address unary primitive.
    ///
    /// `a` is a packed operand (see [`OPND_CONST`]/[`OPND_STEAL`]);
    /// semantics are exactly [`ppe_lang::Prim::eval`] on the fetched value.
    Prim1 {
        /// The primitive operator.
        prim: Prim,
        /// Destination register.
        dst: u16,
        /// Packed operand.
        a: u16,
    },
    /// `regs[dst] = prim(opnd(a), opnd(b))` — three-address binary
    /// primitive; the workhorse of residual execution.
    Prim2 {
        /// The primitive operator.
        prim: Prim,
        /// Destination register.
        dst: u16,
        /// First packed operand.
        a: u16,
        /// Second packed operand.
        b: u16,
    },
    /// `regs[dst] = prim(opnd(a), opnd(b), opnd(c))` — three-address
    /// ternary primitive (`updvec`). When `a` is a stolen, uniquely
    /// referenced vector the update happens in place — no allocation.
    Prim3 {
        /// The primitive operator.
        prim: Prim,
        /// Destination register.
        dst: u16,
        /// First packed operand (the vector, for `updvec`).
        a: u16,
        /// Second packed operand (the index).
        b: u16,
        /// Third packed operand (the new element).
        c: u16,
    },
    /// `regs[dst] = outer(A, B)` — a fused depth-two expression tree in
    /// one dispatch.
    ///
    /// `A = fa(opnd(a0), opnd(a1))` when `fa` is set, else `A = opnd(a0)`
    /// (and `a1` is unused, encoded 0); symmetrically for `B`. Application
    /// order is `fa`, then `fb`, then `outer`, which is exactly the
    /// oracle's evaluation order for `(outer (fa … …) (fb … …))` — inner
    /// errors surface before outer ones, left before right. Emitted for
    /// residual idioms like `(* (vref a 7) (vref b 7))` (one instruction
    /// instead of three) and, via the emit-time peephole, for steal-chained
    /// pairs like the trailing adds of an unrolled reduction.
    Fused {
        /// The outer (root) primitive; always binary.
        outer: Prim,
        /// Inner primitive of the left subtree, if fused.
        fa: Option<Prim>,
        /// Inner primitive of the right subtree, if fused.
        fb: Option<Prim>,
        /// Destination register.
        dst: u16,
        /// First packed operand of the left subtree (or the left operand
        /// itself when `fa` is `None`).
        a0: u16,
        /// Second packed operand of the left subtree (unused when `fa` is
        /// `None`).
        a1: u16,
        /// First packed operand of the right subtree (or the right operand
        /// itself when `fb` is `None`).
        b0: u16,
        /// Second packed operand of the right subtree (unused when `fb` is
        /// `None`).
        b1: u16,
    },
    /// `regs[dst] = prim(r[0], prim(r[1], … prim(r[n-2], r[n-1])))` where
    /// `r[i] = regs[base+i]` — a right-nested same-operator spine in one
    /// dispatch.
    ///
    /// The compiler evaluates the spine elements of
    /// `(p e1 (p e2 (… (p eN-1 eN))))` into `n` consecutive temporaries in
    /// source order, then this op applies `p` innermost-out — exactly the
    /// oracle's order, so error classification (overflow, NaN, type) is
    /// identical. The temporaries are dead afterwards and are stolen, not
    /// cloned. This is the superinstruction that collapses the trailing
    /// reduction of an unrolled loop (e.g. the 63 adds of a size-64 inner
    /// product) into one instruction.
    FoldChain {
        /// The spine operator; always binary.
        prim: Prim,
        /// Destination register.
        dst: u16,
        /// First spine register.
        base: u16,
        /// Number of spine elements (≥ 2).
        n: u16,
    },
    /// `regs[dst] = prim(regs[base], …, regs[base+n-1])`.
    ///
    /// Arguments sit in consecutive registers, so the primitive is applied
    /// to a register-window slice with no per-call allocation; semantics
    /// are exactly [`ppe_lang::Prim::eval`]. Only used when the
    /// three-address form cannot express the application (wrong static
    /// arity, operand indices out of packed range).
    Prim {
        /// The primitive operator.
        prim: Prim,
        /// Destination register.
        dst: u16,
        /// First argument register.
        base: u16,
        /// Number of arguments.
        n: u16,
    },
    /// Unconditional jump to instruction `to`.
    Jump {
        /// Absolute target instruction index.
        to: u32,
    },
    /// Jump to `to` if `regs[cond]` is `#f`; fall through on `#t`;
    /// any other value is a [`EvalError::NonBoolCondition`].
    JumpIfFalse {
        /// Condition register.
        cond: u16,
        /// Absolute target instruction index.
        to: u32,
    },
    /// Call the statically resolved top-level function `chunks[func]` with
    /// arguments in `regs[base..base+n]`; the result lands in `regs[dst]`.
    ///
    /// Name resolution and arity were checked at compile time; the runtime
    /// still charges fuel and checks the call-depth budget, in the same
    /// order as the AST evaluator's `apply_named`.
    Call {
        /// Chunk index of the callee.
        func: u32,
        /// Destination register.
        dst: u16,
        /// First argument register (= the callee's new window base).
        base: u16,
        /// Number of arguments.
        n: u16,
    },
    /// Apply the function *value* in `regs[f]` (a closure or `FnVal`) to
    /// arguments in `regs[base..base+n]` (always `base == f + 1`).
    CallValue {
        /// Register holding the function value.
        f: u16,
        /// Destination register.
        dst: u16,
        /// First argument register.
        base: u16,
        /// Number of arguments.
        n: u16,
    },
    /// `regs[dst] = closure` for lambda site `site` (captures are read
    /// from the current window per the site's capture list).
    MakeClosure {
        /// Lambda-site index.
        site: u32,
        /// Destination register.
        dst: u16,
    },
    /// `regs[src] = nil` — drop a binding the compiler proved dead.
    ///
    /// Emitted after a call window is populated from a variable whose last
    /// use was that copy: releasing the binding's own register lets a
    /// callee-side `updvec` on the passed vector see a unique reference
    /// and update in place. Semantically invisible (the register is never
    /// read again).
    Release {
        /// Register to clear.
        src: u16,
    },
    /// Return `regs[src]` to the caller (or finish the run).
    Ret {
        /// Register holding the return value.
        src: u16,
    },
    /// Raise the precomputed error `errors[err]`.
    ///
    /// Used for failures the compiler can prove will occur *if this point
    /// in evaluation order is reached*: unbound variables, calls to unknown
    /// functions, and statically wrong arities. Emitting an instruction —
    /// rather than rejecting at compile time — preserves the AST
    /// evaluator's semantics for errors guarded by conditionals.
    Fail {
        /// Error-table index.
        err: u32,
    },
}

/// The compiled body of one function (a top-level definition or a lambda).
#[derive(Clone, Debug)]
pub struct Chunk {
    /// The instruction stream; execution begins at index 0 and leaves via
    /// [`Op::Ret`] (or an error).
    pub code: Vec<Op>,
    /// Number of registers the chunk needs (parameters + captures +
    /// locals + temporaries).
    pub n_regs: u16,
    /// The function's name (`<lambda>` for lambda chunks); diagnostics only.
    pub name: Symbol,
    /// Number of declared parameters.
    pub arity: u16,
    /// Number of captured variables (lambda chunks only; they occupy
    /// registers `arity..arity+n_captures` on entry).
    pub n_captures: u16,
}

/// One `lambda` occurrence in the source: everything needed to build a
/// [`ppe_lang::Value::Closure`] at runtime and to re-enter its compiled
/// body on application.
#[derive(Clone, Debug)]
pub struct LambdaSite {
    /// Chunk index of the compiled body.
    pub chunk: u32,
    /// Formal parameters of the lambda.
    pub params: Vec<Symbol>,
    /// The original body expression. Each closure creation wraps a fresh
    /// clone in an `Rc`, exactly as the AST evaluator does, so closure
    /// values are indistinguishable from the oracle's.
    pub body: Expr,
    /// In-scope free variables of the lambda, paired with the register (in
    /// the *enclosing* frame, at the creation site) each is captured from.
    /// Free variables that were not in scope at the creation site are not
    /// captured; their occurrences in the body compile to [`Op::Fail`]
    /// with `UnboundVar`, which is when the oracle reports them too.
    pub captures: Vec<(Symbol, u16)>,
}

/// A whole program lowered to bytecode.
///
/// Chunk indices `0..defs.len()` correspond to the program's definitions in
/// order (so the entry function's chunk index equals its definition index);
/// lambda chunks follow.
#[derive(Debug)]
pub struct CompiledProgram {
    /// All chunks: definitions first, then lambdas.
    pub chunks: Vec<Chunk>,
    /// The constant pool (deduplicated literals).
    pub consts: Vec<Const>,
    /// Precomputed errors referenced by [`Op::Fail`].
    pub errors: Vec<EvalError>,
    /// Lambda creation sites referenced by [`Op::MakeClosure`].
    pub lambdas: Vec<LambdaSite>,
    /// Map from definition name to chunk index, for dynamic `FnVal` calls.
    pub by_name: HashMap<Symbol, u32>,
    /// Process-unique id of this compilation, stamped into every closure
    /// the program creates so a closure is only ever re-entered through
    /// the compiled code it was born from.
    pub instance: u64,
}

impl CompiledProgram {
    /// Total number of instructions across all chunks (for diagnostics
    /// and tests).
    pub fn code_len(&self) -> usize {
        self.chunks.iter().map(|c| c.code.len()).sum()
    }
}
