//! Object-language substrate for parameterized partial evaluation.
//!
//! This crate implements the first-order (plus a higher-order extension)
//! strict functional language of Consel & Khoo, *Parameterized Partial
//! Evaluation* (PLDI 1991), Figure 1: its abstract syntax, a parser for an
//! s-expression surface syntax, a pretty-printer, the value domains
//! (integers, booleans, floats, and the vector abstract data type of
//! Section 6), the primitive-operator algebra, and the standard evaluator.
//!
//! # Quick example
//!
//! ```
//! use ppe_lang::{parse_program, Evaluator, Value};
//!
//! let program = parse_program(
//!     "(define (square x) (* x x))",
//! ).unwrap();
//! let mut ev = Evaluator::new(&program);
//! let out = ev.run_main(&[Value::Int(7)]).unwrap();
//! assert_eq!(out, Value::Int(49));
//! ```
//!
//! The language is deliberately the paper's: `Exp ::= c | x | p(e…) | f(e…)
//! | if e e e` plus `let` sugar and, for Section 5.5, `lambda` and general
//! application.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
pub mod diag;
mod env;
mod error;
mod eval;
mod lazy;
mod lexer;
pub mod opt;
mod parser;
mod pretty;
mod prim;
mod program;
mod symbol;
pub mod term;
mod token;
mod value;

pub use ast::{Const, Expr, F64};
pub use diag::{Diagnostic, Severity};
pub use env::Env;
pub use error::{EvalError, ParseError};
pub use eval::{Evaluator, DEFAULT_FUEL, DEFAULT_MAX_DEPTH, DEFAULT_MAX_EXPR_DEPTH};
pub use lazy::LazyEvaluator;
pub use opt::{
    count_uses, is_droppable, optimize_expr, optimize_program, optimize_residual,
    prune_unused_params, OptLevel,
};
pub use parser::{parse_defs, parse_expr, parse_program};
pub use pretty::{pretty_expr, pretty_program};
pub use prim::{Prim, StdOpClass, ALL_PRIMS, MAX_VECTOR_SIZE};
pub use program::{FunDef, Program, ProgramFacts};
pub use symbol::Symbol;
pub use term::{interner_stats, InternerStats};
pub use value::{ClosureData, Value};
