//! The facts a specialization run reads from its source program
//! (`Program::facts`): the names it spells, which residual names avoid,
//! and the static-evaluation eligibility of every `Prim`/`let` node,
//! keyed by node address and computed once per program.
//!
//! The table is sound only for the program whose nodes it was built
//! from, so a clone must build its own, and a run over the clone must
//! not be fooled by the original's freed addresses.

use std::sync::Arc;

use ppe::core::facets::{ContentsFacet, SignFacet};
use ppe::core::FacetSet;
use ppe::lang::{parse_program, pretty_program, Const, Expr, Program, Value};
use ppe::online::{OnlinePe, PeConfig, PeInput, SimpleInput, SimplePe};
use ppe::vm::VmStaticEval;
use ppe_bench::{linear_bytecode, INTERPRETER};

/// Static arithmetic inside β-reduced λs: the run memo fills residual
/// bodies while the program's table serves the source nodes.
const LAMBDAS: &str = "(define (main x n)
       (+ ((lambda (y) (* (+ y 1) (- y 2))) (+ n 3))
          ((lambda (z) (let ((w (* z 2))) (+ w x))) (- n 1))))";

fn vm_config() -> PeConfig {
    PeConfig {
        spec_eval: Some(Arc::new(VmStaticEval)),
        ..PeConfig::default()
    }
}

/// Residuals of `program` with the VM shortcut installed: the online
/// engine, and for `LAMBDAS` the simple one too (it takes no static
/// vector, so it cannot run the interpreter's bytecode).
fn residuals(program: &Program, src: &str) -> Vec<String> {
    let facets = FacetSet::with_facets(vec![Box::new(SignFacet), Box::new(ContentsFacet)]);
    let entry = program.main().name;
    let online = |inputs: &[PeInput]| {
        let residual = OnlinePe::with_config(program, &facets, vm_config())
            .specialize(entry, inputs)
            .expect("online specializes");
        pretty_program(&residual.program)
    };
    if src == INTERPRETER {
        return vec![online(&[
            PeInput::known(linear_bytecode(12)),
            PeInput::dynamic(),
        ])];
    }
    let simple = SimplePe::with_config(program, vm_config())
        .specialize(
            entry,
            &[SimpleInput::Dynamic, SimpleInput::Known(Const::Int(4))],
        )
        .expect("simple specializes");
    vec![
        online(&[PeInput::dynamic(), PeInput::known(Value::Int(4))]),
        pretty_program(&simple.program),
    ]
}

/// Every `Prim`/`let` node of `program`'s definitions.
fn roots(program: &Program) -> Vec<&Expr> {
    fn go<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
        if matches!(e, Expr::Prim(..) | Expr::Let(..)) {
            out.push(e);
        }
        match e {
            Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_) => {}
            Expr::Prim(_, args) | Expr::Call(_, args) => args.iter().for_each(|a| go(a, out)),
            Expr::If(c, t, f) => [c, t, f].into_iter().for_each(|x| go(x, out)),
            Expr::Let(_, b, body) => [b, body].into_iter().for_each(|x| go(x, out)),
            Expr::Lambda(_, body) => go(body, out),
            Expr::App(f, args) => {
                go(f, out);
                args.iter().for_each(|a| go(a, out));
            }
        }
    }
    let mut out = Vec::new();
    for d in program.defs() {
        go(&d.body, &mut out);
    }
    out
}

#[test]
fn a_clone_specializes_alike_after_its_original_is_dropped() {
    for src in [LAMBDAS, INTERPRETER] {
        let want = residuals(&parse_program(src).unwrap(), src);
        let original = parse_program(src).unwrap();
        assert!(
            original.computed_facts().is_none(),
            "parsing computes nothing"
        );
        assert_eq!(residuals(&original, src), want);
        assert!(
            original.computed_facts().is_some(),
            "a run computes the facts"
        );
        let copy = original.clone();
        assert!(
            copy.computed_facts().is_none(),
            "a clone does not inherit a table keyed by its original's nodes"
        );
        drop(original);
        // Fresh parses reuse the freed allocations.
        let churn: Vec<Program> = (0..32).map(|_| parse_program(src).unwrap()).collect();
        assert_eq!(residuals(&copy, src), want, "{src}");
        // The clone's table describes the clone's own nodes, all of them.
        let table = &copy.facts().eligibility;
        let nodes = roots(&copy);
        assert_eq!(table.len(), nodes.len());
        assert!(nodes.iter().all(|n| table.get(n).is_some()));
        drop(churn);
    }
}

#[test]
fn names_cover_everything_the_program_spells() {
    let p = parse_program(LAMBDAS).unwrap();
    let mut spelled: Vec<&str> = p.facts().names.iter().map(|s| s.as_str()).collect();
    spelled.sort_unstable();
    assert_eq!(spelled, ["main", "n", "w", "x", "y", "z"]);
}
