//! Pass 2: call graph and unfold-safety.
//!
//! Two modes with one code (`W0002`):
//!
//! - **Structural** (no inputs needed): recursion not guarded by *any*
//!   conditional can never reach a base case — specialization and plain
//!   evaluation both diverge. The detection is
//!   [`ppe_online::preflight::unguarded_recursion`], shared with the
//!   online engine so both agree on what "structurally unbounded" means.
//! - **Binding-time aware** (given a facet [`Analysis`]): a recursive call
//!   annotated `Unfold` whose every controlling conditional is static is
//!   the classic offline-PE infinite-unfolding risk — the specializer will
//!   keep unfolding as long as the static data says so, with nothing
//!   dynamic to force residualization. Termination then rests entirely on
//!   the static recursion terminating; the runtime Governor's fuel is the
//!   backstop. This is exactly the condition Figure 4's `Unfold`
//!   annotation does *not* check, so the analyzer surfaces it.

use std::collections::{HashMap, HashSet};

use ppe_lang::diag::Diagnostic;
use ppe_lang::{FunDef, Symbol};
use ppe_offline::{Analysis, AnnExpr, AnnKind, CallAction};

use crate::depgraph::collect_calls;
use crate::descend;

/// Structural unfold-safety over raw definitions: wraps the engine-shared
/// unguarded-recursion detection in `W0002` diagnostics. Works on the
/// lenient parse by building a `Program` only when the defs admit one;
/// otherwise (duplicates, empty) the structural pass is skipped — the
/// well-formedness errors already block everything downstream.
pub fn check_structural(defs: &[FunDef], out: &mut Vec<Diagnostic>) {
    let Ok(program) = ppe_lang::Program::new(defs.to_vec()) else {
        return;
    };
    for (f, g) in ppe_online::preflight::unguarded_recursion(&program) {
        let message = if f == g {
            format!("`{f}` calls itself outside every conditional: the recursion has no reachable base case")
        } else {
            format!("recursive call of `{g}` sits outside every conditional in `{f}`: the cycle has no reachable base case")
        };
        out.push(Diagnostic::warning("W0002", message).in_function(f));
    }
}

/// Binding-time-aware unfold-safety: reports every recursive call site
/// annotated `Unfold` that no dynamic conditional guards. `program`
/// supplies the call graph; `analysis` the annotations.
pub fn check_unfolding(
    program: &ppe_lang::Program,
    analysis: &Analysis,
    out: &mut Vec<Diagnostic>,
) {
    // Edge collection is shared with the dependency-graph pass
    // ([`crate::depgraph::collect_calls`]) so unfold-safety and
    // invalidation can never disagree about what "calls" means.
    let mut edges: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();
    for def in program.defs() {
        let callees = edges.entry(def.name).or_default();
        collect_calls(&def.body, callees);
    }
    let mut names: Vec<Symbol> = analysis.annotated.keys().copied().collect();
    names.sort_by_key(|s| s.to_string());
    for name in names {
        let def = &analysis.annotated[&name];
        walk(&def.body, name, false, &edges, &mut "body".to_owned(), out);
    }
}

fn walk(
    e: &AnnExpr,
    function: Symbol,
    under_dynamic: bool,
    edges: &HashMap<Symbol, HashSet<Symbol>>,
    path: &mut String,
    out: &mut Vec<Diagnostic>,
) {
    match &e.kind {
        AnnKind::Const(_) | AnnKind::Var(_) => {}
        AnnKind::Prim { args, .. } => {
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    walk(a, function, under_dynamic, edges, p, out)
                });
            }
        }
        AnnKind::If {
            cond,
            then_branch,
            else_branch,
            static_cond,
        } => {
            descend(path, "cond", |p| {
                walk(cond, function, under_dynamic, edges, p, out)
            });
            let branches_dynamic = under_dynamic || !static_cond;
            descend(path, "then", |p| {
                walk(then_branch, function, branches_dynamic, edges, p, out)
            });
            descend(path, "else", |p| {
                walk(else_branch, function, branches_dynamic, edges, p, out)
            });
        }
        AnnKind::Call { f, args, action } => {
            for (i, a) in args.iter().enumerate() {
                descend(path, format_args!("arg{i}"), |p| {
                    walk(a, function, under_dynamic, edges, p, out)
                });
            }
            let recursive = *f == function || reaches(*f, function, edges);
            if *action == CallAction::Unfold && recursive && !under_dynamic {
                out.push(
                    Diagnostic::warning(
                        "W0002",
                        format!(
                            "recursive call of `{f}` is annotated `Unfold` under purely static \
                             control: unfolding is bounded only by the static recursion \
                             terminating (runtime fuel is the backstop)"
                        ),
                    )
                    .in_function(function)
                    .at_path(path.as_str()),
                );
            }
        }
        AnnKind::Let { bound, body, .. } => {
            descend(path, "bound", |p| {
                walk(bound, function, under_dynamic, edges, p, out)
            });
            descend(path, "body", |p| {
                walk(body, function, under_dynamic, edges, p, out)
            });
        }
    }
}

/// True iff `to` is reachable from `from` along call edges.
fn reaches(from: Symbol, to: Symbol, edges: &HashMap<Symbol, HashSet<Symbol>>) -> bool {
    let mut seen = HashSet::new();
    let mut stack = vec![from];
    while let Some(f) = stack.pop() {
        if !seen.insert(f) {
            continue;
        }
        if let Some(next) = edges.get(&f) {
            if next.contains(&to) {
                return true;
            }
            stack.extend(next.iter().copied());
        }
    }
    false
}
