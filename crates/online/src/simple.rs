//! The conventional simple partial evaluator — Figure 2 of the paper,
//! implemented independently of the facet machinery.
//!
//! This is the baseline the parameterized evaluator generalizes: an
//! expression is static exactly when it partially evaluates to a constant;
//! `SK_P` reduces a primitive only when *all* arguments are constants. A
//! differential test in the workspace checks that [`crate::OnlinePe`] with
//! an empty facet set computes identical residual programs (partial
//! evaluation subsumes the PE facet alone, Definition 7).

use ppe_lang::{Const, Expr, FunDef, Program, Symbol, Value};

use crate::builder::{wrap_lets, Env, Probe, ResidualBuilder};
use crate::config::PeConfig;
use crate::error::PeError;
use crate::input::Residual;

/// One input to the simple partial evaluator: a first-order constant or
/// nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimpleInput {
    /// A known constant.
    Known(Const),
    /// An unknown input.
    Dynamic,
}

/// The simple (conventional) partial evaluator of Figure 2.
///
/// # Examples
///
/// ```
/// use ppe_lang::{parse_program, Const};
/// use ppe_online::{SimpleInput, SimplePe};
///
/// let p = parse_program(
///     "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
/// )?;
/// let pe = SimplePe::new(&p);
/// let residual = pe.specialize_main(&[
///     SimpleInput::Dynamic,
///     SimpleInput::Known(Const::Int(3)),
/// ])?;
/// // power(x, 3) unfolds to (* x (* x (* x 1))).
/// assert_eq!(residual.program.defs().len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SimplePe<'a> {
    program: &'a Program,
    config: PeConfig,
}

/// Run state. The simple evaluator specializes each function once, at the
/// fully dynamic pattern, so its `Sf` key is the function alone.
type St<'p> = ResidualBuilder<'p, (), ()>;

impl<'a> SimplePe<'a> {
    /// Creates a simple partial evaluator with the default policy.
    pub fn new(program: &'a Program) -> SimplePe<'a> {
        SimplePe {
            program,
            config: PeConfig::default(),
        }
    }

    /// Creates a simple partial evaluator with an explicit policy.
    pub fn with_config(program: &'a Program, config: PeConfig) -> SimplePe<'a> {
        SimplePe { program, config }
    }

    /// Specializes the main function (the paper's `SPE_Prog`).
    ///
    /// # Errors
    ///
    /// See [`PeError`].
    pub fn specialize_main(&self, inputs: &[SimpleInput]) -> Result<Residual, PeError> {
        self.specialize(self.program.main().name, inputs)
    }

    /// Specializes a named function.
    ///
    /// # Errors
    ///
    /// See [`PeError`].
    pub fn specialize(&self, name: Symbol, inputs: &[SimpleInput]) -> Result<Residual, PeError> {
        let def = self
            .program
            .lookup(name)
            .ok_or(PeError::UnknownFunction(name))?;
        if def.arity() != inputs.len() {
            return Err(PeError::InputArity {
                function: name,
                expected: def.arity(),
                got: inputs.len(),
            });
        }
        // The simple evaluator has no facet products, so only scalar
        // (constant) parameters reify.
        let mut st = St::new(&self.config, self.program, None);
        let mut env = Env::new();
        let mut kept_params = Vec::new();
        for (param, input) in def.params.iter().zip(inputs) {
            match input {
                SimpleInput::Known(c) => env.push(*param, Expr::Const(*c), ()),
                SimpleInput::Dynamic => {
                    kept_params.push(*param);
                    env.push(*param, Expr::Var(*param), ());
                }
            }
        }
        let body = self.pe(&def.body, &mut env, 0, &mut st)?;
        // Dropping parameters the residual no longer mentions mirrors the
        // parameterized specializer, keeping the two residual-equivalent.
        st.finish(name, kept_params, body)
    }

    /// The valuation function `SPE` of Figure 2, behind the governor's
    /// recursion guard (see [`crate::Governor::enter_recursion`]).
    fn pe(&self, e: &Expr, env: &mut Env<()>, depth: u32, st: &mut St) -> Result<Expr, PeError> {
        st.gov.enter_recursion()?;
        let out = self.pe_inner(e, env, depth, st);
        st.gov.exit_recursion();
        out
    }

    fn pe_inner(
        &self,
        e: &Expr,
        env: &mut Env<()>,
        depth: u32,
        st: &mut St,
    ) -> Result<Expr, PeError> {
        st.spend()?;
        if let Some(c) = st.spec_eval(e, env)? {
            return Ok(Expr::Const(c));
        }
        match e {
            Expr::Const(c) => Ok(Expr::Const(*c)),
            Expr::Var(x) => env
                .lookup(*x)
                .map(|(r, _)| r.clone())
                .ok_or_else(|| PeError::MalformedResidual(format!("unbound `{x}`"))),
            // SK_P: reduce iff every argument is a constant.
            Expr::Prim(p, args) => {
                let mut residuals = Vec::with_capacity(args.len());
                for a in args {
                    residuals.push(self.pe(a, env, depth, st)?);
                }
                let consts: Option<Vec<Const>> = residuals.iter().map(|r| r.as_const()).collect();
                if let Some(cs) = consts {
                    let vals: Vec<Value> = cs.iter().map(|c| Value::from_const(*c)).collect();
                    if let Ok(v) = p.eval(&vals) {
                        if let Some(c) = v.to_const() {
                            st.stats.reductions += 1;
                            return Ok(Expr::Const(c));
                        }
                    }
                }
                st.stats.residual_prims += 1;
                Ok(Expr::Prim(*p, residuals))
            }
            Expr::If(c, t, f) => {
                let cr = self.pe(c, env, depth, st)?;
                if let Expr::Const(cc) = cr {
                    if let Some(b) = cc.as_bool() {
                        st.stats.static_branches += 1;
                        return self.pe(if b { t } else { f }, env, depth, st);
                    }
                }
                st.stats.dynamic_branches += 1;
                let tr = self.pe(t, env, depth, st)?;
                let fr = self.pe(f, env, depth, st)?;
                Ok(Expr::If(Box::new(cr), Box::new(tr), Box::new(fr)))
            }
            Expr::Let(x, b, body) => {
                let br = self.pe(b, env, depth, st)?;
                let mark = env.mark();
                if matches!(br, Expr::Const(_) | Expr::Var(_) | Expr::FnRef(_)) {
                    env.push(*x, br, ());
                    let out = self.pe(body, env, depth, st);
                    env.reset(mark);
                    out
                } else {
                    let xr = st.binder(*x, env);
                    env.push(*x, Expr::Var(xr), ());
                    let bodyr = self.pe(body, env, depth, st)?;
                    env.reset(mark);
                    Ok(Expr::Let(xr, Box::new(br), Box::new(bodyr)))
                }
            }
            Expr::Call(f, args) => {
                let mut residuals = Vec::with_capacity(args.len());
                for a in args {
                    residuals.push(self.pe(a, env, depth, st)?);
                }
                self.app(*f, residuals, depth, st)
            }
            Expr::FnRef(f) => {
                let spec = self.generalized_spec(*f, st)?;
                Ok(Expr::FnRef(spec))
            }
            Expr::Lambda(params, body) => {
                let mark = env.mark();
                let residual_params: Vec<Symbol> =
                    params.iter().map(|p| st.binder(*p, env)).collect();
                for (p, pr) in params.iter().zip(&residual_params) {
                    env.push(*p, Expr::Var(*pr), ());
                }
                let br = self.pe(body, env, depth, st)?;
                env.reset(mark);
                Ok(Expr::Lambda(residual_params, Box::new(br)))
            }
            Expr::App(f, args) => {
                let fr = self.pe(f, env, depth, st)?;
                let mut residuals = Vec::with_capacity(args.len());
                for a in args {
                    residuals.push(self.pe(a, env, depth, st)?);
                }
                match fr {
                    Expr::FnRef(g) => {
                        let original = st.source_of(g);
                        self.app(original, residuals, depth, st)
                    }
                    Expr::Lambda(params, body)
                        if depth < self.config.max_unfold_depth && !st.gov.is_exhausted() =>
                    {
                        st.stats.unfolds += 1;
                        let mut inner = Env::closed_over(&params, &body, ());
                        let mut lets = Vec::new();
                        for (p, r) in params.iter().zip(residuals) {
                            st.bind_param(*p, r, (), &mut inner, &mut lets);
                        }
                        let out = self.pe(&body, &mut inner, depth + 1, st)?;
                        st.retain_walked(Expr::Lambda(params, body));
                        Ok(wrap_lets(lets, out))
                    }
                    other => Ok(Expr::App(Box::new(other), residuals)),
                }
            }
        }
    }

    fn app(
        &self,
        f: Symbol,
        residuals: Vec<Expr>,
        depth: u32,
        st: &mut St,
    ) -> Result<Expr, PeError> {
        let def = self.program.lookup(f).ok_or(PeError::UnknownFunction(f))?;
        let has_static = residuals
            .iter()
            .any(|r| matches!(r, Expr::Const(_) | Expr::FnRef(_) | Expr::Lambda(..)));
        if has_static && st.gov.may_unfold(depth, self.config.max_unfold_depth, f) {
            st.stats.unfolds += 1;
            let mut inner = Env::new();
            let mut lets = Vec::new();
            for (p, r) in def.params.iter().zip(residuals) {
                st.bind_param(*p, r, (), &mut inner, &mut lets);
            }
            let out = self.pe(&def.body, &mut inner, depth + 1, st)?;
            return Ok(wrap_lets(lets, out));
        }
        // Fold onto the (single, fully dynamic) specialization of `f`.
        let spec = self.generalized_spec(f, st)?;
        Ok(Expr::Call(spec, residuals))
    }

    fn generalized_spec(&self, f: Symbol, st: &mut St) -> Result<Symbol, PeError> {
        let def = self.program.lookup(f).ok_or(PeError::UnknownFunction(f))?;
        let name = match st.probe(f, (), || ())? {
            Probe::Hit(name, _) => return Ok(name),
            Probe::Miss(name, ()) => name,
        };
        let mut inner = Env::new();
        for p in &def.params {
            inner.push(*p, Expr::Var(*p), ());
        }
        let body = self.pe(&def.body, &mut inner, 0, st)?;
        st.complete(f, (), FunDef::new(name, def.params.clone(), body), ())?;
        Ok(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppe_lang::{parse_program, pretty_program, Evaluator};

    fn specialize(src: &str, inputs: &[SimpleInput]) -> Residual {
        let p = parse_program(src).unwrap();
        SimplePe::new(&p).specialize_main(inputs).unwrap()
    }

    #[test]
    fn power_unfolds_on_a_static_exponent() {
        let r = specialize(
            "(define (power x n) (if (= n 0) 1 (* x (power x (- n 1)))))",
            &[SimpleInput::Dynamic, SimpleInput::Known(Const::Int(3))],
        );
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(* x (* x (* x 1)))"), "{printed}");
        assert_eq!(r.stats.unfolds, 3);
        assert_eq!(r.stats.specializations, 0);
    }

    #[test]
    fn fully_static_input_computes_the_answer() {
        let r = specialize(
            "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
            &[SimpleInput::Known(Const::Int(5))],
        );
        assert_eq!(r.program.main().body, Expr::int(120));
        assert!(r.program.main().params.is_empty());
    }

    #[test]
    fn fully_dynamic_input_folds_to_one_specialization() {
        let r = specialize(
            "(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))",
            &[SimpleInput::Dynamic],
        );
        // fact is specialized once; the recursive call folds onto it.
        assert_eq!(r.stats.specializations, 1);
        assert_eq!(r.program.defs().len(), 2);
    }

    #[test]
    fn residual_agrees_with_source_on_dynamic_inputs() {
        let src = "(define (f x n) (if (= n 0) x (+ x (f x (- n 1)))))";
        let p = parse_program(src).unwrap();
        let r = SimplePe::new(&p)
            .specialize_main(&[SimpleInput::Dynamic, SimpleInput::Known(Const::Int(4))])
            .unwrap();
        let mut ev_src = Evaluator::new(&p);
        let mut ev_res = Evaluator::new(&r.program);
        for x in [-3i64, 0, 10] {
            let expected = ev_src.run_main(&[Value::Int(x), Value::Int(4)]).unwrap();
            let got = ev_res.run_main(&[Value::Int(x)]).unwrap();
            assert_eq!(expected, got, "x = {x}");
        }
    }

    #[test]
    fn let_insertion_preserves_non_trivial_arguments() {
        // The argument (+ x 1) must not be duplicated into both uses of y.
        let src = "(define (main x) (g (+ x 1) 2))
                   (define (g y n) (if (= n 0) 0 (+ y (g y (- n 1)))))";
        let r = specialize(src, &[SimpleInput::Dynamic]);
        let printed = pretty_program(&r.program);
        let occurrences = printed.matches("(+ x 1)").count();
        assert_eq!(occurrences, 1, "{printed}");
    }

    #[test]
    fn dynamic_conditional_keeps_both_branches() {
        let r = specialize(
            "(define (f x) (if (< x 0) (neg x) x))",
            &[SimpleInput::Dynamic],
        );
        assert_eq!(r.stats.dynamic_branches, 1);
        let printed = pretty_program(&r.program);
        assert!(printed.contains("(if (< x 0) (neg x) x)"), "{printed}");
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let p = parse_program("(define (f x) x)").unwrap();
        let err = SimplePe::new(&p).specialize_main(&[]).unwrap_err();
        assert!(matches!(err, PeError::InputArity { .. }));
    }

    #[test]
    fn non_terminating_static_recursion_is_generalized() {
        // f(n) = f(n + 1): unfolding cannot consume the static argument;
        // the generalization fallback must terminate with a residual loop.
        let src = "(define (f n) (if (< n 0) 0 (f (+ n 1))))";
        let p = parse_program(src).unwrap();
        let config = PeConfig {
            max_unfold_depth: 16,
            ..PeConfig::default()
        };
        let r = SimplePe::with_config(&p, config)
            .specialize_main(&[SimpleInput::Known(Const::Int(0))])
            .unwrap();
        assert_eq!(r.stats.specializations, 1);
    }

    #[test]
    fn higher_order_known_target_is_inlined() {
        let src = "(define (main x) (twice inc x))
                   (define (twice f x) (f (f x)))
                   (define (inc x) (+ x 1))";
        let r = specialize(src, &[SimpleInput::Known(Const::Int(5))]);
        assert_eq!(r.program.main().body, Expr::int(7));
    }
}
