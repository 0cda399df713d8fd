//! Products of abstract facets (Definition 9) with the binding-time facet
//! at component 0 (Section 5.4) — the domain `SD̃` of facet analysis.

use std::cell::OnceCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use ppe_lang::{Const, Prim, StdOpClass, Value};

use crate::abs_val::AbsVal;
use crate::abstract_facet::{AbstractArg, AbstractFacet};
use crate::bt_val::{bt_op, BtVal};
use crate::facet::Facet;
use crate::lattice::Lattice;

/// The product of abstract facets derived from a [`crate::FacetSet`]
/// (Definition 9). Pairs each online facet with its offline abstraction so
/// that the composite `Γ̄ᵢ = ᾱ_D̄ᵢ ∘ α̂_D̂ᵢ` of Figure 4 can abstract
/// constants.
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::SizeFacet, AbstractProductVal, FacetSet};
///
/// let set = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
/// let aset = set.abstract_set();
/// let dyn_all = AbstractProductVal::dynamic(&aset);
/// assert!(dyn_all.bt().is_dynamic());
/// ```
#[derive(Debug)]
pub struct AbstractFacetSet {
    pairs: Vec<(Rc<dyn Facet>, Rc<dyn AbstractFacet>)>,
}

impl AbstractFacetSet {
    /// Builds the set from (online facet, abstract facet) pairs.
    pub fn from_facets(pairs: Vec<(Rc<dyn Facet>, Rc<dyn AbstractFacet>)>) -> AbstractFacetSet {
        AbstractFacetSet { pairs }
    }

    /// Number of user facets.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if only the binding-time facet is present.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `i`-th abstract facet.
    pub fn abstract_facet(&self, i: usize) -> &dyn AbstractFacet {
        self.pairs[i].1.as_ref()
    }

    /// The `i`-th online facet (used for `Γ̄` and by the specializer).
    pub fn online_facet(&self, i: usize) -> &dyn Facet {
        self.pairs[i].0.as_ref()
    }

    /// Iterates over the abstract facets in component order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn AbstractFacet> {
        self.pairs.iter().map(|(_, a)| a.as_ref())
    }

    /// `Γ̄ᵢ(v) = ᾱ_D̄ᵢ(α̂_D̂ᵢ(v))` — abstraction of a concrete value into the
    /// `i`-th abstract facet (Figure 4's `K̄`).
    pub fn gamma_bar(&self, i: usize, v: &Value) -> AbsVal {
        let (facet, abs) = &self.pairs[i];
        if let Some(direct) = abs.alpha_value(v) {
            return direct;
        }
        abs.alpha_facet(&facet.alpha(v))
    }

    /// The abstract product operator `ω̄_p` (Definition 9), folded into the
    /// `K̃_P` case analysis of Figure 4.
    pub fn abstract_prim(&self, p: Prim, args: &[AbstractProductVal]) -> AbstractPrimResult {
        if args.iter().any(|a| a.is_bottom(self)) {
            return AbstractPrimResult {
                value: AbstractProductVal::bottom(self),
                static_sources: Vec::new(),
            };
        }
        let bts: Vec<BtVal> = args.iter().map(|a| *a.bt()).collect();
        let bt_result = bt_op(p, &bts);
        match p.std_class() {
            StdOpClass::Closed => {
                // Definition 9(a): componentwise.
                if bt_result == BtVal::Bottom {
                    return AbstractPrimResult {
                        value: AbstractProductVal::bottom(self),
                        static_sources: Vec::new(),
                    };
                }
                let mut components = Vec::with_capacity(self.pairs.len());
                for (i, (_, abs)) in self.pairs.iter().enumerate() {
                    let wrapped: Vec<AbstractArg<'_>> = args
                        .iter()
                        .map(|a| AbstractArg {
                            bt: a.bt(),
                            abs: a.facet(i),
                        })
                        .collect();
                    let out = abs.closed_op(p, &wrapped);
                    if out == abs.bottom() {
                        return AbstractPrimResult {
                            value: AbstractProductVal::bottom(self),
                            static_sources: Vec::new(),
                        };
                    }
                    components.push(out);
                }
                let static_sources = if bt_result == BtVal::Static {
                    vec![0]
                } else {
                    Vec::new()
                };
                AbstractPrimResult {
                    value: AbstractProductVal::from_parts(bt_result, components),
                    static_sources,
                }
            }
            StdOpClass::Open => {
                // Definition 9(b): ⊥ dominates; any Static makes the
                // result Static; else Dynamic. Figure 4's K̃_P[p°] then
                // tops out every facet component.
                let mut results = Vec::with_capacity(self.pairs.len() + 1);
                results.push(bt_result);
                for (i, (_, abs)) in self.pairs.iter().enumerate() {
                    let wrapped: Vec<AbstractArg<'_>> = args
                        .iter()
                        .map(|a| AbstractArg {
                            bt: a.bt(),
                            abs: a.facet(i),
                        })
                        .collect();
                    results.push(abs.open_op(p, &wrapped));
                }
                if results.contains(&BtVal::Bottom) {
                    return AbstractPrimResult {
                        value: AbstractProductVal::bottom(self),
                        static_sources: Vec::new(),
                    };
                }
                let static_sources: Vec<usize> = results
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| **r == BtVal::Static)
                    .map(|(i, _)| i)
                    .collect();
                let d = if static_sources.is_empty() {
                    BtVal::Dynamic
                } else {
                    BtVal::Static
                };
                AbstractPrimResult {
                    value: AbstractProductVal::from_parts(
                        d,
                        self.pairs.iter().map(|(_, a)| a.top()).collect(),
                    ),
                    static_sources,
                }
            }
        }
    }
}

/// Result of [`AbstractFacetSet::abstract_prim`].
#[derive(Clone, Debug, PartialEq)]
pub struct AbstractPrimResult {
    /// The computed abstract product value.
    pub value: AbstractProductVal,
    /// Which components determined a `Static` outcome: `0` is the
    /// binding-time facet, `i + 1` is user facet `i`. The offline
    /// specializer uses this to *select the reduction operations prior to
    /// specialization* (Section 1's third contribution).
    pub static_sources: Vec<usize>,
}

/// An element of the smashed product `Values̄ ⊗ D̄₁ ⊗ … ⊗ D̄ₘ`
/// (Definition 9), ordered componentwise; the values manipulated by facet
/// analysis (Figure 4) and recorded in facet signatures.
///
/// Cloning is O(1): the components live behind a shared reference-counted
/// payload (the value is immutable, so sharing is unobservable), equality
/// takes a pointer-identity fast path, and the smashed-bottom test is
/// computed once per payload. Facet signatures snapshot and compare vectors
/// of these on every fixpoint iteration, so cheap `clone`/`Eq` here is what
/// makes the analysis loop cheap.
#[derive(Clone)]
pub struct AbstractProductVal(Rc<AbstractProductInner>);

struct AbstractProductInner {
    bt: BtVal,
    facets: Vec<AbsVal>,
    /// Cached [`AbstractProductVal::is_bottom`] (bottomness never changes —
    /// the payload is immutable, and every use site passes the same
    /// governing facet set).
    bottom: OnceCell<bool>,
}

impl AbstractProductVal {
    fn from_parts(bt: BtVal, facets: Vec<AbsVal>) -> AbstractProductVal {
        AbstractProductVal(Rc::new(AbstractProductInner {
            bt,
            facets,
            bottom: OnceCell::new(),
        }))
    }

    /// The bottom product.
    pub fn bottom(set: &AbstractFacetSet) -> AbstractProductVal {
        AbstractProductVal::from_parts(
            BtVal::Bottom,
            set.pairs.iter().map(|(_, a)| a.bottom()).collect(),
        )
    }

    /// The fully dynamic product: `Dynamic` with every facet `⊤`.
    pub fn dynamic(set: &AbstractFacetSet) -> AbstractProductVal {
        AbstractProductVal::from_parts(
            BtVal::Dynamic,
            set.pairs.iter().map(|(_, a)| a.top()).collect(),
        )
    }

    /// The fully static product with every facet `⊤` (a known input with
    /// no extra property information).
    pub fn static_top(set: &AbstractFacetSet) -> AbstractProductVal {
        AbstractProductVal::from_parts(
            BtVal::Static,
            set.pairs.iter().map(|(_, a)| a.top()).collect(),
        )
    }

    /// Abstracts a constant into every component — Figure 4's `K̄[c]`.
    pub fn from_const(c: Const, set: &AbstractFacetSet) -> AbstractProductVal {
        let v = Value::from_const(c);
        AbstractProductVal::from_parts(
            BtVal::Static,
            (0..set.len()).map(|i| set.gamma_bar(i, &v)).collect(),
        )
    }

    /// Builds a product from raw components.
    ///
    /// # Panics
    ///
    /// Panics if the number of facet components differs from `set.len()`.
    pub fn from_components(
        bt: BtVal,
        facets: Vec<AbsVal>,
        set: &AbstractFacetSet,
    ) -> AbstractProductVal {
        assert_eq!(
            facets.len(),
            set.len(),
            "product arity must match the facet set"
        );
        AbstractProductVal::from_parts(bt, facets)
    }

    /// The binding-time component (component 0).
    pub fn bt(&self) -> &BtVal {
        &self.0.bt
    }

    /// The `i`-th user facet's component.
    pub fn facet(&self, i: usize) -> &AbsVal {
        &self.0.facets[i]
    }

    /// All user facet components, in order.
    pub fn facet_components(&self) -> &[AbsVal] {
        &self.0.facets
    }

    /// Returns a copy with the `i`-th facet component replaced — "this
    /// argument is dynamic but its size is static" (`⟨Dyn, s⟩`, Figure 9).
    #[must_use]
    pub fn with_facet(&self, i: usize, abs: AbsVal) -> AbstractProductVal {
        if self.0.facets[i] == abs {
            return self.clone();
        }
        let mut facets = self.0.facets.clone();
        facets[i] = abs;
        AbstractProductVal::from_parts(self.0.bt, facets)
    }

    /// Returns a copy with the binding-time component replaced.
    #[must_use]
    pub fn with_bt(&self, bt: BtVal) -> AbstractProductVal {
        if self.0.bt == bt {
            return self.clone();
        }
        AbstractProductVal::from_parts(bt, self.0.facets.clone())
    }

    /// Returns a copy whose binding-time component is forced `Dynamic`
    /// while facet components are kept — the dynamic-conditional rule of
    /// Figure 4's `Ẽ[if]`.
    #[must_use]
    pub fn force_dynamic(&self) -> AbstractProductVal {
        self.with_bt(BtVal::Dynamic)
    }

    /// True if the value is (smashed) `⊥`.
    pub fn is_bottom(&self, set: &AbstractFacetSet) -> bool {
        *self.0.bottom.get_or_init(|| {
            self.0.bt == BtVal::Bottom
                || self
                    .0
                    .facets
                    .iter()
                    .zip(&set.pairs)
                    .any(|(v, (_, a))| *v == a.bottom())
        })
    }

    /// Componentwise join. Smashed bottoms are identities: `⊥ ⊔ x = x`.
    #[must_use]
    pub fn join(&self, other: &AbstractProductVal, set: &AbstractFacetSet) -> AbstractProductVal {
        if Rc::ptr_eq(&self.0, &other.0) {
            // x ⊔ x = x (idempotence is part of the AbstractFacet contract).
            return self.clone();
        }
        if self.is_bottom(set) {
            return other.clone();
        }
        if other.is_bottom(set) {
            return self.clone();
        }
        AbstractProductVal::from_parts(
            self.0.bt.join(&other.0.bt),
            self.0
                .facets
                .iter()
                .zip(&other.0.facets)
                .zip(&set.pairs)
                .map(|((a, b), (_, f))| f.join(a, b))
                .collect(),
        )
    }

    /// Componentwise order (smashed: `⊥` below everything).
    pub fn leq(&self, other: &AbstractProductVal, set: &AbstractFacetSet) -> bool {
        if Rc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.is_bottom(set) {
            return true;
        }
        if other.is_bottom(set) {
            return false;
        }
        self.0.bt.leq(&other.0.bt)
            && self
                .0
                .facets
                .iter()
                .zip(&other.0.facets)
                .zip(&set.pairs)
                .all(|((a, b), (_, f))| f.leq(a, b))
    }

    /// Componentwise widening (for facets of infinite height). Smashed
    /// bottoms are identities, as for [`AbstractProductVal::join`].
    #[must_use]
    pub fn widen(&self, newer: &AbstractProductVal, set: &AbstractFacetSet) -> AbstractProductVal {
        if self.is_bottom(set) {
            return newer.clone();
        }
        if newer.is_bottom(set) {
            return self.clone();
        }
        AbstractProductVal::from_parts(
            self.0.bt.join(&newer.0.bt),
            self.0
                .facets
                .iter()
                .zip(&newer.0.facets)
                .zip(&set.pairs)
                .map(|((a, b), (_, f))| f.widen(a, b))
                .collect(),
        )
    }

    /// Renders the product as the paper's `⟨Dyn, s⟩` tuples (Figure 9).
    pub fn display(&self) -> String {
        self.to_string()
    }
}

impl PartialEq for AbstractProductVal {
    fn eq(&self, other: &AbstractProductVal) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
            || (self.0.bt == other.0.bt && self.0.facets == other.0.facets)
    }
}

impl Eq for AbstractProductVal {}

impl Hash for AbstractProductVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.bt.hash(state);
        self.0.facets.hash(state);
    }
}

impl fmt::Debug for AbstractProductVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AbstractProductVal")
            .field("bt", &self.0.bt)
            .field("facets", &self.0.facets)
            .finish()
    }
}

impl fmt::Display for AbstractProductVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}", self.0.bt)?;
        for v in &self.0.facets {
            write!(f, ", {v}")?;
        }
        f.write_str("⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facets::{SignFacet, SignVal};
    use crate::product::FacetSet;

    fn aset() -> AbstractFacetSet {
        FacetSet::with_facets(vec![Box::new(SignFacet)]).abstract_set()
    }

    #[test]
    fn from_const_abstracts_through_both_levels() {
        let s = aset();
        let v = AbstractProductVal::from_const(Const::Int(-3), &s);
        assert_eq!(*v.bt(), BtVal::Static);
        assert_eq!(v.facet(0).downcast_ref::<SignVal>(), Some(&SignVal::Neg));
    }

    #[test]
    fn closed_prim_static_args_stay_static() {
        let s = aset();
        let a = AbstractProductVal::from_const(Const::Int(2), &s);
        let r = s.abstract_prim(Prim::Add, &[a.clone(), a]);
        assert_eq!(*r.value.bt(), BtVal::Static);
        assert_eq!(r.static_sources, vec![0]);
        assert_eq!(
            r.value.facet(0).downcast_ref::<SignVal>(),
            Some(&SignVal::Pos)
        );
    }

    #[test]
    fn open_prim_static_via_sign_facet() {
        // Example 2's ≺̄: neg < pos is Static even with dynamic arguments.
        let s = aset();
        let neg = AbstractProductVal::dynamic(&s).with_facet(0, AbsVal::new(SignVal::Neg));
        let pos = AbstractProductVal::dynamic(&s).with_facet(0, AbsVal::new(SignVal::Pos));
        let r = s.abstract_prim(Prim::Lt, &[neg, pos]);
        assert_eq!(*r.value.bt(), BtVal::Static);
        assert_eq!(r.static_sources, vec![1]); // the Sign facet, not BT
                                               // Facet components are topped per Figure 4.
        assert_eq!(
            r.value.facet(0).downcast_ref::<SignVal>(),
            Some(&SignVal::Top)
        );
    }

    #[test]
    fn open_prim_dynamic_when_no_facet_helps() {
        let s = aset();
        let d = AbstractProductVal::dynamic(&s);
        let r = s.abstract_prim(Prim::Lt, &[d.clone(), d]);
        assert_eq!(*r.value.bt(), BtVal::Dynamic);
        assert!(r.static_sources.is_empty());
    }

    #[test]
    fn bottom_smashes() {
        let s = aset();
        let bot = AbstractProductVal::bottom(&s);
        let d = AbstractProductVal::dynamic(&s);
        let r = s.abstract_prim(Prim::Add, &[bot, d]);
        assert!(r.value.is_bottom(&s));
    }

    #[test]
    fn join_and_order() {
        let s = aset();
        let a = AbstractProductVal::from_const(Const::Int(1), &s);
        let d = AbstractProductVal::dynamic(&s);
        let j = a.join(&d, &s);
        assert_eq!(*j.bt(), BtVal::Dynamic);
        assert!(a.leq(&j, &s));
        assert!(AbstractProductVal::bottom(&s).leq(&a, &s));
        assert!(!d.leq(&a, &s));
    }

    #[test]
    fn display_matches_figure_9_style() {
        let s = aset();
        let v = AbstractProductVal::dynamic(&s).with_facet(0, AbsVal::new(SignVal::Pos));
        assert_eq!(v.display(), "⟨Dyn, pos⟩");
    }
}
