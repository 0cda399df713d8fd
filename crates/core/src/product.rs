//! Products of facets (Definition 5) and their product operators, with the
//! partial evaluation facet at component 0 (Section 4.4).
//!
//! A [`FacetSet`] is the collection of user facets a partial evaluation is
//! parameterized by; a [`ProductVal`] is an element of the smashed product
//! `Values ⊗ D̂₁ ⊗ … ⊗ D̂ₘ`. The product operators of Definition 5 are
//! realized by [`FacetSet::prim_product`], whose result classification
//! ([`PrimOutcome`]) is exactly the case analysis of `K̂_P` in Figure 3.

use std::cell::OnceCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

use ppe_lang::{Const, Prim, StdOpClass, Value};

use crate::abs_val::AbsVal;
use crate::abstract_product::AbstractFacetSet;
use crate::facet::{Facet, FacetArg};
use crate::lattice::Lattice;
use crate::pe_val::{pe_op, PeVal};
use crate::short_list::ShortList;

/// The set of facets a partial evaluation is parameterized by.
///
/// The partial evaluation facet (Definition 7) is always present implicitly
/// as component 0 of every [`ProductVal`]; an empty `FacetSet` therefore
/// yields exactly conventional partial evaluation (Figure 2).
///
/// # Examples
///
/// ```
/// use ppe_core::{facets::SignFacet, FacetSet, ProductVal};
/// use ppe_lang::{Const, Prim};
///
/// let set = FacetSet::with_facets(vec![Box::new(SignFacet)]);
/// let three = ProductVal::from_const(Const::Int(3), &set);
/// assert!(three.pe().is_const());
/// ```
#[derive(Debug, Default)]
pub struct FacetSet {
    facets: Vec<Rc<dyn Facet>>,
    /// [`ProductVal::dynamic`] over this set, built on first use. The
    /// engines ask for it at every residual call, λ and unknown open
    /// operator; one payload serves them all. Only ever judged by
    /// [`ProductVal::is_bottom`] against this set, whose
    /// [`FacetSet::push`] resets it.
    top: OnceCell<ProductVal>,
    /// [`ProductVal::bottom`] over this set, likewise.
    bottom: OnceCell<ProductVal>,
}

impl FacetSet {
    /// An empty set: conventional (non-parameterized) partial evaluation.
    pub fn new() -> FacetSet {
        FacetSet::default()
    }

    /// Builds a set from user facets; order fixes component indices
    /// (component `i + 1` of the paper's product is `facets[i]`).
    pub fn with_facets(facets: Vec<Box<dyn Facet>>) -> FacetSet {
        FacetSet {
            facets: facets.into_iter().map(Rc::from).collect(),
            ..FacetSet::default()
        }
    }

    /// Adds a facet, returning its component index among user facets.
    pub fn push(&mut self, facet: Box<dyn Facet>) -> usize {
        self.facets.push(Rc::from(facet));
        self.top.take();
        self.bottom.take();
        self.facets.len() - 1
    }

    /// Number of user facets (the paper's `m - 1`, the PE facet excluded).
    pub fn len(&self) -> usize {
        self.facets.len()
    }

    /// True if only the partial evaluation facet is present.
    pub fn is_empty(&self) -> bool {
        self.facets.is_empty()
    }

    /// The user facets, in component order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Facet> {
        self.facets.iter().map(|f| f.as_ref())
    }

    /// The user facet at index `i`.
    pub fn facet(&self, i: usize) -> &dyn Facet {
        self.facets[i].as_ref()
    }

    /// Finds a user facet index by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.facets.iter().position(|f| f.name() == name)
    }

    /// Derives the product of abstract facets (Definition 9) for offline
    /// partial evaluation, pairing each facet with its
    /// [`Facet::abstract_facet`].
    pub fn abstract_set(&self) -> AbstractFacetSet {
        AbstractFacetSet::from_facets(
            self.facets
                .iter()
                .map(|f| (Rc::clone(f), f.abstract_facet()))
                .collect(),
        )
    }

    /// The product operator `ω̂_p` for `p` (Definition 5), folded into the
    /// full `K̂_P` case analysis of Figure 3. Any `⊥` argument smashes the
    /// result to [`PrimOutcome::Bottom`].
    pub fn prim_product(&self, p: Prim, args: &[ProductVal]) -> PrimOutcome {
        if args.iter().any(|a| a.is_bottom(self)) {
            return PrimOutcome::Bottom;
        }
        let pes: ShortList<PeVal> = args.iter().map(|a| *a.pe()).collect();
        let pe_result = pe_op(p, &pes);
        match p.std_class() {
            StdOpClass::Closed => {
                // Definition 5(a): componentwise; Figure 3 K̂_P[pᶜ]: a
                // constant can only come from the PE facet (component 0),
                // and then every facet re-abstracts from it (Theorem 1).
                if pe_result == PeVal::Bottom {
                    return PrimOutcome::Bottom;
                }
                if let Some(c) = pe_result.as_const() {
                    return PrimOutcome::Const(c);
                }
                // All-constant arguments with a defined, non-constant
                // result (e.g. `mkvec 3`): the value is fully computable,
                // so abstract it exactly into every facet instead of going
                // through the (necessarily weaker) abstract operators.
                if pes.iter().all(PeVal::is_const) {
                    let values: Vec<Value> = pes
                        .iter()
                        .filter_map(PeVal::as_const)
                        .map(Value::from_const)
                        .collect();
                    if let Ok(v) = p.eval(&values) {
                        return PrimOutcome::Closed(ProductVal::from_value(&v, self));
                    }
                }
                let components: Option<ShortList<AbsVal>> = self
                    .facets
                    .iter()
                    .enumerate()
                    .map(|(i, facet)| {
                        let out = facet.closed_op(p, &facet_args(args, i));
                        (out != facet.bottom()).then_some(out)
                    })
                    .collect();
                match components {
                    Some(components) => {
                        PrimOutcome::Closed(ProductVal::from_parts(pe_result, components))
                    }
                    None => PrimOutcome::Bottom,
                }
            }
            StdOpClass::Open => {
                // Definition 5(b): ⊥ dominates; otherwise the first facet
                // producing a constant wins; otherwise ⊤. Lemma 3
                // guarantees all *sound* constant-producing facets agree;
                // a disagreement therefore proves some facet is broken, so
                // rather than pick a side (or abort), the reduction is
                // abandoned and the expression stays residual — the
                // conservative outcome that is correct whichever facet was
                // at fault.
                // Facets answer in component order, and the first ⊥ or
                // disagreement decides (the operators are pure, so the
                // facets after it need not be asked).
                let mut found: Option<Const> = None;
                let facet_results = self
                    .facets
                    .iter()
                    .enumerate()
                    .map(|(i, facet)| facet.open_op(p, &facet_args(args, i)));
                for r in std::iter::once(pe_result).chain(facet_results) {
                    match r {
                        PeVal::Bottom => return PrimOutcome::Bottom,
                        PeVal::Const(c) => {
                            if let Some(prev) = found {
                                if prev != c {
                                    return PrimOutcome::Unknown;
                                }
                            }
                            found = Some(c);
                        }
                        PeVal::Top => {}
                    }
                }
                match found {
                    Some(c) => PrimOutcome::Const(c),
                    None => PrimOutcome::Unknown,
                }
            }
        }
    }
}

/// The `i`-th facet's view of `args`, gathered on the stack.
fn facet_args(args: &[ProductVal], i: usize) -> ShortList<FacetArg<'_>> {
    args.iter()
        .map(|a| FacetArg {
            pe: a.pe(),
            abs: a.facet(i),
        })
        .collect()
}

/// Outcome of applying a primitive to product values — the case analysis
/// of `K̂_P` in Figure 3.
#[derive(Clone, Debug, PartialEq)]
pub enum PrimOutcome {
    /// The product smashed to `⊥`: keep the expression residual with value
    /// `⊥` (it denotes no value).
    Bottom,
    /// Some facet produced a constant (for a closed operator: the PE facet
    /// itself): the expression *reduces* to this constant.
    Const(Const),
    /// Closed operator with no constant: keep residual, carrying the
    /// computed product of abstract values.
    Closed(ProductVal),
    /// Open operator with no constant: keep residual; all facet components
    /// go to `⊤` (Figure 3's `(⊤_D̂₁, …, ⊤_D̂ₘ)`).
    Unknown,
}

/// An element of the smashed product `Values ⊗ D̂₁ ⊗ … ⊗ D̂ₘ`
/// (Definition 5), ordered componentwise.
///
/// Component 0 is always the partial evaluation facet's value ([`PeVal`]);
/// the remaining components belong to the user facets of the governing
/// [`FacetSet`], in order. Smashing means any `⊥` component makes the whole
/// value `⊥`; [`ProductVal::is_bottom`] tests that.
///
/// Cloning is O(1): the components live behind a shared reference-counted
/// payload (the value is immutable, so sharing is unobservable), equality
/// takes a pointer-identity fast path, and the smashed-bottom test is
/// computed once per payload. The specialization caches key on vectors of
/// these, so cheap `clone`/`Eq`/`Hash` here is what makes those keys cheap.
/// Up to four facet components live in the payload itself, so building a
/// product is one allocation.
#[derive(Clone)]
pub struct ProductVal(Rc<ProductInner>);

struct ProductInner {
    pe: PeVal,
    facets: ShortList<AbsVal>,
    /// Cached [`ProductVal::is_bottom`] (bottomness never changes — the
    /// payload is immutable, and every use site passes the same governing
    /// facet set).
    bottom: OnceCell<bool>,
}

impl ProductVal {
    fn from_parts(pe: PeVal, facets: ShortList<AbsVal>) -> ProductVal {
        ProductVal(Rc::new(ProductInner {
            pe,
            facets,
            bottom: OnceCell::new(),
        }))
    }

    /// The bottom product (every component `⊥`), one shared payload per
    /// facet set.
    pub fn bottom(set: &FacetSet) -> ProductVal {
        set.bottom
            .get_or_init(|| {
                ProductVal::from_parts(
                    PeVal::Bottom,
                    set.facets.iter().map(|f| f.bottom()).collect(),
                )
            })
            .clone()
    }

    /// The fully dynamic product (every component `⊤`) — the value of an
    /// unknown program input about which no facet knows anything — one
    /// shared payload per facet set.
    pub fn dynamic(set: &FacetSet) -> ProductVal {
        set.top
            .get_or_init(|| {
                ProductVal::from_parts(PeVal::Top, set.facets.iter().map(|f| f.top()).collect())
            })
            .clone()
    }

    /// Abstracts a constant into every component — the propagation
    /// `(α̂₁(d), …, α̂ₘ(d))` performed by `K̂` in Figure 3.
    pub fn from_const(c: Const, set: &FacetSet) -> ProductVal {
        ProductVal::from_value(&Value::from_const(c), set)
    }

    /// Abstracts a concrete value into every component.
    pub fn from_value(v: &Value, set: &FacetSet) -> ProductVal {
        ProductVal::from_parts(
            PeVal::from_value(v),
            set.facets.iter().map(|f| f.alpha(v)).collect(),
        )
    }

    /// Builds a product from raw components.
    ///
    /// # Panics
    ///
    /// Panics if the number of facet components differs from `set.len()`.
    pub fn from_components(pe: PeVal, facets: Vec<AbsVal>, set: &FacetSet) -> ProductVal {
        assert_eq!(
            facets.len(),
            set.len(),
            "product arity must match the facet set"
        );
        ProductVal::from_parts(pe, facets.into_iter().collect())
    }

    /// The partial-evaluation component (component 0).
    pub fn pe(&self) -> &PeVal {
        &self.0.pe
    }

    /// A pointer-identity token for the shared payload: two handles with
    /// equal tokens share one immutable payload, so any value *derived*
    /// from one is valid for the other. Reification caches (the
    /// specializer's VM shortcut) memoize per-payload conversions on this
    /// token instead of re-deriving them per use.
    pub fn identity(&self) -> usize {
        Rc::as_ptr(&self.0) as usize
    }

    /// The `i`-th user facet's component.
    pub fn facet(&self, i: usize) -> &AbsVal {
        &self.0.facets[i]
    }

    /// All user facet components, in order.
    pub fn facet_components(&self) -> &[AbsVal] {
        &self.0.facets
    }

    /// Returns a copy with the `i`-th user facet component replaced —
    /// used to state "this argument is dynamic but its size is 3".
    #[must_use]
    pub fn with_facet(&self, i: usize, abs: AbsVal) -> ProductVal {
        if self.0.facets[i] == abs {
            return self.clone();
        }
        let mut facets = self.0.facets.clone();
        facets[i] = abs;
        ProductVal::from_parts(self.0.pe, facets)
    }

    /// Returns a copy with the partial-evaluation component replaced.
    #[must_use]
    pub fn with_pe(&self, pe: PeVal) -> ProductVal {
        if self.0.pe == pe {
            return self.clone();
        }
        ProductVal::from_parts(pe, self.0.facets.clone())
    }

    /// True if the value is (smashed) `⊥`: some component is `⊥`.
    pub fn is_bottom(&self, set: &FacetSet) -> bool {
        *self.0.bottom.get_or_init(|| {
            self.0.pe == PeVal::Bottom
                || self
                    .0
                    .facets
                    .iter()
                    .zip(&set.facets)
                    .any(|(v, f)| *v == f.bottom())
        })
    }

    /// Componentwise join (the product lattice's least upper bound).
    /// Smashed bottoms are identities: `⊥ ⊔ x = x`.
    #[must_use]
    pub fn join(&self, other: &ProductVal, set: &FacetSet) -> ProductVal {
        if Rc::ptr_eq(&self.0, &other.0) {
            // x ⊔ x = x (idempotence is part of the Facet contract).
            return self.clone();
        }
        if self.is_bottom(set) {
            return other.clone();
        }
        if other.is_bottom(set) {
            return self.clone();
        }
        ProductVal::from_parts(
            self.0.pe.join(&other.0.pe),
            self.0
                .facets
                .iter()
                .zip(other.0.facets.iter())
                .zip(&set.facets)
                .map(|((a, b), f)| f.join(a, b))
                .collect(),
        )
    }

    /// Componentwise order (smashed: `⊥` below everything).
    pub fn leq(&self, other: &ProductVal, set: &FacetSet) -> bool {
        if Rc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        if self.is_bottom(set) {
            return true;
        }
        if other.is_bottom(set) {
            return false;
        }
        self.0.pe.leq(&other.0.pe)
            && self
                .0
                .facets
                .iter()
                .zip(other.0.facets.iter())
                .zip(&set.facets)
                .all(|((a, b), f)| f.leq(a, b))
    }

    /// Componentwise widening (for facets with infinite-height domains).
    /// Smashed bottoms are identities, as for [`ProductVal::join`].
    #[must_use]
    pub fn widen(&self, newer: &ProductVal, set: &FacetSet) -> ProductVal {
        if self.is_bottom(set) {
            return newer.clone();
        }
        if newer.is_bottom(set) {
            return self.clone();
        }
        ProductVal::from_parts(
            self.0.pe.join(&newer.0.pe),
            self.0
                .facets
                .iter()
                .zip(newer.0.facets.iter())
                .zip(&set.facets)
                .map(|((a, b), f)| f.widen(a, b))
                .collect(),
        )
    }

    /// Renders the product as the paper's `⟨v₁, …, vₘ⟩` tuples (Figure 9).
    pub fn display(&self) -> String {
        self.to_string()
    }
}

impl PartialEq for ProductVal {
    fn eq(&self, other: &ProductVal) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
            || (self.0.pe == other.0.pe && *self.0.facets == *other.0.facets)
    }
}

impl Eq for ProductVal {}

impl Hash for ProductVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.pe.hash(state);
        self.0.facets[..].hash(state);
    }
}

impl fmt::Debug for ProductVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProductVal")
            .field("pe", &self.0.pe)
            .field("facets", &&self.0.facets[..])
            .finish()
    }
}

impl fmt::Display for ProductVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}", self.0.pe)?;
        for v in self.0.facets.iter() {
            write!(f, ", {v}")?;
        }
        f.write_str("⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facets::{SignFacet, SignVal};

    fn sign_set() -> FacetSet {
        FacetSet::with_facets(vec![Box::new(SignFacet)])
    }

    #[test]
    fn from_const_propagates_to_all_facets() {
        let set = sign_set();
        let v = ProductVal::from_const(Const::Int(-5), &set);
        assert_eq!(*v.pe(), PeVal::Const(Const::Int(-5)));
        assert_eq!(v.facet(0).downcast_ref::<SignVal>(), Some(&SignVal::Neg));
    }

    #[test]
    fn closed_op_with_constants_reduces_via_pe_facet() {
        let set = sign_set();
        let a = ProductVal::from_const(Const::Int(2), &set);
        let b = ProductVal::from_const(Const::Int(3), &set);
        assert_eq!(
            set.prim_product(Prim::Add, &[a, b]),
            PrimOutcome::Const(Const::Int(5))
        );
    }

    #[test]
    fn closed_op_with_signs_computes_the_sign() {
        let set = sign_set();
        let pos = ProductVal::dynamic(&set).with_facet(0, AbsVal::new(SignVal::Pos));
        let out = set.prim_product(Prim::Add, &[pos.clone(), pos]);
        match out {
            PrimOutcome::Closed(v) => {
                assert_eq!(*v.pe(), PeVal::Top);
                assert_eq!(v.facet(0).downcast_ref::<SignVal>(), Some(&SignVal::Pos));
            }
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn open_op_triggered_by_a_user_facet() {
        // zero < pos reduces to `true` via the Sign facet even though the
        // PE facet knows nothing (Example 1's ≺̂).
        let set = sign_set();
        let zero = ProductVal::dynamic(&set).with_facet(0, AbsVal::new(SignVal::Zero));
        let pos = ProductVal::dynamic(&set).with_facet(0, AbsVal::new(SignVal::Pos));
        assert_eq!(
            set.prim_product(Prim::Lt, &[zero, pos]),
            PrimOutcome::Const(Const::Bool(true))
        );
    }

    #[test]
    fn open_op_with_coarse_values_is_unknown() {
        let set = sign_set();
        let top = ProductVal::dynamic(&set);
        assert_eq!(
            set.prim_product(Prim::Lt, &[top.clone(), top]),
            PrimOutcome::Unknown
        );
    }

    #[test]
    fn bottom_smashes() {
        let set = sign_set();
        let bot = ProductVal::bottom(&set);
        let top = ProductVal::dynamic(&set);
        assert!(bot.is_bottom(&set));
        assert_eq!(
            set.prim_product(Prim::Add, &[bot.clone(), top]),
            PrimOutcome::Bottom
        );
        // A single ⊥ component also smashes.
        let half = ProductVal::dynamic(&set).with_pe(PeVal::Bottom);
        assert!(half.is_bottom(&set));
    }

    #[test]
    fn join_and_leq_are_componentwise() {
        let set = sign_set();
        let a = ProductVal::from_const(Const::Int(1), &set);
        let b = ProductVal::from_const(Const::Int(2), &set);
        let j = a.join(&b, &set);
        assert_eq!(*j.pe(), PeVal::Top);
        assert_eq!(j.facet(0).downcast_ref::<SignVal>(), Some(&SignVal::Pos));
        assert!(a.leq(&j, &set) && b.leq(&j, &set));
        assert!(!j.leq(&a, &set));
        assert!(ProductVal::bottom(&set).leq(&a, &set));
    }

    #[test]
    fn constant_mkvec_keeps_exact_facet_information() {
        // `(mkvec 3)` is defined but not a constant: the product must
        // carry ⊤ in the PE component and the exact size in the Size
        // facet (regression: this used to smash to ⊥).
        use crate::facets::{SizeFacet, SizeVal};
        let set = FacetSet::with_facets(vec![Box::new(SizeFacet)]);
        let three = ProductVal::from_const(Const::Int(3), &set);
        match set.prim_product(Prim::MkVec, &[three]) {
            PrimOutcome::Closed(v) => {
                assert_eq!(*v.pe(), PeVal::Top);
                assert_eq!(
                    v.facet(0).downcast_ref::<SizeVal>(),
                    Some(&SizeVal::Known(3))
                );
            }
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn push_resets_the_shared_top_and_bottom() {
        use crate::facets::{ParityFacet, ParityVal};
        let mut set = sign_set();
        let top = ProductVal::dynamic(&set);
        let bot = ProductVal::bottom(&set);
        assert_eq!(top.identity(), ProductVal::dynamic(&set).identity());
        assert_eq!(bot.identity(), ProductVal::bottom(&set).identity());
        assert_eq!(set.push(Box::new(ParityFacet)), 1);
        let top2 = ProductVal::dynamic(&set);
        let bot2 = ProductVal::bottom(&set);
        assert_eq!(top2.facet_components().len(), 2);
        assert_eq!(bot2.facet_components().len(), 2);
        assert_eq!(top2.facet(1), &AbsVal::new(ParityVal::Top));
        assert_eq!(bot2.facet(1), &AbsVal::new(ParityVal::Bot));
        assert!(!top2.is_bottom(&set) && bot2.is_bottom(&set));
        assert_eq!(top2.to_string(), "⟨⊤, ⊤, ⊤⟩");
        // The products handed out before keep their arity.
        assert_eq!(top.facet_components().len(), 1);
        assert_eq!(bot.facet_components().len(), 1);
    }

    #[test]
    fn display_renders_tuples() {
        let set = sign_set();
        let v = ProductVal::from_const(Const::Int(3), &set);
        assert_eq!(v.display(), "⟨3, pos⟩");
    }

    #[test]
    fn empty_facet_set_is_conventional_pe() {
        let set = FacetSet::new();
        let a = ProductVal::from_const(Const::Int(10), &set);
        let b = ProductVal::dynamic(&set);
        assert_eq!(
            set.prim_product(Prim::Add, &[a.clone(), a.clone()]),
            PrimOutcome::Const(Const::Int(20))
        );
        // A closed operator over a partly dynamic argument stays residual,
        // carrying the (empty) product with a ⊤ PE component.
        match set.prim_product(Prim::Add, &[a, b.clone()]) {
            PrimOutcome::Closed(v) => assert_eq!(*v.pe(), PeVal::Top),
            other => panic!("expected Closed, got {other:?}"),
        }
        // An open operator over dynamic arguments is Unknown.
        assert_eq!(
            set.prim_product(Prim::Lt, &[b.clone(), b]),
            PrimOutcome::Unknown
        );
    }
}
