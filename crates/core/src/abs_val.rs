//! Type-erased abstract values.
//!
//! Facets are *user-defined* (that is the point of parameterized partial
//! evaluation), so the framework cannot know their domains statically.
//! [`AbsVal`] erases the concrete element type behind a cheap, clonable
//! handle that still supports the equality and hashing the specialization
//! cache needs; the owning [`crate::Facet`] downcasts with
//! [`AbsVal::downcast_ref`].
//!
//! The built-in facets hand out their commonest elements — `⊤`, `⊥` and
//! every element of a small finite domain — from a per-thread table
//! ([`SharedElements`]), so that abstracting a constant or applying an
//! operator costs a reference-count bump instead of an allocation.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Object-safe surface required of a facet-domain element.
///
/// Blanket-implemented for every `T: Any + Eq + Hash + Debug + Display`, so
/// facet authors implement nothing by hand — define an element enum/struct
/// with those derives and a `Display`, and it is ready for [`AbsVal::new`].
pub trait AbstractValue: Any + fmt::Debug + fmt::Display {
    /// Equality against another erased value (false across element types).
    fn dyn_eq(&self, other: &dyn AbstractValue) -> bool;
    /// Feeds the value into a hasher (prefixed by its type for soundness).
    fn dyn_hash(&self, state: &mut dyn Hasher);
    /// Upcast used for downcasting back to the element type.
    fn as_any(&self) -> &dyn Any;
}

impl<T> AbstractValue for T
where
    T: Any + Eq + Hash + fmt::Debug + fmt::Display,
{
    fn dyn_eq(&self, other: &dyn AbstractValue) -> bool {
        other
            .as_any()
            .downcast_ref::<T>()
            .is_some_and(|o| self == o)
    }

    fn dyn_hash(&self, mut state: &mut dyn Hasher) {
        self.type_id().hash(&mut state);
        self.hash(&mut state);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A type-erased element of some facet's abstract domain.
///
/// Equality, hashing and display delegate to the underlying element, so
/// whether two handles share one allocation is unobservable; equality
/// merely answers a shared handle without a downcast. Cloning is O(1)
/// (reference counted).
///
/// # Examples
///
/// ```
/// use ppe_core::AbsVal;
/// use ppe_core::facets::SignVal;
///
/// let a = AbsVal::new(SignVal::Pos);
/// let b = AbsVal::new(SignVal::Pos);
/// assert_eq!(a, b);
/// assert_eq!(a.downcast_ref::<SignVal>(), Some(&SignVal::Pos));
/// assert_eq!(a.to_string(), "pos");
/// ```
#[derive(Clone)]
pub struct AbsVal(Rc<dyn AbstractValue>);

impl AbsVal {
    /// Erases a domain element.
    pub fn new<T: AbstractValue>(value: T) -> AbsVal {
        AbsVal(Rc::new(value))
    }

    /// Recovers the element if it has type `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref::<T>()
    }

    /// Recovers the element, panicking with the facet's name on mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the value does not belong to `T`'s domain — which, inside
    /// a facet's operator implementations, indicates the framework passed a
    /// foreign facet's value (a bug, not a user error).
    pub fn expect_ref<T: Any>(&self, facet: &str) -> &T {
        match self.downcast_ref::<T>() {
            Some(v) => v,
            None => panic!(
                "facet `{facet}` was handed a foreign abstract value: {:?}",
                self.0
            ),
        }
    }
}

/// An element type some of whose elements the built-in facets share.
///
/// [`AbsVal::shared`] answers an element of `SHARED` with a clone of this
/// thread's one `AbsVal` for it, and any other element with a fresh
/// [`AbsVal::new`]. Facets outside this crate use [`AbsVal::new`].
pub(crate) trait SharedElements: AbstractValue + Clone + PartialEq {
    /// The elements worth sharing: `⊥`, `⊤`, and for a small finite
    /// domain every element.
    const SHARED: &'static [Self];
}

thread_local! {
    /// Per element type, the `AbsVal`s of its `SHARED` elements in order,
    /// built on the type's first use on this thread.
    static SHARED_TABLES: RefCell<Vec<(TypeId, Box<[AbsVal]>)>> =
        const { RefCell::new(Vec::new()) };
}

impl AbsVal {
    /// Erases a domain element, reusing this thread's `AbsVal` for it when
    /// the element is one of `T::SHARED`.
    pub(crate) fn shared<T: SharedElements>(value: T) -> AbsVal {
        let Some(slot) = T::SHARED.iter().position(|s| *s == value) else {
            return AbsVal::new(value);
        };
        SHARED_TABLES
            .try_with(|tables| {
                let id = TypeId::of::<T>();
                if let Some((_, table)) = tables.borrow().iter().find(|(t, _)| *t == id) {
                    return table[slot].clone();
                }
                let table: Box<[AbsVal]> = T::SHARED.iter().cloned().map(AbsVal::new).collect();
                let out = table[slot].clone();
                tables.borrow_mut().push((id, table));
                out
            })
            // Only while this thread's storage is being torn down.
            .unwrap_or_else(|_| AbsVal::new(value))
    }
}

impl PartialEq for AbsVal {
    fn eq(&self, other: &AbsVal) -> bool {
        Rc::ptr_eq(&self.0, &other.0) || self.0.dyn_eq(other.0.as_ref())
    }
}

impl Eq for AbsVal {}

impl Hash for AbsVal {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.dyn_hash(state);
    }
}

impl fmt::Debug for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl fmt::Display for AbsVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Tag(u8);

    impl fmt::Display for Tag {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "tag{}", self.0)
        }
    }

    #[derive(PartialEq, Eq, Hash, Debug)]
    struct Other(u8);

    impl fmt::Display for Other {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "other{}", self.0)
        }
    }

    #[test]
    fn equality_within_a_type() {
        assert_eq!(AbsVal::new(Tag(1)), AbsVal::new(Tag(1)));
        assert_ne!(AbsVal::new(Tag(1)), AbsVal::new(Tag(2)));
    }

    #[test]
    fn equality_across_types_is_false_even_with_same_bits() {
        assert_ne!(AbsVal::new(Tag(1)), AbsVal::new(Other(1)));
    }

    #[test]
    fn usable_as_hash_map_key() {
        let mut m = HashMap::new();
        m.insert(AbsVal::new(Tag(3)), "three");
        assert_eq!(m.get(&AbsVal::new(Tag(3))), Some(&"three"));
        assert_eq!(m.get(&AbsVal::new(Other(3))), None);
    }

    #[test]
    fn downcast_round_trips() {
        let v = AbsVal::new(Tag(7));
        assert_eq!(v.downcast_ref::<Tag>(), Some(&Tag(7)));
        assert_eq!(v.downcast_ref::<Other>(), None);
    }

    #[test]
    #[should_panic(expected = "foreign abstract value")]
    fn expect_ref_panics_on_foreign_values() {
        AbsVal::new(Tag(0)).expect_ref::<Other>("demo");
    }

    impl SharedElements for Tag {
        const SHARED: &'static [Tag] = &[Tag(0), Tag(1)];
    }

    #[test]
    fn shared_elements_are_one_allocation_per_thread() {
        let a = AbsVal::shared(Tag(1));
        let b = AbsVal::shared(Tag(1));
        assert!(Rc::ptr_eq(&a.0, &b.0));
        assert_eq!(a, AbsVal::new(Tag(1)));
        assert_ne!(AbsVal::shared(Tag(0)), a);
        // An element outside `SHARED` is a fresh allocation, equal all the same.
        let c = AbsVal::shared(Tag(2));
        assert!(!Rc::ptr_eq(&c.0, &AbsVal::shared(Tag(2)).0));
        assert_eq!(c, AbsVal::new(Tag(2)));
        // Another thread builds its own table.
        let there = std::thread::spawn(|| AbsVal::shared(Tag(1)).to_string());
        assert_eq!(there.join().unwrap(), a.to_string());
    }

    #[test]
    fn display_and_debug_delegate() {
        let v = AbsVal::new(Tag(5));
        assert_eq!(v.to_string(), "tag5");
        assert_eq!(format!("{v:?}"), "Tag(5)");
    }
}
