//! Short lists kept inline.

use std::ops::{Deref, DerefMut};

/// A list that keeps up to four items inline and only a longer one in a
/// `Vec`. Every primitive has arity ≤ 3 and a facet set holds a handful of
/// facets, so neither the argument lists the product operators gather nor
/// the components of a product need an allocation of their own. Unused
/// inline slots hold clones of the first item.
#[derive(Clone)]
pub(crate) enum ShortList<T> {
    /// The first `len` items of the array.
    Inline([T; 4], usize),
    /// More than four items (or none).
    Heap(Vec<T>),
}

impl<T: Clone> FromIterator<T> for ShortList<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> ShortList<T> {
        let mut iter = iter.into_iter();
        let Some(first) = iter.next() else {
            return ShortList::Heap(Vec::new());
        };
        let mut items = [first.clone(), first.clone(), first.clone(), first];
        let mut len = 1;
        for x in iter.by_ref().take(3) {
            items[len] = x;
            len += 1;
        }
        match iter.next() {
            None => ShortList::Inline(items, len),
            Some(fifth) => {
                let mut all = Vec::from(items);
                all.push(fifth);
                all.extend(iter);
                ShortList::Heap(all)
            }
        }
    }
}

impl<T> Deref for ShortList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            ShortList::Inline(items, len) => &items[..*len],
            ShortList::Heap(all) => all,
        }
    }
}

impl<T> DerefMut for ShortList<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            ShortList::Inline(items, len) => &mut items[..*len],
            ShortList::Heap(all) => all,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn holds_every_length_in_order() {
        for n in 0..9u8 {
            let list: ShortList<u8> = (0..n).collect();
            assert_eq!(&*list, (0..n).collect::<Vec<_>>().as_slice());
            assert_eq!(matches!(list, ShortList::Inline(..)), (1..=4).contains(&n));
        }
    }

    #[test]
    fn clones_and_edits_in_place() {
        let list: ShortList<String> = ["a", "b"].map(String::from).into_iter().collect();
        let mut copy = list.clone();
        copy[1] = "c".into();
        assert_eq!(&*list, ["a", "b"]);
        assert_eq!(&*copy, ["a", "c"]);
    }
}
