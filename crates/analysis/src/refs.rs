//! Abstract reference values (§2.1 of the paper).
//!
//! When analyzing a method we create two `Ref`s per allocation site
//! `id`: [`Ref::SiteA`] denotes the object *most recently* allocated at
//! the site (a single concrete object, so stores to its fields may use
//! strong update), and [`Ref::SiteB`] summarizes all *previously*
//! allocated objects (weak update only). [`Ref::Arg`] denotes an
//! argument's initial value, and [`Ref::Global`] collapses every object
//! allocated outside the method and not passed to it.

use std::fmt;

use wbe_ir::SiteId;

/// An abstract object reference.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ref {
    /// All objects allocated outside the analyzed method.
    Global,
    /// The initial value of reference argument `i`.
    Arg(u16),
    /// The object most recently allocated at the site (unique).
    SiteA(SiteId),
    /// All objects previously allocated at the site (summary).
    SiteB(SiteId),
}

impl Ref {
    /// The paper's `unique` predicate: true iff this abstract reference
    /// denotes a single concrete object. `SiteA` is always unique;
    /// `Arg(0)` is unique *in a constructor* (the object under
    /// construction), which the caller decides via `this_is_unique`.
    pub fn is_unique(self, this_is_unique: bool) -> bool {
        match self {
            Ref::SiteA(_) => true,
            Ref::Arg(0) => this_is_unique,
            _ => false,
        }
    }
}

impl fmt::Debug for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ref::Global => write!(f, "G"),
            Ref::Arg(i) => write!(f, "arg{i}"),
            Ref::SiteA(s) => write!(f, "{s}/A"),
            Ref::SiteB(s) => write!(f, "{s}/B"),
        }
    }
}

impl fmt::Display for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Refs a [`RefSet`] stores without a heap allocation. Most reference
/// values the analysis meets hold one or two refs.
const INLINE: usize = 3;

/// A *RefVal*: the set of possible non-null referents of a value. The
/// empty set means "known to contain only null" — the property barrier
/// elision needs. Sets are may-information: larger is more conservative.
///
/// A sorted, duplicate-free sequence: up to three refs live inline, a
/// larger set spills to a sorted `Vec`. Iteration follows `Ref`'s `Ord`
/// order and `Debug` prints `{a, b}`, exactly as a `BTreeSet<Ref>` would
/// (the ledger's fact strings and the state dump print sets this way).
#[derive(Clone)]
pub struct RefSet(Repr);

#[derive(Clone)]
enum Repr {
    /// `refs[..len]` is the set; the rest is unused.
    Inline { len: u8, refs: [Ref; INLINE] },
    /// Sorted and duplicate-free; may shrink back below `INLINE`.
    Spilled(Vec<Ref>),
}

impl RefSet {
    /// The empty set.
    pub const fn new() -> RefSet {
        RefSet(Repr::Inline {
            len: 0,
            refs: [Ref::Global; INLINE],
        })
    }

    /// The members in ascending order.
    pub fn as_slice(&self) -> &[Ref] {
        match &self.0 {
            Repr::Inline { len, refs } => &refs[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Ref> {
        self.as_slice().iter()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True for the definitely-null value.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// True if `r` is a member.
    pub fn contains(&self, r: &Ref) -> bool {
        self.as_slice().binary_search(r).is_ok()
    }

    /// Adds `r`; returns true if it was not already a member.
    pub fn insert(&mut self, r: Ref) -> bool {
        let Err(pos) = self.as_slice().binary_search(&r) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, refs } if (*len as usize) < INLINE => {
                let n = *len as usize;
                refs.copy_within(pos..n, pos + 1);
                refs[pos] = r;
                *len += 1;
            }
            Repr::Inline { refs, .. } => {
                let mut v = Vec::with_capacity(2 * INLINE);
                v.extend_from_slice(&refs[..pos]);
                v.push(r);
                v.extend_from_slice(&refs[pos..]);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) => v.insert(pos, r),
        }
        true
    }

    /// Removes `r`; returns true if it was a member.
    pub fn remove(&mut self, r: &Ref) -> bool {
        let Ok(pos) = self.as_slice().binary_search(r) else {
            return false;
        };
        match &mut self.0 {
            Repr::Inline { len, refs } => {
                refs.copy_within(pos + 1..*len as usize, pos);
                *len -= 1;
            }
            Repr::Spilled(v) => {
                v.remove(pos);
            }
        }
        true
    }

    /// The union of two sets.
    pub fn union(&self, other: &RefSet) -> RefSet {
        let (small, large) = if self.len() < other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = large.clone();
        out.extend(small.iter().copied());
        out
    }
}

impl Default for RefSet {
    fn default() -> Self {
        RefSet::new()
    }
}

impl PartialEq for RefSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for RefSet {}

impl fmt::Debug for RefSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Extend<Ref> for RefSet {
    fn extend<I: IntoIterator<Item = Ref>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl FromIterator<Ref> for RefSet {
    fn from_iter<I: IntoIterator<Item = Ref>>(iter: I) -> Self {
        let mut s = RefSet::new();
        s.extend(iter);
        s
    }
}

impl<'a> IntoIterator for &'a RefSet {
    type Item = &'a Ref;
    type IntoIter = std::slice::Iter<'a, Ref>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Returns the singleton member if `s` has exactly one element.
pub fn singleton(s: &RefSet) -> Option<Ref> {
    match s.as_slice() {
        [r] => Some(*r),
        _ => None,
    }
}

/// Substitutes `from → to` in a ref set (used when an allocation retires
/// the previous `SiteA` into `SiteB`). Returns true if `from` occurred.
pub fn subst(s: &mut RefSet, from: Ref, to: Ref) -> bool {
    let hit = s.remove(&from);
    if hit {
        s.insert(to);
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniqueness() {
        assert!(Ref::SiteA(SiteId(0)).is_unique(false));
        assert!(!Ref::SiteB(SiteId(0)).is_unique(true));
        assert!(Ref::Arg(0).is_unique(true), "ctor this is unique");
        assert!(!Ref::Arg(0).is_unique(false));
        assert!(!Ref::Arg(1).is_unique(true));
        assert!(!Ref::Global.is_unique(true));
    }

    #[test]
    fn singleton_detection() {
        let mut s = RefSet::new();
        assert_eq!(singleton(&s), None);
        s.insert(Ref::Global);
        assert_eq!(singleton(&s), Some(Ref::Global));
        s.insert(Ref::Arg(1));
        assert_eq!(singleton(&s), None);
    }

    #[test]
    fn substitution() {
        let a = Ref::SiteA(SiteId(3));
        let b = Ref::SiteB(SiteId(3));
        let mut s: RefSet = [a, Ref::Global].into_iter().collect();
        assert!(subst(&mut s, a, b));
        assert!(s.contains(&b) && s.contains(&Ref::Global) && !s.contains(&a));
        assert!(!subst(&mut s, a, b), "no A left to rename");
    }

    #[test]
    fn display_forms() {
        assert_eq!(Ref::SiteA(SiteId(2)).to_string(), "site2/A");
        assert_eq!(Ref::Arg(0).to_string(), "arg0");
        assert_eq!(Ref::Global.to_string(), "G");
    }
}
