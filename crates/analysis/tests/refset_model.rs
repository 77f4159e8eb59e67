//! Model test: `RefSet` (inline up to three refs, spilled beyond) must
//! behave exactly like a `BTreeSet<Ref>` — membership, length, iteration
//! order and `Debug` rendering — across the inline→spill boundary and
//! back.

use std::collections::BTreeSet;

use proptest::prelude::*;

use wbe_analysis::refs::singleton;
use wbe_analysis::{Ref, RefSet};
use wbe_ir::SiteId;

/// A small universe (11 refs of every variant), so random operations
/// collide often and sets grow past the inline capacity.
fn any_ref() -> impl Strategy<Value = Ref> {
    prop_oneof![
        Just(Ref::Global),
        (0u16..3).prop_map(Ref::Arg),
        (0u32..4).prop_map(|s| Ref::SiteA(SiteId(s))),
        (0u32..4).prop_map(|s| Ref::SiteB(SiteId(s))),
    ]
}

fn universe() -> Vec<Ref> {
    let mut u = vec![Ref::Global];
    u.extend((0..3).map(Ref::Arg));
    u.extend((0..4).map(|s| Ref::SiteA(SiteId(s))));
    u.extend((0..4).map(|s| Ref::SiteB(SiteId(s))));
    u
}

#[derive(Clone, Debug)]
enum Op {
    Insert(Ref),
    Remove(Ref),
    Extend(Vec<Ref>),
    Union(Vec<Ref>),
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any_ref().prop_map(Op::Insert),
        any_ref().prop_map(Op::Insert),
        any_ref().prop_map(Op::Remove),
        proptest::collection::vec(any_ref(), 0..6).prop_map(Op::Extend),
        proptest::collection::vec(any_ref(), 0..6).prop_map(Op::Union),
    ]
}

/// Checks every observable of `s` against the model.
fn agrees(s: &RefSet, model: &BTreeSet<Ref>) -> Result<(), TestCaseError> {
    prop_assert_eq!(s.len(), model.len());
    prop_assert_eq!(s.is_empty(), model.is_empty());
    let got: Vec<Ref> = s.iter().copied().collect();
    let want: Vec<Ref> = model.iter().copied().collect();
    prop_assert_eq!(got, want);
    let by_ref: Vec<Ref> = s.into_iter().copied().collect();
    prop_assert_eq!(by_ref.as_slice(), s.as_slice());
    for r in universe() {
        prop_assert_eq!(s.contains(&r), model.contains(&r), "contains({:?})", r);
    }
    prop_assert_eq!(format!("{s:?}"), format!("{model:?}"));
    prop_assert_eq!(format!("{s:#?}"), format!("{model:#?}"));
    let single = (model.len() == 1).then(|| *model.iter().next().expect("one member"));
    prop_assert_eq!(singleton(s), single);
    // Equality ignores history: a set rebuilt from its members (inline
    // when small) equals one that spilled and shrank back.
    let rebuilt: RefSet = model.iter().copied().collect();
    prop_assert_eq!(s, &rebuilt);
    Ok(())
}

proptest! {
    /// Random operation sequences keep `RefSet` and the model in step.
    #[test]
    fn refset_matches_btreeset_model(ops in proptest::collection::vec(any_op(), 0..24)) {
        let mut s = RefSet::new();
        let mut model = BTreeSet::new();
        agrees(&s, &model)?;
        for op in ops {
            match op {
                Op::Insert(r) => prop_assert_eq!(s.insert(r), model.insert(r)),
                Op::Remove(r) => prop_assert_eq!(s.remove(&r), model.remove(&r)),
                Op::Extend(rs) => {
                    s.extend(rs.iter().copied());
                    model.extend(rs);
                }
                Op::Union(rs) => {
                    let other: RefSet = rs.iter().copied().collect();
                    let other_model: BTreeSet<Ref> = rs.into_iter().collect();
                    let flipped = other.union(&s);
                    s = s.union(&other);
                    model = model.union(&other_model).copied().collect();
                    prop_assert_eq!(&flipped, &s, "union is symmetric");
                }
            }
            agrees(&s, &model)?;
        }
    }

    /// Collecting any sequence sorts and deduplicates it.
    #[test]
    fn refset_from_iter_matches_model(rs in proptest::collection::vec(any_ref(), 0..12)) {
        let s: RefSet = rs.iter().copied().collect();
        let model: BTreeSet<Ref> = rs.into_iter().collect();
        agrees(&s, &model)?;
    }
}

/// Walks one set across the inline→spill boundary and back, checking
/// the model at every size.
#[test]
fn refset_crosses_the_inline_boundary_both_ways() {
    let refs = universe();
    let mut s = RefSet::new();
    let mut model = BTreeSet::new();
    // Insert in reverse so every insert lands at the front.
    for &r in refs.iter().rev() {
        assert!(s.insert(r));
        model.insert(r);
        agrees(&s, &model).unwrap();
    }
    for r in &refs {
        assert!(s.remove(r));
        model.remove(r);
        agrees(&s, &model).unwrap();
    }
    assert_eq!(format!("{s:?}"), "{}");
}
