//! Runtime witnesses: per-object dynamic facts that refute (or fail to
//! refute) the static analysis's keep-codes.
//!
//! The elision judgment keeps a barrier when it cannot prove the
//! receiver thread-local (`receiver-may-escape`, `array-may-escape`) or
//! the overwritten field null (`field-may-be-non-null`). Those are
//! *may* facts — conservative static approximations. This side-table
//! records the corresponding *did* facts observed at run time:
//!
//! * **escape**: did this object ever become reachable from another
//!   logical thread? Three events establish escape: being stored into a
//!   static (globally reachable), being stored into an already-escaped
//!   object (transitive at store time), or its fields being written by
//!   a thread other than its allocating thread (observable under the
//!   deterministic scheduler's logical thread ids).
//! * **allocation provenance**: which logical thread allocated the
//!   object and under which class tag, aggregated per class so a
//!   whole allocation site's behavior is visible at once.
//!
//! A kept site whose receiver *never* escaped across every execution we
//! threw at it carries a refuted `receiver-may-escape`: a perfectly
//! precise analysis could have elided it on these executions. The
//! nullness witness needs no table — the interpreter's per-site
//! `pre_null` counter already records every observed-null overwrite.
//!
//! Escape here is deliberately *not* retroactive: an object that
//! escapes at time T is not back-dated as escaped for stores before T,
//! because the barrier decision at a store only needs the facts in
//! force at that store. Nor is it transitively closed over the existing
//! points-to graph at escape time (only values stored *into* an escaped
//! object afterwards escape). This under-approximates escapement, so
//! fewer receivers count as escaped and more kept sites carry a
//! thread-local refutation: it can only *add* refutation headroom,
//! never remove it. That is still the safe direction for an
//! upper-bound instrument — the reported ceiling may overstate what a
//! perfect analysis could elide, but never understates it.
//!
//! The table is updated inside the shared raw heap writes
//! ([`crate::Heap::set_field`] / `set_elem` / `set_static`) and the
//! allocator, which both execution engines funnel through, so the
//! witness stream — and everything derived from it — is byte-identical
//! across engines by construction.

use std::collections::BTreeMap;

use crate::value::GcRef;

/// Witness state for one heap slot (reset on every allocation into the
/// slot, since slots are reused after a sweep).
#[derive(Clone, Copy, Debug)]
struct SlotWitness {
    /// Logical thread that allocated the current occupant.
    alloc_thread: u32,
    /// Class tag of the current occupant.
    class_tag: u32,
    /// Whether the current occupant has escaped (see module docs).
    escaped: bool,
}

/// Per-class aggregation of the slot witnesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassWitness {
    /// Objects allocated under this class tag.
    pub allocated: u64,
    /// Of those, how many ever escaped.
    pub escaped: u64,
}

/// The runtime witness side-table. Install with
/// [`crate::Heap::enable_witnesses`]; absent (the default), every hook
/// is a single `Option` check.
#[derive(Clone, Debug, Default)]
pub struct WitnessTable {
    /// The logical thread id charged to subsequent allocations and
    /// stores. Single-threaded drivers leave it at 0; the deterministic
    /// scheduler sets it at every context switch.
    current_thread: u32,
    /// Per-slot witness state, indexed by `GcRef` slot index.
    slots: Vec<Option<SlotWitness>>,
    /// Per-class rollups, keyed by class tag (deterministic order).
    classes: BTreeMap<u32, ClassWitness>,
    /// Total escape events (distinct objects, not stores).
    escapes: u64,
    /// Of those, escapes established by a cross-thread store.
    cross_thread_escapes: u64,
}

impl WitnessTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        WitnessTable::default()
    }

    /// Sets the logical thread id charged to subsequent events.
    pub fn set_current_thread(&mut self, thread: u32) {
        self.current_thread = thread;
    }

    /// Records an allocation: the slot's previous occupant (if any) is
    /// forgotten and the new object starts thread-local to the
    /// allocating thread.
    pub fn note_alloc(&mut self, r: GcRef, class_tag: u32) {
        let i = r.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = Some(SlotWitness {
            alloc_thread: self.current_thread,
            class_tag,
            escaped: false,
        });
        self.classes.entry(class_tag).or_default().allocated += 1;
    }

    /// Records a reference store `receiver.slot = value`. Escape
    /// events: a store performed by a thread other than the receiver's
    /// allocating thread escapes the receiver, and any value stored
    /// into an escaped receiver escapes with it.
    pub fn note_ref_store(&mut self, receiver: GcRef, value: Option<GcRef>) {
        let cross = self
            .slot(receiver)
            .is_some_and(|s| s.alloc_thread != self.current_thread);
        if cross {
            self.escape(receiver, true);
        }
        if self.is_escaped(receiver) {
            if let Some(v) = value {
                self.escape(v, false);
            }
        }
    }

    /// Records a static store: the stored value becomes globally
    /// reachable, the strongest form of escape.
    pub fn note_static_store(&mut self, value: Option<GcRef>) {
        if let Some(v) = value {
            self.escape(v, false);
        }
    }

    /// Whether `r`'s current occupant has escaped.
    pub fn is_escaped(&self, r: GcRef) -> bool {
        self.slot(r).is_some_and(|s| s.escaped)
    }

    /// Number of distinct objects that ever escaped.
    pub fn escaped_objects(&self) -> u64 {
        self.escapes
    }

    /// Number of escapes established by a cross-thread store.
    pub fn cross_thread_escapes(&self) -> u64 {
        self.cross_thread_escapes
    }

    /// Number of objects the table has witnessed allocations for.
    pub fn allocated_objects(&self) -> u64 {
        self.classes.values().map(|c| c.allocated).sum()
    }

    /// Per-class rollups in ascending class-tag order.
    pub fn class_rows(&self) -> impl Iterator<Item = (u32, &ClassWitness)> {
        self.classes.iter().map(|(&tag, w)| (tag, w))
    }

    fn slot(&self, r: GcRef) -> Option<&SlotWitness> {
        self.slots.get(r.index()).and_then(|s| s.as_ref())
    }

    fn escape(&mut self, r: GcRef, cross_thread: bool) {
        let Some(slot) = self.slots.get_mut(r.index()).and_then(|s| s.as_mut()) else {
            return;
        };
        if slot.escaped {
            return;
        }
        slot.escaped = true;
        self.escapes += 1;
        if cross_thread {
            self.cross_thread_escapes += 1;
        }
        if let Some(c) = self.classes.get_mut(&slot.class_tag) {
            c.escaped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gc::MarkStyle;
    use crate::heap::Heap;
    use crate::value::{FieldShape, Value};

    fn heap() -> Heap {
        let mut h = Heap::new(MarkStyle::Satb);
        h.enable_witnesses();
        h.register_statics(&[FieldShape::Ref]);
        h
    }

    #[test]
    fn objects_start_thread_local() {
        let mut h = heap();
        let a = h.alloc_object(3, &[FieldShape::Ref]).unwrap();
        let w = h.witness.as_ref().unwrap();
        assert!(!w.is_escaped(a));
        assert_eq!(w.allocated_objects(), 1);
        assert_eq!(
            w.class_rows().next(),
            Some((
                3,
                &ClassWitness {
                    allocated: 1,
                    escaped: 0,
                }
            ))
        );
    }

    #[test]
    fn static_store_escapes_the_value() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_static(0, Value::from(a)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(a));
        assert_eq!(h.witness.as_ref().unwrap().escaped_objects(), 1);
    }

    #[test]
    fn store_into_escaped_object_escapes_transitively_at_store_time() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let b = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        let c = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        // b stored into thread-local a: no escape.
        h.set_field(a, 0, Value::from(b)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(b));
        // a escapes via a static; b is NOT back-dated (non-retroactive).
        h.set_static(0, Value::from(a)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(b));
        // But a store into the now-escaped a escapes the value.
        h.set_field(a, 0, Value::from(c)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(c));
    }

    #[test]
    fn cross_thread_store_escapes_the_receiver() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.witness.as_mut().unwrap().set_current_thread(2);
        h.set_field(a, 0, Value::NULL).unwrap();
        let w = h.witness.as_ref().unwrap();
        assert!(w.is_escaped(a), "thread 2 touched thread 0's object");
        assert_eq!(w.cross_thread_escapes(), 1);
    }

    #[test]
    fn int_stores_and_disabled_table_are_inert() {
        let mut h = Heap::new(MarkStyle::Satb);
        // No table installed: nothing to witness.
        let a = h.alloc_object(0, &[FieldShape::Int]).unwrap();
        h.set_field(a, 0, Value::Int(7)).unwrap();
        assert!(h.witness.is_none());

        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Int]).unwrap();
        h.witness.as_mut().unwrap().set_current_thread(5);
        // Int stores carry no reference and are not witnessed at all,
        // so even a cross-thread int store does not escape.
        h.set_field(a, 0, Value::Int(7)).unwrap();
        assert!(!h.witness.as_ref().unwrap().is_escaped(a));
    }

    #[test]
    fn slot_reuse_resets_the_witness() {
        let mut h = heap();
        let a = h.alloc_object(0, &[FieldShape::Ref]).unwrap();
        h.set_static(0, Value::from(a)).unwrap();
        assert!(h.witness.as_ref().unwrap().is_escaped(a));
        h.set_static(0, Value::NULL).unwrap();
        h.store.remove(a);
        let b = h.alloc_object(1, &[FieldShape::Ref]).unwrap();
        assert_eq!(a, b, "slot is reused");
        assert!(
            !h.witness.as_ref().unwrap().is_escaped(b),
            "the new occupant starts thread-local"
        );
    }
}
