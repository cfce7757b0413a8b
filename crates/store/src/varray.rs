//! Flattened, timestamp-sorted version arrays.
//!
//! The MVTSO concurrency-control check is dominated by per-key ordered
//! lookups: "newest version below `ts`", "any write strictly inside
//! `(lower, upper)`", "any reader above `ts`". The original store kept one
//! `BTreeMap` per key per index, which answers those queries in `O(log n)`
//! but with pointer-chasing node traversals and one allocation per entry.
//!
//! [`VersionArray`] stores the same ordered mapping as one contiguous run of
//! `(Timestamp, V)` pairs sorted by timestamp. Workload timestamps are
//! issued by loosely synchronized client clocks, so inserts arrive in
//! almost-sorted order: the common case is a bounds check plus an append,
//! and the rare out-of-order insert is a binary search plus a shift.
//! Range queries become `partition_point` binary searches over contiguous
//! memory, and the max element — the watermark the scan-free prepare fast
//! path compares against — is just the last slot.
//!
//! The run holds its **first entry inline** and moves to a heap `Vec` only
//! when a second arrives (the private `InlineOne`, which derefs to a slice
//! so every query above is the same code over either form). On a large
//! uniform key space almost every key is cold — one committed version, one
//! prepared write that is gone again at commit, one RTS — so a key record's
//! five arrays allocate nothing until the key is actually contended.
//!
//! Semantics match the `BTreeMap` it replaces: timestamps are unique keys
//! and inserting an existing timestamp replaces the value.

use basil_common::Timestamp;
use std::ops::{Deref, DerefMut};

/// A sorted run that stores zero or one item inline and spills to a `Vec`
/// at the second. Once spilled it stays spilled, so a key whose array
/// hovers around one or two entries does not allocate and free per
/// transaction; the owner starts over from `Empty` when it resets the record.
#[derive(Clone, Debug)]
enum InlineOne<T> {
    Empty,
    One(T),
    Many(Vec<T>),
}

impl<T> Deref for InlineOne<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineOne::Empty => &[],
            InlineOne::One(item) => std::slice::from_ref(item),
            InlineOne::Many(items) => items,
        }
    }
}

impl<T> DerefMut for InlineOne<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineOne::Empty => &mut [],
            InlineOne::One(item) => std::slice::from_mut(item),
            InlineOne::Many(items) => items,
        }
    }
}

impl<T: PartialEq> PartialEq for InlineOne<T> {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl<T: Eq> Eq for InlineOne<T> {}

impl<T> InlineOne<T> {
    /// `Vec::insert`: `idx == len` appends.
    fn insert(&mut self, idx: usize, item: T) {
        if let InlineOne::Many(items) = self {
            return items.insert(idx, item);
        }
        *self = match std::mem::replace(self, InlineOne::Empty) {
            InlineOne::One(first) => {
                // What `Vec`'s own first growth would reserve.
                let mut items = Vec::with_capacity(4);
                items.push(first);
                items.insert(idx, item);
                InlineOne::Many(items)
            }
            _ => {
                assert!(
                    idx == 0,
                    "insertion index {idx} out of bounds of an empty run"
                );
                InlineOne::One(item)
            }
        };
    }

    /// `Vec::remove`.
    fn remove(&mut self, idx: usize) -> T {
        if let InlineOne::Many(items) = self {
            return items.remove(idx);
        }
        match std::mem::replace(self, InlineOne::Empty) {
            InlineOne::One(item) if idx == 0 => item,
            _ => panic!("removal index {idx} out of bounds of an inline run"),
        }
    }

    /// Drops the first `n` items, shifting the rest down in place.
    fn drop_front(&mut self, n: usize) {
        match self {
            InlineOne::Many(items) => drop(items.drain(..n)),
            _ if n > 0 => {
                assert!(n <= self.len(), "cannot drop {n} items of an inline run");
                *self = InlineOne::Empty;
            }
            _ => {}
        }
    }
}

/// An ordered `Timestamp -> V` map stored as a flat sorted run, the first
/// entry inline.
///
/// Optimized for append-mostly insertion and read-heavy range queries; see
/// the module docs for the rationale.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionArray<V> {
    entries: InlineOne<(Timestamp, V)>,
}

impl<V> Default for VersionArray<V> {
    fn default() -> Self {
        VersionArray::new()
    }
}

impl<V> VersionArray<V> {
    /// Creates an empty array (allocates nothing).
    pub fn new() -> Self {
        VersionArray {
            entries: InlineOne::Empty,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The largest timestamp present, if any — the write/read watermark the
    /// scan-free prepare fast path compares against.
    pub fn max_ts(&self) -> Option<Timestamp> {
        self.entries.last().map(|(ts, _)| *ts)
    }

    /// The entry with the largest timestamp, if any.
    pub fn last(&self) -> Option<&(Timestamp, V)> {
        self.entries.last()
    }

    /// First index whose timestamp is `>= ts`.
    fn lower_bound(&self, ts: Timestamp) -> usize {
        self.entries.partition_point(|(t, _)| *t < ts)
    }

    /// First index whose timestamp is `> ts`.
    fn upper_bound(&self, ts: Timestamp) -> usize {
        self.entries.partition_point(|(t, _)| *t <= ts)
    }

    /// Inserts `value` at `ts`, replacing any existing entry with the same
    /// timestamp (`BTreeMap::insert` semantics). Appends without searching
    /// when `ts` is newer than everything present — the common case under
    /// timestamp-ordered workloads.
    pub fn insert(&mut self, ts: Timestamp, value: V) {
        let idx = match self.entries.last() {
            Some((last, _)) if *last >= ts => self.lower_bound(ts),
            _ => self.entries.len(),
        };
        match self.entries.get_mut(idx) {
            Some((t, slot)) if *t == ts => *slot = value,
            _ => self.entries.insert(idx, (ts, value)),
        }
    }

    /// Removes the entry at exactly `ts`, returning its value.
    pub fn remove(&mut self, ts: Timestamp) -> Option<V> {
        let idx = self.lower_bound(ts);
        if self
            .entries
            .get(idx)
            .map(|(t, _)| *t == ts)
            .unwrap_or(false)
        {
            Some(self.entries.remove(idx).1)
        } else {
            None
        }
    }

    /// The value stored at exactly `ts`.
    pub fn get(&self, ts: Timestamp) -> Option<&V> {
        let idx = self.lower_bound(ts);
        match self.entries.get(idx) {
            Some((t, v)) if *t == ts => Some(v),
            _ => None,
        }
    }

    /// The newest entry with timestamp strictly below `ts` (versioned-read
    /// visibility: readers see versions strictly older than themselves).
    pub fn latest_before(&self, ts: Timestamp) -> Option<&(Timestamp, V)> {
        let idx = self.lower_bound(ts);
        if idx == 0 {
            None
        } else {
            self.entries.get(idx - 1)
        }
    }

    /// The newest entry with timestamp at or below `ts` (the GC keep-point:
    /// the newest version a reader at the watermark could still observe).
    pub fn latest_at_or_below(&self, ts: Timestamp) -> Option<&(Timestamp, V)> {
        let idx = self.upper_bound(ts);
        if idx == 0 {
            None
        } else {
            self.entries.get(idx - 1)
        }
    }

    /// Whether any entry lies strictly inside the open window
    /// `(lower, upper)` — the missed-write check of Algorithm 1.
    pub fn any_in_open_range(&self, lower: Timestamp, upper: Timestamp) -> bool {
        let idx = self.upper_bound(lower);
        self.entries
            .get(idx)
            .map(|(t, _)| *t < upper)
            .unwrap_or(false)
    }

    /// Iterates over entries with timestamp strictly above `ts`, in
    /// ascending order (the invalidated-reader scan of Algorithm 1).
    pub fn iter_above(&self, ts: Timestamp) -> impl Iterator<Item = &(Timestamp, V)> {
        self.entries[self.upper_bound(ts)..].iter()
    }

    /// Iterates over all entries in ascending timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &(Timestamp, V)> {
        self.entries.iter()
    }

    /// Drops every entry with timestamp strictly below `keep_from`, shifting
    /// the retained suffix down in place. Unlike `BTreeMap::split_off` this
    /// allocates nothing; it returns how many entries were dropped.
    pub fn drop_below(&mut self, keep_from: Timestamp) -> usize {
        let idx = self.lower_bound(keep_from);
        self.entries.drop_front(idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basil_common::ClientId;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_nanos(t, ClientId(t % 4))
    }

    fn filled(times: &[u64]) -> VersionArray<u64> {
        let mut a = VersionArray::new();
        for &t in times {
            a.insert(ts(t), t);
        }
        a
    }

    #[test]
    fn append_and_out_of_order_insert_stay_sorted() {
        let a = filled(&[10, 30, 20, 40, 5]);
        let order: Vec<u64> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(order, vec![5, 10, 20, 30, 40]);
        assert_eq!(a.max_ts(), Some(ts(40)));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn insert_replaces_on_equal_timestamp() {
        let mut a = filled(&[10, 20]);
        a.insert(ts(10), 99);
        assert_eq!(a.get(ts(10)), Some(&99));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn remove_and_get() {
        let mut a = filled(&[10, 20, 30]);
        assert_eq!(a.remove(ts(20)), Some(20));
        assert_eq!(a.remove(ts(20)), None);
        assert_eq!(a.get(ts(20)), None);
        assert_eq!(a.get(ts(30)), Some(&30));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn visibility_lookups() {
        let a = filled(&[10, 20, 30]);
        assert_eq!(a.latest_before(ts(25)).map(|(_, v)| *v), Some(20));
        assert_eq!(a.latest_before(ts(10)).map(|(_, v)| *v), None);
        assert_eq!(a.latest_before(ts(5)), None);
        assert_eq!(a.latest_at_or_below(ts(20)).map(|(_, v)| *v), Some(20));
        assert_eq!(a.latest_at_or_below(ts(9)), None);
    }

    #[test]
    fn open_range_matches_exclusive_bounds() {
        let a = filled(&[10, 20, 30]);
        assert!(a.any_in_open_range(ts(10), ts(30)));
        assert!(
            !a.any_in_open_range(ts(20), ts(30)),
            "both bounds exclusive"
        );
        assert!(!a.any_in_open_range(ts(30), ts(100)));
        assert!(a.any_in_open_range(ts(0), ts(11)));
        assert!(VersionArray::<u64>::new().is_empty());
        assert!(!VersionArray::<u64>::new().any_in_open_range(ts(0), ts(100)));
    }

    #[test]
    fn iter_above_is_strict() {
        let a = filled(&[10, 20, 30]);
        let above: Vec<u64> = a.iter_above(ts(20)).map(|(_, v)| *v).collect();
        assert_eq!(above, vec![30]);
        assert_eq!(a.iter_above(ts(30)).count(), 0);
        assert_eq!(a.iter_above(ts(0)).count(), 3);
    }

    #[test]
    fn drop_below_retains_suffix_in_place() {
        let mut a = filled(&[10, 20, 30, 40]);
        assert_eq!(a.drop_below(ts(30)), 2);
        let left: Vec<u64> = a.iter().map(|(_, v)| *v).collect();
        assert_eq!(left, vec![30, 40]);
        assert_eq!(a.drop_below(ts(0)), 0);
        assert_eq!(a.drop_below(ts(100)), 2);
        assert!(a.is_empty());
        assert_eq!(a.max_ts(), None);
    }

    #[test]
    fn first_entry_is_inline_and_a_spilled_array_stays_spilled() {
        let mut a = filled(&[10]);
        assert!(matches!(a.entries, InlineOne::One(_)));
        assert_eq!(a.remove(ts(10)), Some(10));
        assert!(matches!(a.entries, InlineOne::Empty));
        a.insert(ts(20), 20);
        a.insert(ts(10), 10);
        assert!(matches!(a.entries, InlineOne::Many(_)));
        assert_eq!(a.drop_below(ts(20)), 1);
        assert!(matches!(a.entries, InlineOne::Many(_)), "capacity is kept");
        assert_eq!(a, filled(&[20]), "equality is by content, not by form");
        assert_eq!(a.drop_below(ts(30)), 1);
        assert_eq!(a, VersionArray::new());
    }

    mod against_btreemap {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Every query, against the model.
        fn check(a: &VersionArray<u64>, model: &BTreeMap<Timestamp, u64>) {
            let want: Vec<(Timestamp, u64)> = model.iter().map(|(t, v)| (*t, *v)).collect();
            assert_eq!(a.iter().copied().collect::<Vec<_>>(), want);
            assert_eq!(a.len(), model.len());
            assert_eq!(a.is_empty(), model.is_empty());
            assert_eq!(a.max_ts(), model.keys().next_back().copied());
            assert_eq!(a.last().copied(), want.last().copied());
            for t in 0..=7 {
                let t = ts(t);
                assert_eq!(a.get(t), model.get(&t));
                assert_eq!(
                    a.latest_before(t).copied(),
                    model.range(..t).next_back().map(|(t, v)| (*t, *v))
                );
                assert_eq!(
                    a.latest_at_or_below(t).copied(),
                    model.range(..=t).next_back().map(|(t, v)| (*t, *v))
                );
                assert_eq!(
                    a.iter_above(t).copied().collect::<Vec<_>>(),
                    want.iter()
                        .copied()
                        .filter(|(u, _)| *u > t)
                        .collect::<Vec<_>>()
                );
                for upper in 0..=7 {
                    let upper = ts(upper);
                    assert_eq!(
                        a.any_in_open_range(t, upper),
                        model.keys().any(|u| *u > t && *u < upper)
                    );
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Insert, remove and `drop_below` over six
            /// timestamps, so the array keeps crossing the empty / inline /
            /// spilled boundaries in both directions, answer every query as
            /// the `BTreeMap` does — from a fresh (inline) array and from one
            /// that had already spilled.
            #[test]
            fn every_operation_matches(
                ops in proptest::collection::vec((0u8..6, 0u64..6, 0u64..1_000), 1..40)
            ) {
                let mut fresh = VersionArray::new();
                let mut spilled = filled(&[1, 2]);
                spilled.drop_below(ts(3));
                let mut model = BTreeMap::new();
                for (kind, t, v) in ops {
                    match kind {
                        // Inserts and removals are equally likely, so the
                        // length hovers around the 0/1/2 boundaries.
                        0..=2 => {
                            fresh.insert(ts(t), v);
                            spilled.insert(ts(t), v);
                            model.insert(ts(t), v);
                        }
                        3..=4 => {
                            let want = model.remove(&ts(t));
                            prop_assert_eq!(fresh.remove(ts(t)), want);
                            prop_assert_eq!(spilled.remove(ts(t)), want);
                        }
                        _ => {
                            let kept = model.split_off(&ts(t));
                            let want = model.len();
                            model = kept;
                            prop_assert_eq!(fresh.drop_below(ts(t)), want);
                            prop_assert_eq!(spilled.drop_below(ts(t)), want);
                        }
                    }
                    check(&fresh, &model);
                    check(&spilled, &model);
                    prop_assert_eq!(&fresh, &spilled);
                }
            }
        }
    }
}
