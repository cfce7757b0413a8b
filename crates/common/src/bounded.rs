//! A bounded map with FIFO eviction.
//!
//! Long-running nodes keep "already verified" maps whose entries only pay
//! off for a bounded window, such as the verified batch-signature roots of
//! `basil_crypto::SignatureCache`. Left unbounded, such a map grows by one
//! entry per event for the lifetime of the node. [`BoundedFifoMap`] is the
//! primitive: a [`FastHashMap`] plus an insertion-order queue,
//! evicting the oldest entry once the capacity is reached. FIFO (rather than
//! LRU) is deliberate — these working sets are in-flight windows, so recency
//! of *insertion* is the right signal and the eviction path stays O(1) with
//! no per-read bookkeeping.

use crate::fasthash::FastHashMap;
use std::collections::VecDeque;
use std::hash::Hash;

/// A `K -> V` map bounded to `capacity` entries, evicting in insertion
/// (FIFO) order. Re-inserting an existing key refreshes the value without
/// changing its eviction position.
#[derive(Clone, Debug)]
pub struct BoundedFifoMap<K, V> {
    map: FastHashMap<K, V>,
    /// Insertion order of the keys, for FIFO eviction.
    order: VecDeque<K>,
    capacity: usize,
    evictions: u64,
}

impl<K: Hash + Eq + Copy, V> BoundedFifoMap<K, V> {
    /// Creates an empty map bounded to `capacity` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        BoundedFifoMap {
            map: FastHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            evictions: 0,
        }
    }

    /// Inserts `value` under `key`, evicting the oldest entries if the map
    /// outgrows its capacity. An existing key is refreshed in place.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_some() {
            return; // Refreshed an existing key; order is unchanged.
        }
        self.order.push_back(key);
        while self.map.len() > self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// The value stored under `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// One-lookup check-and-insert: if `key` is present and its value
    /// satisfies `matches`, returns `true` and leaves the map untouched;
    /// otherwise stores `value` under `key` (evicting FIFO-oldest entries
    /// as [`BoundedFifoMap::insert`] would) and returns `false`.
    /// Semantically identical to `get` followed by `insert`, at one hash
    /// lookup instead of two — the signature cache runs this on every
    /// verification.
    pub fn check_insert(&mut self, key: K, value: V, matches: impl FnOnce(&V) -> bool) -> bool {
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if matches(e.get()) {
                    return true;
                }
                e.insert(value);
                false
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(value);
                self.order.push_back(key);
                while self.map.len() > self.capacity {
                    let Some(oldest) = self.order.pop_front() else {
                        break;
                    };
                    self.map.remove(&oldest);
                    self.evictions += 1;
                }
                false
            }
        }
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured bound on held entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of entries evicted to keep the map within its capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order() {
        let mut m: BoundedFifoMap<u32, &str> = BoundedFifoMap::with_capacity(2);
        m.insert(1, "a");
        m.insert(2, "b");
        m.insert(3, "c");
        assert_eq!(m.get(&1), None, "oldest evicted");
        assert_eq!(m.get(&2), Some(&"b"));
        assert_eq!(m.get(&3), Some(&"c"));
        assert_eq!(m.len(), 2);
        assert_eq!(m.evictions(), 1);
    }

    #[test]
    fn refresh_keeps_eviction_position_and_size() {
        let mut m: BoundedFifoMap<u32, u64> = BoundedFifoMap::with_capacity(2);
        m.insert(1, 10);
        m.insert(2, 20);
        m.insert(1, 11); // refresh, not a new entry
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&1), Some(&11));
        m.insert(3, 30); // 1 is still the oldest insertion
        assert_eq!(m.get(&1), None);
        assert_eq!(m.get(&2), Some(&20));
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut m: BoundedFifoMap<u32, u32> = BoundedFifoMap::with_capacity(0);
        assert_eq!(m.capacity(), 1);
        m.insert(1, 1);
        m.insert(2, 2);
        assert_eq!(m.len(), 1);
        assert!(m.get(&2).is_some());
        assert!(!m.is_empty());
    }
}
