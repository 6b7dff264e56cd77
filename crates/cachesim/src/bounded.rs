//! A bounded, cost-aware memoization map with O(1) least-recently-used
//! eviction.
//!
//! [`BoundedLru`] is the service-side sibling of the trace-driven
//! [`crate::LruCache`]: instead of simulating a memory hierarchy it *is* one
//! — a `HashMap` from arbitrary keys to arbitrary values whose total
//! retention is bounded by a caller-supplied **cost budget** (typically an
//! approximate heap size). Recency is tracked through the same intrusive
//! slab list as the simulator ([`crate::list::RecencyList`]), so every
//! lookup, touch and eviction is O(1) amortized.
//!
//! # Shared read paths
//!
//! A long-lived analysis service reads its memo maps from many threads under
//! a shared (read) lock, where the recency list cannot be re-threaded. For
//! that path [`BoundedLru::peek`] records the access in a per-entry atomic
//! stamp instead of moving the entry; the next exclusive operation folds the
//! stamps back into the list lazily — an eviction candidate whose stamp is
//! newer than its list position is promoted instead of evicted. Peeked-at
//! entries therefore count as recently used for eviction purposes without
//! the reader ever taking an exclusive lock.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::list::RecencyList;

/// Counters describing a [`BoundedLru`]'s lifetime behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundedLruStats {
    /// Entries currently resident.
    pub entries: usize,
    /// Total cost of the resident entries.
    pub cost: u64,
    /// The configured cost budget.
    pub capacity: u64,
    /// Entries evicted since creation.
    pub evictions: u64,
}

struct Slot<K, V> {
    key: K,
    value: V,
    cost: u64,
    /// Most recent access tick, including shared-path peeks.
    stamp: AtomicU64,
    /// The tick already reflected in the entry's recency-list position; a
    /// `stamp` newer than this marks a pending lazy promotion.
    epoch: u64,
}

/// A memoization map bounded by a total cost budget, evicting least recently
/// used entries first. See the module docs of `cachesim::bounded` for the
/// shared-read-path (peek) semantics.
pub struct BoundedLru<K, V> {
    capacity: u64,
    total_cost: u64,
    map: HashMap<K, usize>,
    slots: Vec<Option<Slot<K, V>>>,
    list: RecencyList,
    clock: AtomicU64,
    evictions: u64,
}

impl<K: Eq + Hash + Clone, V> BoundedLru<K, V> {
    /// Creates an empty map retaining at most `capacity` cost units.
    ///
    /// A capacity of zero disables retention entirely except for the single
    /// most recent entry (the map always keeps the newest insertion so a
    /// compute-then-read sequence cannot lose its own result).
    pub fn new(capacity: u64) -> BoundedLru<K, V> {
        BoundedLru {
            capacity,
            total_cost: 0,
            map: HashMap::new(),
            slots: Vec::new(),
            list: RecencyList::new(),
            clock: AtomicU64::new(0),
            evictions: 0,
        }
    }

    /// Number of entries currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BoundedLruStats {
        BoundedLruStats {
            entries: self.map.len(),
            cost: self.total_cost,
            capacity: self.capacity,
            evictions: self.evictions,
        }
    }

    /// `true` iff `key` is resident, without touching its recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Looks up `key` and marks it most recently used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        self.list.move_front(slot);
        let tick = self.tick();
        let entry = self.slots[slot].as_mut().expect("mapped slot is live");
        entry.epoch = tick;
        *entry.stamp.get_mut() = tick;
        Some(
            &self.slots[slot]
                .as_ref()
                .expect("mapped slot is live")
                .value,
        )
    }

    /// Looks up `key` **without exclusive access**, recording the access in
    /// the entry's atomic stamp; the next exclusive operation folds the
    /// stamp into the recency order (lazy promotion). This is the shared
    /// read-lock path of a concurrent service front.
    // lint: allow(L008) expect pins map/order-list coherence maintained by every mutation
    pub fn peek(&self, key: &K) -> Option<&V> {
        let &slot = self.map.get(key)?;
        let entry = self.slots[slot].as_ref().expect("mapped slot is live");
        entry.stamp.store(self.tick(), Ordering::Relaxed);
        Some(&entry.value)
    }

    /// Inserts (or replaces) `key` with the given retention cost, marks it
    /// most recently used, and evicts least recently used entries until the
    /// budget is respected again. The just-inserted entry is never evicted,
    /// even when its cost alone exceeds the budget.
    pub fn insert(&mut self, key: K, value: V, cost: u64) {
        let tick = self.tick();
        if let Some(&slot) = self.map.get(&key) {
            self.list.move_front(slot);
            let entry = self.slots[slot].as_mut().expect("mapped slot is live");
            self.total_cost = self.total_cost - entry.cost + cost;
            entry.value = value;
            entry.cost = cost;
            entry.epoch = tick;
            *entry.stamp.get_mut() = tick;
        } else {
            let slot = self.list.alloc_front();
            if slot == self.slots.len() {
                self.slots.push(None);
            }
            self.slots[slot] = Some(Slot {
                key: key.clone(),
                value,
                cost,
                stamp: AtomicU64::new(tick),
                epoch: tick,
            });
            self.map.insert(key, slot);
            self.total_cost += cost;
        }
        self.evict_to_fit();
    }

    /// Removes `key`, returning its value if it was resident.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let slot = self.map.remove(key)?;
        self.list.release(slot);
        let entry = self.slots[slot].take().expect("mapped slot is live");
        self.total_cost -= entry.cost;
        Some(entry.value)
    }

    /// Changes the cost budget, evicting as needed to respect a smaller one.
    pub fn set_capacity(&mut self, capacity: u64) {
        self.capacity = capacity;
        self.evict_to_fit();
    }

    /// Entries from least to most recently used (pending lazy promotions are
    /// folded in first, so the order reflects peeks too).
    // lint: allow(L008) expect pins map/order-list coherence maintained by every mutation
    pub fn iter_lru_to_mru(&mut self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.resort_by_effective_access();
        let slots = &self.slots;
        self.list.iter_lru_to_mru().map(move |slot| {
            let entry = slots[slot].as_ref().expect("listed slot is live");
            (&entry.key, &entry.value)
        })
    }

    /// Evicts from the tail until the budget is respected, keeping at least
    /// the most recently used entry. A tail entry whose atomic stamp is
    /// newer than its list position was peeked at since it was last
    /// positioned; the pending stamps are then folded into the list (exact
    /// re-sort by effective access time — rare, amortized over the peeks
    /// that made it necessary) before eviction resumes, so the victim is
    /// always the true least recently used entry, peeks included.
    fn evict_to_fit(&mut self) {
        while self.total_cost > self.capacity {
            let Some(victim) = self.list.tail() else {
                break;
            };
            if Some(victim) == self.list.head() {
                break; // never evict the sole (most recent) entry
            }
            let entry = self.slots[victim].as_mut().expect("tail slot is live");
            if *entry.stamp.get_mut() > entry.epoch {
                self.resort_by_effective_access();
                continue;
            }
            let entry = self.slots[victim].take().expect("tail slot is live");
            self.map.remove(&entry.key);
            self.total_cost -= entry.cost;
            self.list.release(victim);
            self.evictions += 1;
        }
    }

    /// Folds every pending peek stamp into the recency list by re-threading
    /// it in order of effective access time `max(epoch, stamp)`. Exclusive
    /// operations hand out strictly increasing ticks and peeks record them
    /// atomically, so this restores the exact least-recently-used order that
    /// a fully synchronized map would have. O(n log n); called only when an
    /// eviction candidate has a pending stamp, or by whole-map traversals.
    // lint: allow(L008) expect pins map/order-list coherence maintained by every mutation
    fn resort_by_effective_access(&mut self) {
        let mut order: Vec<(u64, usize)> = self
            .list
            .iter_lru_to_mru()
            .map(|slot| {
                let entry = self.slots[slot].as_ref().expect("listed slot is live");
                let effective = entry.stamp.load(Ordering::Relaxed).max(entry.epoch);
                (effective, slot)
            })
            .collect();
        // Oldest first: moving each to the front in ascending order leaves
        // the list sorted most-recent-first.
        order.sort_unstable();
        for (effective, slot) in order {
            let entry = self.slots[slot].as_mut().expect("listed slot is live");
            entry.epoch = effective;
            *entry.stamp.get_mut() = effective;
            self.list.move_front(slot);
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident_keys(map: &mut BoundedLru<u32, String>) -> Vec<u32> {
        map.iter_lru_to_mru().map(|(k, _)| *k).collect()
    }

    #[test]
    fn evicts_least_recently_used_by_cost() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(30);
        m.insert(1, "a".into(), 10);
        m.insert(2, "b".into(), 10);
        m.insert(3, "c".into(), 10);
        assert_eq!(m.len(), 3);
        m.get(&1); // 2 is now LRU
        m.insert(4, "d".into(), 10);
        assert!(!m.contains(&2));
        assert!(m.contains(&1) && m.contains(&3) && m.contains(&4));
        assert_eq!(m.stats().evictions, 1);
        assert_eq!(m.stats().cost, 30);
    }

    #[test]
    fn costs_drive_eviction_counts() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(100);
        for k in 0..10 {
            m.insert(k, "x".into(), 10);
        }
        // A single big entry displaces as many small ones as needed (here:
        // all of them — even 95 + 10 would still be over budget).
        m.insert(99, "big".into(), 95);
        assert!(m.contains(&99));
        assert_eq!(m.stats().cost, 95);
        assert_eq!(m.len(), 1);
        assert_eq!(m.stats().evictions, 10);
    }

    #[test]
    fn newest_entry_survives_even_over_budget() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(10);
        m.insert(1, "huge".into(), 1000);
        assert!(m.contains(&1));
        m.insert(2, "huge2".into(), 2000);
        assert!(m.contains(&2));
        assert!(!m.contains(&1));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn replacing_updates_cost() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(100);
        m.insert(1, "a".into(), 40);
        m.insert(1, "b".into(), 70);
        assert_eq!(m.stats().cost, 70);
        assert_eq!(m.get(&1).map(String::as_str), Some("b"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn peek_protects_entries_from_eviction() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(30);
        m.insert(1, "a".into(), 10);
        m.insert(2, "b".into(), 10);
        m.insert(3, "c".into(), 10);
        // Shared-path read of the LRU entry: no exclusive access, but the
        // stamp marks it recently used.
        assert_eq!(m.peek(&1).map(String::as_str), Some("a"));
        m.insert(4, "d".into(), 10);
        // 1 was lazily promoted; 2 (the true LRU) was evicted instead.
        assert!(m.contains(&1));
        assert!(!m.contains(&2));
    }

    #[test]
    fn lru_iteration_reflects_peeks() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(1000);
        m.insert(1, "a".into(), 1);
        m.insert(2, "b".into(), 1);
        m.insert(3, "c".into(), 1);
        m.peek(&2);
        m.peek(&1);
        assert_eq!(resident_keys(&mut m), vec![3, 2, 1]);
    }

    #[test]
    fn set_capacity_evicts_down() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(100);
        for k in 0..10 {
            m.insert(k, "x".into(), 10);
        }
        m.set_capacity(25);
        assert_eq!(m.len(), 2);
        assert_eq!(resident_keys(&mut m), vec![8, 9]);
    }

    #[test]
    fn remove_releases_cost() {
        let mut m: BoundedLru<u32, String> = BoundedLru::new(100);
        m.insert(1, "a".into(), 60);
        assert_eq!(m.remove(&1), Some("a".into()));
        assert_eq!(m.remove(&1), None);
        assert_eq!(m.stats().cost, 0);
        m.insert(2, "b".into(), 100);
        assert!(m.contains(&2));
    }

    #[test]
    fn eviction_order_matches_reference_under_mixed_traffic() {
        // Differential check against a simple clock-ordered reference, with
        // interleaved inserts, gets and peeks.
        use std::collections::BTreeMap;
        let mut fast: BoundedLru<u64, u64> = BoundedLru::new(8);
        // reference: key -> (clock, cost), eviction = smallest clock while
        // over budget (never the newest).
        let mut reference: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut clock = 0u64;
        let mut x = 7u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) % 12;
            let op = (x >> 20) % 3;
            clock += 1;
            match op {
                0 => {
                    fast.insert(key, key, 1);
                    let newest = key;
                    reference.insert(key, (clock, 1));
                    let total =
                        |r: &BTreeMap<u64, (u64, u64)>| r.values().map(|(_, c)| *c).sum::<u64>();
                    while total(&reference) > 8 {
                        let victim = reference
                            .iter()
                            .filter(|(k, _)| **k != newest || reference.len() == 1)
                            .min_by_key(|(_, (t, _))| *t)
                            .map(|(k, _)| *k)
                            .expect("over budget implies non-empty");
                        if victim == newest {
                            break;
                        }
                        reference.remove(&victim);
                    }
                }
                1 => {
                    let f = fast.get(&key).copied();
                    let r = reference.get(&key).map(|_| key);
                    assert_eq!(f, r, "get {key}");
                    if r.is_some() {
                        reference.insert(key, (clock, 1));
                    }
                }
                _ => {
                    let f = fast.peek(&key).copied();
                    let r = reference.get(&key).map(|_| key);
                    assert_eq!(f, r, "peek {key}");
                    if r.is_some() {
                        reference.insert(key, (clock, 1));
                    }
                }
            }
            assert_eq!(fast.len(), reference.len());
        }
    }
}
