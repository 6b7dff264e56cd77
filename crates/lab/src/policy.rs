//! Candidate memo-cache replacement policies for trace replay.
//!
//! Every policy simulates one cache family (the live front runs one
//! `projtile_cachesim::BoundedLru` per family per shard) over the hashed
//! keys carried by trace events. Entries are `(key, cost)` pairs — the lab
//! replays *accounting*, never payloads — and each policy answers the same
//! three operations the live install/lookup paths perform: residency check,
//! recency touch, and cost-charged insert with eviction.
//!
//! Exact LRU is the live map itself: [`BoundedLru<SimKey, ()>`] implements
//! [`PolicyCache`] directly, so the `--check-live` differential replays the
//! trace against the same code the service runs (under serialized traffic
//! the live read path's peeks fold into exactly the recency order that
//! `get` produces here). The counterfactual candidates scored by
//! [`crate::report::compare_policies`] are thin rules over `BoundedLru`'s
//! public API: every one of them takes residency, recency order and
//! eviction from a `BoundedLru` and keeps no recency order of its own (TTL
//! keeps a last-access tick per key, read only to decide expiry).

use std::collections::HashMap;

use projtile_cachesim::{BoundedLru, BoundedLruStats};

/// A simulated cache key: the event's cache-canonical family hash plus a
/// small component tag (tightness reports and their four component
/// artifacts share a family but occupy distinct entries).
pub type SimKey = u128;

/// The operations trace replay performs against one simulated cache family.
pub trait PolicyCache {
    /// `true` iff `key` is resident, without touching recency.
    fn contains(&self, key: SimKey) -> bool;
    /// Marks `key` most recently used; `true` iff it was resident.
    fn touch(&mut self, key: SimKey) -> bool;
    /// Inserts (or replaces) `key` at `cost`, marks it most recently used,
    /// and enforces the policy's retention rule.
    fn insert(&mut self, key: SimKey, cost: u64);
    /// Occupancy and lifetime eviction counters.
    fn stats(&self) -> BoundedLruStats;

    /// [`PolicyCache::insert`] only when `key` is absent — the live
    /// contains-guarded install path (tightness components, surfaces,
    /// slices). A resident entry is left untouched, exactly like the live
    /// guard (`contains` does not touch recency).
    fn insert_if_absent(&mut self, key: SimKey, cost: u64) {
        if !self.contains(key) {
            self.insert(key, cost);
        }
    }
}

/// Exact least-recently-used at a cost budget — the live policy and the
/// differential reference.
impl PolicyCache for BoundedLru<SimKey, ()> {
    fn contains(&self, key: SimKey) -> bool {
        BoundedLru::contains(self, &key)
    }
    fn touch(&mut self, key: SimKey) -> bool {
        self.get(&key).is_some()
    }
    fn insert(&mut self, key: SimKey, cost: u64) {
        BoundedLru::insert(self, key, (), cost);
    }
    fn stats(&self) -> BoundedLruStats {
        BoundedLru::stats(self)
    }
}

/// LRU plus a time-to-live: an entry untouched for more than `ttl` logical
/// ticks no longer answers lookups (lazy expiry, counted as an eviction).
/// Models a service that ages out stale memo entries to bound staleness
/// rather than only memory.
pub struct TtlPolicy {
    lru: BoundedLru<SimKey, ()>,
    ttl: u64,
    /// The logical clock: one tick per touch or insert.
    clock: u64,
    /// Tick of each key's last touch or insert. Read only to decide expiry;
    /// the recency order and eviction are the LRU map's.
    last_access: HashMap<SimKey, u64>,
    expirations: u64,
}

impl TtlPolicy {
    /// An empty cache with the given budget and time-to-live (in touches
    /// across the whole family — the replay's logical clock).
    pub fn new(capacity: u64, ttl: u64) -> TtlPolicy {
        TtlPolicy {
            lru: BoundedLru::new(capacity),
            ttl,
            clock: 0,
            last_access: HashMap::new(),
            expirations: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn expired(&self, key: SimKey) -> bool {
        self.lru.contains(&key)
            && self
                .last_access
                .get(&key)
                .is_some_and(|at| self.clock.saturating_sub(*at) > self.ttl)
    }
}

impl PolicyCache for TtlPolicy {
    fn contains(&self, key: SimKey) -> bool {
        self.lru.contains(&key) && !self.expired(key)
    }
    fn touch(&mut self, key: SimKey) -> bool {
        let expired = self.expired(key);
        let now = self.tick();
        if expired {
            self.lru.remove(&key);
            self.last_access.remove(&key);
            self.expirations += 1;
            return false;
        }
        let hit = self.lru.get(&key).is_some();
        if hit {
            self.last_access.insert(key, now);
        }
        hit
    }
    fn insert(&mut self, key: SimKey, cost: u64) {
        let now = self.tick();
        self.lru.insert(key, (), cost);
        self.last_access.insert(key, now);
    }
    fn stats(&self) -> BoundedLruStats {
        let stats = self.lru.stats();
        BoundedLruStats {
            evictions: stats.evictions + self.expirations,
            ..stats
        }
    }
}

/// LRU with cost-aware admission: an entry whose cost exceeds
/// `capacity / admit_denom` is never cached (the query recomputes every
/// time). Models protecting many small memo entries from a few bulky
/// surfaces wiping the family.
pub struct AdmitPolicy {
    lru: BoundedLru<SimKey, ()>,
    max_cost: u64,
    bypassed: u64,
}

impl AdmitPolicy {
    /// An empty cache admitting only entries of cost at most
    /// `capacity / admit_denom` (`admit_denom` is clamped to at least 1).
    pub fn new(capacity: u64, admit_denom: u64) -> AdmitPolicy {
        AdmitPolicy {
            lru: BoundedLru::new(capacity),
            max_cost: capacity / admit_denom.max(1),
            bypassed: 0,
        }
    }

    /// Inserts refused by the admission rule.
    pub fn bypassed(&self) -> u64 {
        self.bypassed
    }
}

impl PolicyCache for AdmitPolicy {
    fn contains(&self, key: SimKey) -> bool {
        self.lru.contains(&key)
    }
    fn touch(&mut self, key: SimKey) -> bool {
        self.lru.get(&key).is_some()
    }
    fn insert(&mut self, key: SimKey, cost: u64) {
        if cost > self.max_cost {
            self.bypassed += 1;
            return;
        }
        self.lru.insert(key, (), cost);
    }
    fn stats(&self) -> BoundedLruStats {
        self.lru.stats()
    }
}

/// Segmented LRU (a 2Q variant): new entries enter a probationary segment
/// (one quarter of the budget); a touch while probationary promotes to the
/// protected segment (three quarters). Protected overflow demotes back to
/// probation rather than evicting outright, so one burst of new keys cannot
/// flush the established working set.
///
/// Each segment is a `BoundedLru` holding every entry's cost as its value.
/// Probation evicts at its own budget; the protected map is unbounded, and
/// the policy enforces the protected budget by moving that map's least
/// recently used entries to probation instead.
pub struct TwoQPolicy {
    probation: BoundedLru<SimKey, u64>,
    protected: BoundedLru<SimKey, u64>,
    protected_cap: u64,
}

impl TwoQPolicy {
    /// An empty segmented cache splitting `capacity` 1:3 between the
    /// probationary and protected segments.
    pub fn new(capacity: u64) -> TwoQPolicy {
        let probation_cap = capacity / 4;
        TwoQPolicy {
            probation: BoundedLru::new(probation_cap),
            protected: BoundedLru::new(u64::MAX),
            protected_cap: capacity - probation_cap,
        }
    }

    /// Demotes least recently used protected entries (oldest first, so most
    /// demotions land as probation's most recent entries) until the
    /// protected budget holds, never demoting the sole remaining entry;
    /// probation overflow then evicts for real.
    fn demote_overflow(&mut self) {
        while self.protected.stats().cost > self.protected_cap && self.protected.len() > 1 {
            let Some((&key, &cost)) = self.protected.iter_lru_to_mru().next() else {
                break;
            };
            self.protected.remove(&key);
            self.probation.insert(key, cost, cost);
        }
    }
}

impl PolicyCache for TwoQPolicy {
    fn contains(&self, key: SimKey) -> bool {
        self.protected.contains(&key) || self.probation.contains(&key)
    }
    fn touch(&mut self, key: SimKey) -> bool {
        if self.protected.get(&key).is_some() {
            return true;
        }
        match self.probation.remove(&key) {
            Some(cost) => {
                self.protected.insert(key, cost, cost);
                self.demote_overflow();
                true
            }
            None => false,
        }
    }
    fn insert(&mut self, key: SimKey, cost: u64) {
        if self.protected.contains(&key) {
            self.protected.insert(key, cost, cost);
            self.demote_overflow();
        } else {
            self.probation.insert(key, cost, cost);
        }
    }
    fn stats(&self) -> BoundedLruStats {
        // Demotions are not evictions, and the unbounded protected map
        // never evicts: only probation's evictions count.
        let (a, b) = (self.probation.stats(), self.protected.stats());
        BoundedLruStats {
            entries: a.entries + b.entries,
            cost: a.cost + b.cost,
            capacity: a.capacity + self.protected_cap,
            evictions: a.evictions,
        }
    }
}

/// The candidate policies the lab scores, with their default parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Exact LRU — the live policy and the differential reference.
    Lru,
    /// LRU with the given time-to-live in logical ticks.
    Ttl(u64),
    /// LRU admitting only entries of cost ≤ `capacity / denom`.
    Admit(u64),
    /// Segmented LRU (2Q) with a 1:3 probation/protected split.
    TwoQ,
}

impl PolicyKind {
    /// The default candidate set scored by policy comparisons.
    pub const CANDIDATES: [PolicyKind; 4] = [
        PolicyKind::Lru,
        PolicyKind::Ttl(2048),
        PolicyKind::Admit(8),
        PolicyKind::TwoQ,
    ];

    /// A short stable display name (column label in report tables).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Lru => "lru".to_string(),
            PolicyKind::Ttl(ttl) => format!("ttl({ttl})"),
            PolicyKind::Admit(denom) => format!("admit(1/{denom})"),
            PolicyKind::TwoQ => "2q".to_string(),
        }
    }

    /// Builds one simulated cache family at the given cost budget.
    pub fn build(&self, capacity: u64) -> Box<dyn PolicyCache> {
        match self {
            PolicyKind::Lru => Box::new(BoundedLru::<SimKey, ()>::new(capacity)),
            PolicyKind::Ttl(ttl) => Box::new(TtlPolicy::new(capacity, *ttl)),
            PolicyKind::Admit(denom) => Box::new(AdmitPolicy::new(capacity, *denom)),
            PolicyKind::TwoQ => Box::new(TwoQPolicy::new(capacity)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent_but_never_the_sole_entry() {
        let mut lru = PolicyKind::Lru.build(30);
        lru.insert(1, 10);
        lru.insert(2, 10);
        lru.insert(3, 10);
        assert!(lru.touch(1));
        lru.insert(4, 10); // 2 is LRU
        assert!(!lru.contains(2));
        assert!(lru.contains(1) && lru.contains(3) && lru.contains(4));
        lru.insert(9, 1000); // oversized newest entry survives alone
        assert!(lru.contains(9));
        assert_eq!(lru.stats().entries, 1);
    }

    #[test]
    fn ttl_expires_stale_entries() {
        let mut ttl = TtlPolicy::new(1000, 1);
        ttl.insert(1, 1);
        assert!(ttl.touch(1));
        ttl.insert(2, 1);
        ttl.insert(3, 1);
        // Entry 1 was last touched 2 ticks ago (> ttl 1): expired.
        assert!(!ttl.contains(1));
        assert!(!ttl.touch(1));
        assert!(ttl.contains(3));
    }

    #[test]
    fn admit_refuses_bulky_entries() {
        let mut adm = AdmitPolicy::new(80, 8); // admit cost <= 10
        adm.insert(1, 10);
        adm.insert(2, 11);
        assert!(adm.contains(1));
        assert!(!adm.contains(2));
        assert_eq!(adm.bypassed(), 1);
    }

    #[test]
    fn two_q_protects_reused_entries_from_scan_floods() {
        let mut q = TwoQPolicy::new(40); // probation 10, protected 30
        q.insert(1, 5);
        assert!(q.touch(1)); // promoted to protected
        for k in 100..120 {
            q.insert(k, 5); // scan flood churns probation only
        }
        assert!(q.contains(1));
    }
}
