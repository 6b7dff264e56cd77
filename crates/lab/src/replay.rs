//! Deterministic trace replay: push a recorded
//! [`TraceDocument`] through simulated
//! per-shard cache families under a candidate [`PolicyKind`].
//!
//! The replay reproduces the live `SharedEngine` resolution pipeline from
//! events alone — no nests, no solver:
//!
//! * events are regrouped by their `batch` id (one group per live
//!   `analyze`/`analyze_batch` call, contiguous in append order);
//! * each group runs the live phases in order: a **probe pass** (one peek
//!   per distinct literal in first-occurrence order, with the tightness
//!   recompose path touching component artifacts as it short-circuits), a
//!   **classification** (first uncached occurrence per cache-canonical
//!   family is the computing miss; repeated literals of it are duplicates;
//!   distinct literals of it are canonical twins answered as hits from the
//!   fresh result, touching no cache), an **intern** of the signature and
//!   orientation, and an **install pass** in pending order charging the
//!   recorded per-entry costs;
//! * the simulated shard is the recorded routing key modulo the shard
//!   count, so cross-shard isolation is reproduced too.
//!
//! With the exact-LRU policy at the recorded budgets, a cold-start trace
//! recorded under serialized traffic replays to the **same class for every
//! event** and the same hit/miss totals as the live front — the keystone
//! differential ([`check_live`]). Candidate policies reuse the same driver
//! and report what the hit rate would have been; entry costs for misses the
//! live front didn't take are recovered from a cost book learned from the
//! trace's own miss events (from a cold start, every installable entry's
//! first live resolution is a recorded miss).

use std::collections::{HashMap, HashSet};
use std::fmt;

use projtile_cachesim::BoundedLruStats;
use projtile_core::engine::{outcome, TraceDocument, TraceEvent};

use crate::policy::{PolicyCache, PolicyKind, SimKey};

/// Component tags distinguishing co-familial entries in the simulated
/// results family (mirrors the live `ResultKind`).
mod tag {
    pub const BOUND: u8 = 1;
    pub const ENUMERATED: u8 = 2;
    pub const TILING: u8 = 3;
    pub const CERTIFICATE: u8 = 4;
    pub const REPORT: u8 = 5;
}

/// Install order of a tightness miss's component artifacts (before the
/// report), matching the live install pass and its recorded cost order.
const TIGHTNESS_COMPONENTS: [u8; 4] = [tag::TILING, tag::BOUND, tag::ENUMERATED, tag::CERTIFICATE];

fn key(fam: u64, t: u8) -> SimKey {
    ((fam as u128) << 8) | t as u128
}

/// Per-shard cost budgets for the three cache families queries exercise
/// (no query computes into the β cache — only a restored snapshot fills
/// it — so it never appears in a trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budgets {
    /// Typed-results family budget (bounds, enumerations, tilings,
    /// tightness reports and certificates).
    pub results: u64,
    /// Slice value-function family budget.
    pub slices: u64,
    /// Surface family budget.
    pub surfaces: u64,
}

impl Budgets {
    /// The recorded per-shard budgets of the front that produced `doc`.
    pub fn from_document(doc: &TraceDocument) -> Budgets {
        Budgets {
            results: doc.shard_config.results_capacity,
            slices: doc.shard_config.slices_capacity,
            surfaces: doc.shard_config.surfaces_capacity,
        }
    }

    /// These budgets scaled by `num / den` (saturating, `den` clamped ≥ 1).
    pub fn scaled(&self, num: u64, den: u64) -> Budgets {
        let den = den.max(1);
        let s = |v: u64| v.saturating_mul(num) / den;
        Budgets {
            results: s(self.results),
            slices: s(self.slices),
            surfaces: s(self.surfaces),
        }
    }
}

/// How the replay resolved one event (recorded outcomes fold to the same
/// three classes for comparison: failed computations count as misses, and
/// canonical twins count as hits, exactly like the live counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Answered from a simulated resident entry (or as a canonical twin of
    /// a query computed in the same batch).
    Hit,
    /// Would compute: first uncached occurrence of its family in the batch.
    Miss,
    /// Repeated literal of a computing query within one batch — neither hit
    /// nor miss, matching the live accounting.
    Duplicate,
}

impl fmt::Display for EventClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventClass::Hit => "hit",
            EventClass::Miss => "miss",
            EventClass::Duplicate => "duplicate",
        })
    }
}

fn recorded_class(oc: u8) -> EventClass {
    match oc {
        outcome::HIT => EventClass::Hit,
        outcome::DUPLICATE => EventClass::Duplicate,
        _ => EventClass::Miss,
    }
}

/// One replay/recording divergence (only the exact-LRU replay of a
/// cold-start serialized trace is expected to have none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The diverging event's global ordinal.
    pub ordinal: u64,
    /// What the simulation resolved.
    pub predicted: EventClass,
    /// What the live front recorded.
    pub recorded: EventClass,
}

/// The outcome of replaying one document under one policy.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Display name of the replayed policy.
    pub policy: String,
    /// The per-shard budgets the simulation ran at.
    pub budgets: Budgets,
    /// Events replayed.
    pub events: usize,
    /// Events the simulation answered from cache (twins included).
    pub sim_hits: u64,
    /// Events the simulation computed.
    pub sim_misses: u64,
    /// Intra-batch duplicate literals (neither hit nor miss).
    pub sim_duplicates: u64,
    /// The live front's hit counter over the recorded window.
    pub live_hits: u64,
    /// The live front's miss counter over the recorded window.
    pub live_misses: u64,
    /// Cost units served from simulated cache (entry cost per hit).
    pub byte_hits: u64,
    /// Cost units requested overall (entry cost per hit or miss).
    pub byte_total: u64,
    /// Simulated misses that could not charge an install because the live
    /// trace never priced the entry (only failed computations qualify).
    pub unpriced_installs: u64,
    /// Results-family occupancy/evictions summed across shards.
    pub results: BoundedLruStats,
    /// Slice-family occupancy/evictions summed across shards.
    pub slices: BoundedLruStats,
    /// Surface-family occupancy/evictions summed across shards.
    pub surfaces: BoundedLruStats,
    /// Event-level divergences from the recording (first 8).
    pub mismatches: Vec<Mismatch>,
    /// Total number of diverging events.
    pub mismatch_count: u64,
    /// `true` iff every event matched its recorded class and the totals
    /// equal the live counters.
    pub matches_live: bool,
}

impl ReplayReport {
    /// Simulated hit rate in percent (0 when no hits or misses).
    pub fn hit_rate(&self) -> f64 {
        rate(self.sim_hits, self.sim_hits + self.sim_misses)
    }

    /// Simulated byte-hit rate in percent (cost-weighted hit rate).
    pub fn byte_hit_rate(&self) -> f64 {
        rate(self.byte_hits, self.byte_total)
    }

    /// Evictions summed across the three families.
    pub fn evictions(&self) -> u64 {
        self.results.evictions + self.slices.evictions + self.surfaces.evictions
    }
}

fn rate(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Why a differential replay refused or failed; see [`check_live`].
#[derive(Debug)]
pub enum ReplayError {
    /// The recorder was attached to a warm front (`warm_entries > 0`): a
    /// cold-start simulation cannot reproduce its hits.
    WarmTrace(u64),
    /// The recorder overflowed (`dropped > 0`): the event stream is
    /// truncated, so totals cannot be reconciled.
    DroppedEvents(u64),
    /// The exact-LRU replay diverged from the recording (carries the full
    /// report; its `mismatches` lists the first diverging events).
    Diverged(Box<ReplayReport>),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::WarmTrace(n) => write!(
                f,
                "trace was recorded on a warm front ({n} resident entries); \
                 differential replay needs a cold start"
            ),
            ReplayError::DroppedEvents(n) => {
                write!(f, "trace dropped {n} events past its capacity")
            }
            ReplayError::Diverged(report) => write!(
                f,
                "exact-LRU replay diverged from the recording on {} of {} events \
                 (sim {}/{} vs live {}/{} hits/misses); first: {:?}",
                report.mismatch_count,
                report.events,
                report.sim_hits,
                report.sim_misses,
                report.live_hits,
                report.live_misses,
                report.mismatches.first()
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

struct Shard {
    /// Interned signature hashes (slices are keyed by signature).
    signatures: HashSet<u64>,
    /// Interned orientation hashes (every other family is keyed by
    /// orientation).
    interned: HashSet<u64>,
    results: Box<dyn PolicyCache>,
    slices: Box<dyn PolicyCache>,
    surfaces: Box<dyn PolicyCache>,
}

impl Shard {
    fn family(&mut self, kind: u8) -> &mut dyn PolicyCache {
        match kind {
            4 => self.surfaces.as_mut(),
            5 => self.slices.as_mut(),
            _ => self.results.as_mut(),
        }
    }
}

/// The primary lookup key of an event (the entry its kind's peek answers
/// from — for tightness, the report).
fn primary_key(ev: &TraceEvent) -> SimKey {
    match ev.kind {
        0 => key(ev.fam, tag::BOUND),
        1 => key(ev.fam, tag::ENUMERATED),
        2 => key(ev.fam, tag::TILING),
        3 => key(ev.fam, tag::REPORT),
        _ => key(ev.fam, 0),
    }
}

/// The live peek path for one event: touch on success; the tightness
/// recompose path touches each component it finds, short-circuiting at the
/// first absence (an overall miss can still refresh some components).
/// Slices need only the signature interned, every other kind the
/// orientation.
fn probe(shard: &mut Shard, ev: &TraceEvent) -> bool {
    let interned = if ev.kind == 5 {
        shard.signatures.contains(&ev.sig)
    } else {
        shard.interned.contains(&ev.orient)
    };
    if !interned {
        return false;
    }
    match ev.kind {
        3 => {
            if shard.results.touch(key(ev.fam, tag::REPORT)) {
                return true;
            }
            for t in TIGHTNESS_COMPONENTS {
                if !shard.results.touch(key(ev.fam, t)) {
                    return false;
                }
            }
            true
        }
        k => shard.family(k).touch(primary_key(ev)),
    }
}

/// The live install path for one computing miss, charging the recorded
/// per-entry costs: typed results overwrite; tightness installs its
/// components where absent, the report last, then re-touches the components
/// (the derived-last recency policy); surfaces and slices install only
/// where absent.
fn install(shard: &mut Shard, ev: &TraceEvent, costs: &[u64]) {
    let at = |i: usize| costs.get(i).copied().unwrap_or(0);
    match ev.kind {
        3 => {
            for (i, t) in TIGHTNESS_COMPONENTS.into_iter().enumerate() {
                shard.results.insert_if_absent(key(ev.fam, t), at(i));
            }
            shard.results.insert(key(ev.fam, tag::REPORT), at(4));
            for t in TIGHTNESS_COMPONENTS {
                shard.results.touch(key(ev.fam, t));
            }
        }
        4 | 5 => {
            shard
                .family(ev.kind)
                .insert_if_absent(primary_key(ev), at(0));
        }
        k => {
            shard.family(k).insert(primary_key(ev), at(0));
        }
    }
}

/// Replays `doc` under `policy` at the given per-shard budgets. Processes
/// events in append order, so the replay is exact for serialized recordings
/// (concurrent recordings replay in commit order, which may legitimately
/// diverge from per-shard lock order).
pub fn replay_document(doc: &TraceDocument, policy: PolicyKind, budgets: Budgets) -> ReplayReport {
    let num_shards = (doc.num_shards as u64).max(1);
    let mut shards: Vec<Shard> = (0..num_shards)
        .map(|_| Shard {
            signatures: HashSet::new(),
            interned: HashSet::new(),
            results: policy.build(budgets.results),
            slices: policy.build(budgets.slices),
            surfaces: policy.build(budgets.surfaces),
        })
        .collect();

    // Cost book: every installable entry's first live resolution from a
    // cold start is a recorded miss, so recorded costs price the entries
    // for counterfactual policies too.
    let mut book: HashMap<(u8, u64), Vec<u64>> = HashMap::new();
    for ev in &doc.events {
        if ev.outcome == outcome::MISS && !ev.costs.is_empty() {
            book.entry((ev.kind, ev.fam))
                .or_insert_with(|| ev.costs.clone());
        }
    }
    // The cost an event's answer represents, for byte-rate accounting (the
    // report entry for tightness, the sole entry otherwise).
    let serve_cost = |ev: &TraceEvent| -> u64 {
        book.get(&(ev.kind, ev.fam))
            .map(|costs| {
                if ev.kind == 3 {
                    costs.get(4).copied().unwrap_or(0)
                } else {
                    costs.first().copied().unwrap_or(0)
                }
            })
            .unwrap_or(0)
    };

    let mut report = ReplayReport {
        policy: policy.name(),
        budgets,
        events: doc.events.len(),
        sim_hits: 0,
        sim_misses: 0,
        sim_duplicates: 0,
        live_hits: doc.hits,
        live_misses: doc.misses,
        byte_hits: 0,
        byte_total: 0,
        unpriced_installs: 0,
        results: BoundedLruStats::default(),
        slices: BoundedLruStats::default(),
        surfaces: BoundedLruStats::default(),
        mismatches: Vec::new(),
        mismatch_count: 0,
        matches_live: false,
    };

    let mut at = 0usize;
    while at < doc.events.len() {
        let batch_id = doc.events[at].batch;
        let mut end = at + 1;
        while end < doc.events.len() && doc.events[end].batch == batch_id {
            end += 1;
        }
        let batch = &doc.events[at..end];
        at = end;

        let shard = &mut shards[(batch[0].sig % num_shards) as usize];

        // Probe pass: one peek per distinct literal, at its first
        // occurrence (partial tightness touches included); repeats reuse it.
        let mut probed: HashMap<u64, bool> = HashMap::new();
        let found: Vec<bool> = batch
            .iter()
            .map(|ev| *probed.entry(ev.lhash).or_insert_with(|| probe(shard, ev)))
            .collect();

        // Classification: first uncached occurrence per cache-canonical
        // family computes; its literal repeats are duplicates; its distinct
        // literals (permuted-axes surface twins) are hits answered by remap.
        let mut first: HashMap<(u8, u64), u64> = HashMap::new();
        let mut classes = Vec::with_capacity(batch.len());
        for (i, ev) in batch.iter().enumerate() {
            let class = if found[i] {
                EventClass::Hit
            } else {
                match first.get(&(ev.kind, ev.fam)) {
                    None => {
                        first.insert((ev.kind, ev.fam), ev.lhash);
                        EventClass::Miss
                    }
                    Some(&rep) if rep == ev.lhash => EventClass::Duplicate,
                    Some(_) => EventClass::Hit,
                }
            };
            classes.push(class);
        }

        // Intern: a live call skips its write pass only when its
        // orientation is already interned, so every call leaves signature
        // and orientation interned — except in traces from older builds,
        // whose single-query failures returned before interning.
        if batch
            .iter()
            .any(|ev| ev.outcome != outcome::FAILED_NO_INTERN)
        {
            shard.signatures.insert(batch[0].sig);
            shard.interned.insert(batch[0].orient);
        }

        // Install pass in pending order. Recorded misses charge their own
        // costs; policy-divergent misses (the live front hit) charge the
        // book; failed computations install nothing, exactly like live.
        for (i, ev) in batch.iter().enumerate() {
            if classes[i] != EventClass::Miss {
                continue;
            }
            match ev.outcome {
                outcome::MISS => install(shard, ev, &ev.costs),
                outcome::FAILED | outcome::FAILED_NO_INTERN => {}
                _ => match book.get(&(ev.kind, ev.fam)) {
                    Some(costs) => {
                        let costs = costs.clone();
                        install(shard, ev, &costs);
                    }
                    None => report.unpriced_installs += 1,
                },
            }
        }

        // Accounting and recording comparison.
        for (ev, class) in batch.iter().zip(&classes) {
            match class {
                EventClass::Hit => {
                    report.sim_hits += 1;
                    report.byte_hits += serve_cost(ev);
                    report.byte_total += serve_cost(ev);
                }
                EventClass::Miss => {
                    report.sim_misses += 1;
                    report.byte_total += serve_cost(ev);
                }
                EventClass::Duplicate => report.sim_duplicates += 1,
            }
            let recorded = recorded_class(ev.outcome);
            if *class != recorded {
                report.mismatch_count += 1;
                if report.mismatches.len() < 8 {
                    report.mismatches.push(Mismatch {
                        ordinal: ev.ordinal,
                        predicted: *class,
                        recorded,
                    });
                }
            }
        }
    }

    for shard in &shards {
        for (acc, part) in [
            (&mut report.results, shard.results.stats()),
            (&mut report.slices, shard.slices.stats()),
            (&mut report.surfaces, shard.surfaces.stats()),
        ] {
            acc.entries += part.entries;
            acc.cost += part.cost;
            acc.capacity += part.capacity;
            acc.evictions += part.evictions;
        }
    }
    report.matches_live = report.mismatch_count == 0
        && report.sim_hits == doc.hits
        && report.sim_misses == doc.misses;
    report
}

/// The keystone differential: replays `doc` through the exact-LRU simulator
/// at the recorded budgets and insists the simulation reproduces the live
/// front's resolution **event for event** (and its hit/miss totals).
/// Refuses traces a cold simulation cannot possibly reproduce — warm-start
/// recordings and overflowed recorders.
pub fn check_live(doc: &TraceDocument) -> Result<ReplayReport, ReplayError> {
    if doc.warm_entries > 0 {
        return Err(ReplayError::WarmTrace(doc.warm_entries));
    }
    if doc.dropped > 0 {
        return Err(ReplayError::DroppedEvents(doc.dropped));
    }
    let report = replay_document(doc, PolicyKind::Lru, Budgets::from_document(doc));
    if report.matches_live {
        Ok(report)
    } else {
        Err(ReplayError::Diverged(Box::new(report)))
    }
}
