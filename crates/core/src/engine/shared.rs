//! The thread-safe service front: a [`SharedEngine`] sharding session state
//! by canonical nest signature. Its [`SharedEngine::analyze_batch`] is the
//! engine's only resolution pipeline; [`super::Engine`] is a one-shard
//! front behind a `&mut self` façade.
//!
//! # Concurrency model
//!
//! * **Sharding.** Each interned nest lives in exactly one shard (chosen by
//!   hashing its permutation-invariant [`NestSignature`]), and each shard is
//!   a store of interned nests and bounded memo caches behind a
//!   `parking_lot` reader-writer lock. Traffic on distinct nests contends
//!   only when the nests hash to the same shard.
//! * **Lock-free read path for hits.** A cache hit takes only the shard's
//!   *shared* read lock: the memoized answer is read through
//!   [`projtile_cachesim::BoundedLru::peek`], which records recency in
//!   per-entry atomic stamps rather than re-threading the LRU list, so
//!   concurrent hits on one shard proceed in parallel and never queue behind
//!   a writer (the stamps are folded into the eviction order by the next
//!   exclusive operation).
//! * **Compute outside the locks.** A miss computes with the stateless
//!   free-function paths using a solver context checked out of the front's
//!   shared [`projtile_lp::ContextPool`] — one context per worker, so
//!   concurrent `analyze_batch` calls from many threads never serialize on
//!   one warm tableau — and only then takes the shard's write lock, briefly,
//!   to intern and install. Two threads racing on the same query compute
//!   the same bitwise value; the loser's install is an idempotent overwrite.
//!
//! Answers are bitwise-identical to the cold free functions
//! ([`super::cold_answer`]), under any interleaving and any eviction
//! pressure — pinned by the multi-threaded differential proptests.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use projtile_loopnest::{canonicalize, CanonicalNest, LoopNest, NestSignature};
use projtile_lp::ContextPool;
use projtile_par::par_map_with;
use serde::{json, Value};

use super::shard::Shard;
use super::snapshot::SNAPSHOT_VERSION;
use super::trace::{outcome, TraceDocument, TraceEvent, TraceRecorder, TRACE_VERSION};
use super::{
    compute_detached, query_kind_index, validate_query, AnalysisResult, CacheMetrics, EngineConfig,
    EngineError, EngineStats, Query, QUERY_KIND_COUNT,
};

/// A thread-safe, sharded analysis service front. Create once, share by
/// reference (`&SharedEngine` is `Send + Sync`) across worker threads.
///
/// ```
/// use projtile_core::engine::{AnalysisResult, Query, SharedEngine};
/// use projtile_loopnest::builders;
///
/// let shared = SharedEngine::new();
/// let nest = builders::matmul(512, 512, 8);
/// let query = Query::Tightness { cache_size: 1 << 10 };
/// // Concurrent callers share one session; repeats are read-lock hits.
/// std::thread::scope(|scope| {
///     for _ in 0..4 {
///         scope.spawn(|| shared.analyze(&nest, &query).unwrap());
///     }
/// });
/// assert_eq!(shared.stats().interned, 1);
/// match shared.analyze(&nest, &query).unwrap() {
///     AnalysisResult::Tightness(report) => assert!(report.tight),
///     other => panic!("unexpected result {other:?}"),
/// }
/// ```
pub struct SharedEngine {
    shards: Vec<RwLock<Shard>>,
    pool: ContextPool,
    queries: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    kind_hits: [AtomicU64; QUERY_KIND_COUNT],
    kind_misses: [AtomicU64; QUERY_KIND_COUNT],
    recorder: TraceRecorder,
    /// Front-wide counters at the moment the recorder was attached, so the
    /// drained document reports stats covering exactly the recorded window.
    trace_base: EngineStats,
    /// Cache entries resident when the recorder was attached (non-zero for
    /// a snapshot-restored front; differential replays refuse warm traces).
    trace_warm_entries: u64,
}

impl Default for SharedEngine {
    fn default() -> SharedEngine {
        SharedEngine::new()
    }
}

impl std::fmt::Debug for SharedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedEngine")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Default shard count: enough to keep `PROJTILE_THREADS` workers off each
/// other's locks, capped so idle shards stay cheap.
fn default_shards() -> usize {
    projtile_par::num_threads().clamp(1, 16).next_power_of_two()
}

impl SharedEngine {
    /// Creates a front with default cache budgets and shard count.
    pub fn new() -> SharedEngine {
        SharedEngine::with_config(EngineConfig::default(), default_shards())
    }

    /// Creates a front with explicit cache budgets and shard count. The
    /// budgets are **divided evenly across shards** (rounding up, so a
    /// small budget is never silently zeroed; the front may retain up to
    /// `shards - 1` cost units more than requested per cache). `config`
    /// therefore describes the whole front's retention, not one shard's.
    pub fn with_config(config: EngineConfig, num_shards: usize) -> SharedEngine {
        let n = num_shards.max(1) as u64;
        let per_shard = EngineConfig {
            results_capacity: config.results_capacity.div_ceil(n),
            betas_capacity: config.betas_capacity.div_ceil(n),
            slices_capacity: config.slices_capacity.div_ceil(n),
            surfaces_capacity: config.surfaces_capacity.div_ceil(n),
        };
        let n = n as usize;
        SharedEngine {
            shards: (0..n).map(|_| RwLock::new(Shard::new(per_shard))).collect(),
            pool: ContextPool::new(),
            queries: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            kind_hits: std::array::from_fn(|_| AtomicU64::new(0)),
            kind_misses: std::array::from_fn(|_| AtomicU64::new(0)),
            recorder: TraceRecorder::disabled(),
            trace_base: EngineStats::default(),
            trace_warm_entries: 0,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Counters for this front's lifetime, aggregated across shards.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            interned: self
                .shards
                .iter()
                .map(|s| s.read().entries.len() as u64)
                .sum(),
        }
    }

    /// Cache occupancy and eviction counters, summed across shards, plus
    /// per-query-kind hit/miss counters.
    pub fn cache_metrics(&self) -> CacheMetrics {
        let mut total = CacheMetrics::default();
        for shard in &self.shards {
            // lint: allow(L009) BoundedLru::stats reads counters only; the edge into SharedEngine::stats is a same-name dispatch over-approximation
            shard.read().add_cache_stats(&mut total);
        }
        for ((acc, hits), misses) in total
            .kinds
            .iter_mut()
            .zip(&self.kind_hits)
            .zip(&self.kind_misses)
        {
            acc.hits = hits.load(Ordering::Relaxed);
            acc.misses = misses.load(Ordering::Relaxed);
        }
        total
    }

    // -----------------------------------------------------------------------
    // Trace recording (the cache policy lab's input)
    // -----------------------------------------------------------------------

    /// Attaches a bounded lock-free trace recorder retaining up to
    /// `capacity` events (0 disables recording and removes all overhead
    /// from the query path). Takes `&mut self`, so recording is wired
    /// before the front is shared — the service does this at boot, driven
    /// by `--trace-capacity` / `PROJTILE_TRACE_CAPACITY`.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.recorder = TraceRecorder::with_capacity(capacity);
        self.trace_base = self.stats();
        let m = self.cache_metrics();
        self.trace_warm_entries = (m.betas.entries + m.results.entries)
            .saturating_add(m.slices.entries + m.surfaces.entries)
            as u64;
    }

    /// `true` iff a non-zero-capacity recorder is attached.
    pub fn trace_enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Drains the recorded trace (without resetting it) as a
    /// [`TraceDocument`]: the recorded events plus the front geometry
    /// (shard count, per-shard budgets) and the hit/miss counters covering
    /// the recorded window — everything the lab's differential replay
    /// needs to reproduce the live accounting.
    pub fn trace_document(&self) -> TraceDocument {
        let stats = self.stats();
        TraceDocument {
            version: TRACE_VERSION,
            num_shards: self.shards.len() as u32,
            shard_config: self.shard_config(),
            queries: stats.queries.saturating_sub(self.trace_base.queries),
            hits: stats.hits.saturating_sub(self.trace_base.hits),
            misses: stats.misses.saturating_sub(self.trace_base.misses),
            dropped: self.recorder.dropped(),
            warm_entries: self.trace_warm_entries,
            events: self.recorder.events(),
        }
    }

    fn shard_of(&self, sig: &NestSignature) -> usize {
        self.shard_index(hash_u64(sig))
    }

    /// Routes a signature hash to its home shard's index. `shards` is
    /// non-empty for every constructed front, and `checked_rem` keeps the
    /// arithmetic total even if it were not.
    fn shard_index(&self, hash: u64) -> usize {
        hash.checked_rem(self.shards.len() as u64).unwrap_or(0) as usize
    }

    /// The shard lock routed to by `hash`.
    fn shard(&self, hash: u64) -> &RwLock<Shard> {
        // lint: allow(L008) shard_index is always < shards.len() (checked_rem) and shards is non-empty by construction
        &self.shards[self.shard_index(hash)]
    }

    /// Answers one typed query about `nest`: a one-query
    /// [`SharedEngine::analyze_batch`], so a hit on an interned orientation
    /// takes only the shard's read lock.
    pub fn analyze(&self, nest: &LoopNest, query: &Query) -> Result<AnalysisResult, EngineError> {
        self.analyze_batch(nest, std::slice::from_ref(query))
            .pop()
            .unwrap_or(Err(EngineError::Internal(
                "a one-query batch answered nothing",
            )))
    }

    /// Answers a batch of queries about `nest`, in input order. This is the
    /// engine's one resolution pipeline:
    ///
    /// 1. validate every query and collect the distinct valid literals;
    /// 2. canonicalize the nest and probe the caches under the shard's read
    ///    lock;
    /// 3. dedupe the unanswered literals by cache-canonical form;
    /// 4. compute each distinct miss with no lock held, fanned out through
    ///    `projtile_par` with per-worker pooled solver contexts;
    /// 5. under one write lock, intern the orientation and install the
    ///    results (skipped when every literal hit and the orientation is
    ///    already interned);
    /// 6. count hits and misses and record the batch's trace events.
    ///
    /// Repeats of a computed literal are counted as neither hit nor miss;
    /// permuted-axes surface twins of a computed literal count as hits.
    pub fn analyze_batch(
        &self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.queries
            .fetch_add(queries.len() as u64, Ordering::Relaxed);
        // 1. Validate; name each valid position by its distinct literal.
        let mut literals: Vec<&Query> = Vec::new();
        let mut literal_index: HashMap<&Query, usize> = HashMap::new();
        let slots: Vec<Result<usize, EngineError>> = queries
            .iter()
            .map(|q| {
                validate_query(nest, q)?;
                Ok(*literal_index.entry(q).or_insert_with(|| {
                    literals.push(q);
                    literals.len() - 1
                }))
            })
            .collect();
        if literals.is_empty() {
            // Nothing valid to intern, compute or trace (`filter_map` keeps
            // the length: every slot is an error).
            return slots.into_iter().filter_map(Result::err).map(Err).collect();
        }

        // 2. Read pass. Slices are keyed by signature, not declaration
        // order, so they are found even before this orientation is interned.
        let canon = canonicalize(nest);
        let loop_perm = canon.loop_permutation();
        let sig = hash_u64(&canon.signature());
        let shard = self.shard(sig);
        let tracing = self.recorder.enabled();
        let (mut answers, oriented) = {
            let store = shard.read();
            let found = store.find(&canon);
            let answers: Vec<Option<Result<AnalysisResult, EngineError>>> = literals
                .iter()
                .map(|q| {
                    let (e, o) = found?;
                    store.peek_cached(e, o, loop_perm, q).map(Ok)
                })
                .collect();
            (answers, matches!(found, Some((_, Some(_)))))
        };

        // 3. Dedupe: the first unanswered literal of each cache-canonical
        // form computes; the others of that form are its permuted-axes twins.
        let mut forms: HashMap<Query, usize> = HashMap::new();
        let roles: Vec<Role> = literals
            .iter()
            .zip(&answers)
            .enumerate()
            .map(|(l, (q, answer))| {
                if answer.is_some() {
                    return Role::Hit;
                }
                match forms.entry(super::canonical_query_form(q)) {
                    Entry::Occupied(rep) => Role::Twin(*rep.get()),
                    Entry::Vacant(slot) => {
                        slot.insert(l);
                        Role::Computes
                    }
                }
            })
            .collect();
        let pending: Vec<(usize, &Query)> = literals
            .iter()
            .zip(&roles)
            .enumerate()
            .filter(|(_, (_, role))| **role == Role::Computes)
            .map(|(l, (q, _))| (l, *q))
            .collect();

        let mut costs: Vec<Vec<u64>> = vec![Vec::new(); literals.len()];
        if !pending.is_empty() || !oriented {
            // 4. Compute with no lock held; one pooled context per worker.
            let computed = par_map_with(
                &pending,
                || self.pool.checkout(),
                |ctx, _, (_, q)| compute_detached(nest, canon.nest(), loop_perm, q, ctx),
            );
            // 5. Write pass: intern, then install. Racing threads compute
            // the same bitwise values, so a loser's install is an idempotent
            // overwrite.
            let mut store = shard.write();
            let (e, o) = store.intern_with(&canon);
            for (&(l, q), computed) in pending.iter().zip(computed) {
                let answer = match computed {
                    Ok(detached) => {
                        // Twins are answered from the fresh surface before
                        // it moves into the cache: no re-read, no recompute.
                        answer_twins(&literals, &roles, &mut answers, l, |twin| {
                            detached.answer_twin(twin)
                        });
                        if let (true, Some(c)) = (tracing, costs.get_mut(l)) {
                            *c = detached.costs();
                        }
                        store.install(e, o, loop_perm, q, detached)
                    }
                    Err(err) => {
                        answer_twins(&literals, &roles, &mut answers, l, |_| Err(err.clone()));
                        Err(err)
                    }
                };
                if let Some(slot) = answers.get_mut(l) {
                    *slot = Some(answer);
                }
            }
        }

        // 6. Account and trace per position, in input order.
        let orient = if tracing {
            orientation_hash(sig, &canon)
        } else {
            0
        };
        let trace_batch = tracing.then(|| self.recorder.next_batch());
        let mut events = Vec::new();
        let mut counted = vec![false; literals.len()];
        let results = slots
            .into_iter()
            .map(|slot| {
                let l = slot?;
                let (Some(query), Some(role), Some(answer), Some(counted)) = (
                    literals.get(l),
                    roles.get(l),
                    answers.get(l),
                    counted.get_mut(l),
                ) else {
                    return Err(EngineError::Internal("batch slot names no literal"));
                };
                let answer = answer
                    .clone()
                    .unwrap_or(Err(EngineError::Internal("query left unresolved")));
                let kind = query_kind_index(query);
                let oc = match role {
                    Role::Computes if std::mem::replace(counted, true) => outcome::DUPLICATE,
                    Role::Computes if answer.is_err() => outcome::FAILED,
                    Role::Computes => outcome::MISS,
                    Role::Hit | Role::Twin(_) => outcome::HIT,
                };
                if oc != outcome::DUPLICATE {
                    self.count(kind, oc == outcome::HIT);
                }
                if let Some(batch) = trace_batch {
                    events.push(TraceEvent {
                        ordinal: 0,
                        batch,
                        sig,
                        orient,
                        kind: kind as u8,
                        m: query.cache_size(),
                        lhash: hash_u64(query),
                        fam: family_hash(sig, orient, &canon, query),
                        outcome: oc,
                        costs: match (oc, costs.get(l)) {
                            (outcome::MISS, Some(c)) => c.clone(),
                            _ => Vec::new(),
                        },
                    });
                }
                answer
            })
            .collect();
        if trace_batch.is_some() {
            self.recorder.record(events);
        }
        results
    }

    /// Counts one resolved query as a hit or a miss, in total and per kind.
    fn count(&self, kind: usize, hit: bool) {
        let (total, per_kind) = if hit {
            (&self.hits, &self.kind_hits)
        } else {
            (&self.misses, &self.kind_misses)
        };
        total.fetch_add(1, Ordering::Relaxed);
        // Best-effort: an out-of-range kind drops the count rather than
        // panicking a query that already has its answer.
        if let Some(c) = per_kind.get(kind) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-shard cache budgets.
    pub(super) fn shard_config(&self) -> EngineConfig {
        self.shards
            .first()
            .map(|s| s.read().config)
            .unwrap_or_default()
    }

    /// Exclusive access to the first shard — the only one of the
    /// single-shard [`super::Engine`] façade — with no lock guard held.
    pub(super) fn sole_shard(&mut self) -> Option<&mut Shard> {
        Some(self.shards.first_mut()?.get_mut())
    }

    /// Serializes the whole front — every shard's result caches — as one
    /// snapshot document (the format of [`super::Engine::snapshot`]), so
    /// snapshots move freely between fronts with different shard counts.
    /// Takes each shard's write lock briefly, one at a time.
    pub fn snapshot(&self) -> Value {
        let mut entries = Vec::new();
        let mut betas = Vec::new();
        let mut results = Vec::new();
        let mut slices = Vec::new();
        let mut surfaces = Vec::new();
        for shard in &self.shards {
            let (e, b, r, sl, su) = shard.write().snapshot_parts(entries.len());
            entries.extend(e);
            betas.extend(b);
            results.extend(r);
            slices.extend(sl);
            surfaces.extend(su);
        }
        Value::Object(vec![
            ("version".to_string(), Value::Int(SNAPSHOT_VERSION as i128)),
            ("entries".to_string(), Value::Array(entries)),
            ("betas".to_string(), Value::Array(betas)),
            ("results".to_string(), Value::Array(results)),
            ("slices".to_string(), Value::Array(slices)),
            ("surfaces".to_string(), Value::Array(surfaces)),
        ])
    }

    /// [`SharedEngine::snapshot`] printed as compact JSON.
    pub fn snapshot_json(&self) -> String {
        json::to_string(&self.snapshot())
    }

    /// Restores a front from a snapshot (produced by either
    /// [`super::Engine::snapshot`] or [`SharedEngine::snapshot`]) with
    /// default budgets and shard count. Entries are routed to their home shards by
    /// signature, so the shard count need not match the snapshotting front.
    pub fn restore(value: &Value) -> Result<SharedEngine, EngineError> {
        SharedEngine::restore_with_config(value, EngineConfig::default(), default_shards())
    }

    /// [`SharedEngine::restore`] with explicit budgets and shard count.
    pub fn restore_with_config(
        value: &Value,
        config: EngineConfig,
        num_shards: usize,
    ) -> Result<SharedEngine, EngineError> {
        let front = SharedEngine::with_config(config, num_shards);
        // One routing pass assigns every entry to its home shard; each
        // per-shard restore then deserializes only its own entries and
        // artifacts (foreign records are skipped by index before their
        // payloads are parsed).
        let routing: Vec<usize> = super::snapshot::entry_signatures(value)?
            .iter()
            .map(|sig| front.shard_of(sig))
            .collect();
        for (i, shard) in front.shards.iter().enumerate() {
            let per_shard_config = shard.read().config;
            let restored = Shard::restore_filtered(value, per_shard_config, &|idx| {
                routing.get(idx) == Some(&i)
            })?;
            *shard.write() = restored;
        }
        Ok(front)
    }

    /// Restores a front from snapshot JSON text with default budgets.
    pub fn restore_json(text: &str) -> Result<SharedEngine, EngineError> {
        let value =
            json::parse(text).map_err(|e| EngineError::Snapshot(format!("snapshot JSON: {e}")))?;
        SharedEngine::restore(&value)
    }
}

/// How a batch resolved one of its distinct literal queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Answered by the read pass from a resident artifact.
    Hit,
    /// The first unanswered literal of its cache-canonical form: computed
    /// and installed.
    Computes,
    /// A permuted-axes twin of the computing literal at this index: answered
    /// from that literal's fresh surface.
    Twin(usize),
}

/// Fills the answer slot of every twin of the computing literal `rep`.
fn answer_twins(
    literals: &[&Query],
    roles: &[Role],
    answers: &mut [Option<Result<AnalysisResult, EngineError>>],
    rep: usize,
    answer: impl Fn(&Query) -> Result<AnalysisResult, EngineError>,
) {
    for ((q, role), slot) in literals.iter().zip(roles).zip(answers) {
        if *role == Role::Twin(rep) {
            *slot = Some(answer(q));
        }
    }
}

/// `DefaultHasher` digest of any hashable value — the trace's identity
/// primitive (also how [`SharedEngine::shard_of`] routes, so a recorded
/// `sig % num_shards` names the live shard).
fn hash_u64<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// Hash of one declaration order of a canonical nest: the identity the
/// orientation-keyed caches (typed results, surfaces) miss across until a
/// write pass has interned this orientation.
fn orientation_hash(sig_hash: u64, canon: &CanonicalNest) -> u64 {
    hash_u64(&(
        sig_hash,
        canon.loop_permutation(),
        canon.array_permutation(),
    ))
}

/// Hash of the cache-canonical identity of a valid query — which memoized
/// entry (within its kind's cache) answers it:
///
/// * typed results are keyed per `(orientation, M)`;
/// * slices are keyed per `(signature, M, canonical axis, span)` — shared
///   across orientations, like the live slice cache;
/// * surfaces are keyed per `(orientation, M, sorted axes, box)`, so
///   permuted-axes twins share a family (the live canonicalized key).
///
/// Two valid queries of one batch (same orientation) agree on
/// `(kind, family)` exactly when their [`super::canonical_query_form`]s
/// are equal, which is what the live batch dedupe compares.
fn family_hash(sig_hash: u64, orient_hash: u64, canon: &CanonicalNest, query: &Query) -> u64 {
    match query {
        Query::LowerBound { cache_size }
        | Query::EnumeratedBound { cache_size }
        | Query::OptimalTiling { cache_size }
        | Query::Tightness { cache_size } => hash_u64(&(orient_hash, *cache_size)),
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => hash_u64(&(
            sig_hash,
            *cache_size,
            canon.loop_permutation().get(*axis).copied(),
            *lo_bound,
            *hi_bound,
        )),
        Query::Surface { .. } => match super::canonical_query_form(query) {
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => hash_u64(&(orient_hash, cache_size, axes, lo_bounds, hi_bounds)),
            // The canonical form of a surface query is a surface query.
            _ => orient_hash,
        },
    }
}
