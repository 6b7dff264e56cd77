//! The unified analysis session: typed [`Query`]s over interned loop nests
//! with cross-query artifact reuse, bounded memoization and session
//! persistence, served by the thread-safe sharded [`SharedEngine`] and by
//! [`Engine`], its single-shard `&mut self` façade.
//!
//! # Why a session API
//!
//! The paper's analyses share expensive intermediates: the Theorem-2 bound,
//! the `2^d` enumeration, the tiling LP, the Theorem-3 check and the §7
//! value functions all revolve around the same `β` vectors, the same HBL
//! constraint matrix, and the same warm simplex bases. The stateless free
//! functions (`communication_lower_bound`, `check_tightness`,
//! `exponent_surface`, …) rebuild all of it per call — fine for one-shot use,
//! wasteful for the repeated-query traffic of a compiler pass or an analysis
//! service that probes many variants of the same nest. The engine makes
//! that workload pay amortized cost:
//!
//! * **One pipeline.** Every query — single or batched, on [`Engine`] or
//!   [`SharedEngine`] — is resolved by [`SharedEngine::analyze_batch`]:
//!   validate, canonicalize, probe the caches under the shard's read lock,
//!   dedupe, compute the misses outside any lock, install them under the
//!   write lock, and count hits and misses. A caching change is made, and
//!   tested, in one place.
//! * **Interning.** Nests are interned by their permutation-invariant
//!   [`projtile_loopnest::NestSignature`], so a caller that re-declares the
//!   same program with loops or arrays in a different order hits the same
//!   cache entry.
//! * **Artifact reuse.** Per interned nest the engine keeps every typed
//!   result it has computed, memoized §7 slices (shared across permuted
//!   variants — a value function carries no positional data), and memoized
//!   surfaces keyed by `(sorted axes, box)` (a permuted-axes request is a
//!   hit answered by an exact coordinate remap). A `Tightness` query warms
//!   `LowerBound`, `EnumeratedBound` and `OptimalTiling` for free.
//! * **Bounded memoization.** Every memo map is a cost-aware
//!   [`projtile_cachesim::BoundedLru`] with caps set by [`EngineConfig`]
//!   (approximate heap bytes), so a long-lived service session cannot grow
//!   without bound; least recently used artifacts are evicted first and
//!   transparently recomputed on the next query.
//! * **Persistence.** [`Engine::snapshot`] serializes the result caches
//!   through the workspace serde layer and [`Engine::restore`] warm-starts a
//!   new session from them, so a service restart does not start cold.
//! * **Exactness.** Engine answers are **bitwise-identical** to the retained
//!   free functions ([`cold_answer`] maps each query to its cold oracle) —
//!   under cache hits, eviction pressure, concurrent access and
//!   snapshot/restore alike. Everything the engine shares across queries is
//!   either path-independent by construction (canonical lex-min LP optima,
//!   unique optimal values, unique value functions) or cached per
//!   declaration order (vertex certificates, `λ` vectors).
//!
//! ```
//! use projtile_core::engine::{AnalysisResult, Engine, Query};
//! use projtile_loopnest::builders;
//!
//! let mut engine = Engine::new();
//! let nest = builders::matmul(512, 512, 8);
//! // First query computes; the repeat is a pure cache lookup.
//! let q = Query::Tightness { cache_size: 1 << 10 };
//! let first = engine.analyze(&nest, &q).unwrap();
//! let again = engine.analyze(&nest, &q).unwrap();
//! assert_eq!(first, again);
//! assert_eq!(engine.stats().hits, 1);
//! match first {
//!     AnalysisResult::Tightness(report) => assert!(report.tight),
//!     other => panic!("unexpected result {other:?}"),
//! }
//! // The session can be persisted and warm-restored.
//! let snapshot = engine.snapshot_json();
//! let mut restored = Engine::restore_json(&snapshot).unwrap();
//! assert_eq!(restored.analyze(&nest, &q).unwrap(), again);
//! assert_eq!(restored.stats().hits, 1);
//! ```

mod cache;
mod query;
mod shard;
mod shared;
mod snapshot;
mod store;
mod trace;

pub use query::{
    query_kind_index, AnalysisResult, EngineError, KindCounters, Query, SurfaceSummary,
    TilingSummary, QUERY_KIND_COUNT, QUERY_KIND_NAMES,
};
pub use shared::SharedEngine;
pub use snapshot::SNAPSHOT_VERSION;
pub use store::{SnapshotStore, SNAPSHOT_TMP};
pub use trace::{outcome, TraceDocument, TraceError, TraceEvent, TraceRecorder, TRACE_VERSION};

use std::fmt;

use projtile_arith::{log, Rational};
pub use projtile_cachesim::BoundedLruStats;
use projtile_loopnest::{canonicalize, LoopNest, NestSignature};
use serde::{json, Value};

use crate::bounds::{
    arbitrary_bound_exponent, enumerated_exponent_cold, exponent_from_s_hat_with_betas,
    EnumeratedBound, LowerBound,
};
use crate::hbl::hbl_lp;
use crate::parametric::{exponent_vs_beta_cold, exponent_vs_beta_with, ExponentSurface};
use crate::tightness::{check_tightness, TightnessReport};
use crate::tiling_lp::{solve_tiling_lp, tile_dims_from_lambda};
use cache::{cost, StoredSurface, SurfaceKey};

/// Retention budgets (approximate heap bytes) for the engine's memo caches.
/// Each cap governs one artifact class across **all** interned nests;
/// least recently used entries are evicted first when a cap is exceeded,
/// and the most recently inserted entry is always retained. Eviction never
/// changes an answer — evicted artifacts are recomputed by the same
/// deterministic routine on the next query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Budget for typed results (bounds, enumerations, tilings, tightness
    /// reports, certificates).
    pub results_capacity: u64,
    /// Budget for `β` vectors (only snapshots from older builds fill this
    /// cache; nothing computes into it).
    pub betas_capacity: u64,
    /// Budget for §7 value-function slices (`Query::Slice` sweeps, including
    /// the `[1, H]` slices behind [`Engine::exponent_at_bound`]).
    pub slices_capacity: u64,
    /// Budget for memoized exponent surfaces (by far the largest artifacts).
    pub surfaces_capacity: u64,
}

impl Default for EngineConfig {
    /// Service-friendly defaults: tens of megabytes per artifact class,
    /// orders of magnitude above any single analysis.
    fn default() -> EngineConfig {
        EngineConfig {
            results_capacity: 32 << 20,
            betas_capacity: 4 << 20,
            slices_capacity: 32 << 20,
            surfaces_capacity: 64 << 20,
        }
    }
}

/// Per-cache occupancy and eviction counters, from [`Engine::cache_metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// The `β`-vector cache.
    pub betas: BoundedLruStats,
    /// The typed-result cache.
    pub results: BoundedLruStats,
    /// The slice cache.
    pub slices: BoundedLruStats,
    /// The surface cache.
    pub surfaces: BoundedLruStats,
    /// Hit/miss counters per query kind, indexed like [`QUERY_KIND_NAMES`]
    /// (`exponent_at_bound` probes are slice queries and count as such).
    pub kinds: [KindCounters; QUERY_KIND_COUNT],
}

/// Counters describing how an [`Engine`] resolved its queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Total queries answered (including batch members).
    pub queries: u64,
    /// Queries answered from a memoized result (pure lookups).
    pub hits: u64,
    /// Queries that had to compute (and then memoized) their result.
    pub misses: u64,
    /// Distinct canonical signatures interned.
    pub interned: u64,
}

/// A long-lived single-threaded analysis session: a `&mut self` façade over
/// a one-shard [`SharedEngine`], so it answers through the same pipeline
/// (and with the same accounting) as the concurrent front. See the
/// [module docs](self) for the reuse model and [`Query`] for the request
/// vocabulary.
pub struct Engine {
    inner: SharedEngine,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::with_config(EngineConfig::default())
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("interned_nests", &self.num_interned())
            .field("stats", &self.stats())
            .field("config", &self.config())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Creates an empty session with the default cache budgets.
    pub fn new() -> Engine {
        Engine::default()
    }

    /// Creates an empty session with explicit cache budgets.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine {
            inner: SharedEngine::with_config(config, 1),
        }
    }

    /// The session's cache budgets.
    pub fn config(&self) -> EngineConfig {
        self.inner.shard_config()
    }

    /// Interns `nest` (no analysis yet) and returns its canonical signature.
    /// Permuted re-declarations of the same program return the same
    /// signature and share one cache entry.
    pub fn intern(&mut self, nest: &LoopNest) -> NestSignature {
        let canon = canonicalize(nest);
        if let Some(shard) = self.inner.sole_shard() {
            shard.intern_with(&canon);
        }
        canon.signature()
    }

    /// Number of distinct canonical signatures interned so far.
    pub fn num_interned(&self) -> usize {
        self.inner.stats().interned as usize
    }

    /// Counters for this session's lifetime.
    pub fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    /// Occupancy, cost, and eviction counters of the four memo caches,
    /// plus hit/miss counters per query kind.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.inner.cache_metrics()
    }

    /// Answers one typed query about `nest`, reusing every applicable cached
    /// artifact and memoizing what it computes. Results are bitwise-identical
    /// to the corresponding free function (see the module docs).
    pub fn analyze(
        &mut self,
        nest: &LoopNest,
        query: &Query,
    ) -> Result<AnalysisResult, EngineError> {
        self.inner.analyze(nest, query)
    }

    /// Answers a batch of queries about `nest`, in input order — see
    /// [`SharedEngine::analyze_batch`]. Distinct misses fan out through
    /// `projtile_par` with one pooled warm solver context per worker chunk;
    /// every compute path is path-independent, so the fan-out cannot change
    /// any answer.
    pub fn analyze_batch(
        &mut self,
        nest: &LoopNest,
        queries: &[Query],
    ) -> Vec<Result<AnalysisResult, EngineError>> {
        self.inner.analyze_batch(nest, queries)
    }

    /// The optimal exponent at one specific bound value along `axis` — the
    /// memoized form of [`crate::parametric::exponent_at_bound`]. Resolved
    /// by [`Engine::analyze`] as the slice query `[1, H]` on `axis`, where
    /// `H` is the largest of `bound`, the nest's own bound on `axis` and the
    /// cache size, rounded up to a power of two (kept as is where rounding
    /// would overflow). The first probe of a bucket sweeps once; every later
    /// bound in it (a JIT probing candidate specializations, say), and an
    /// explicit `Query::Slice` of the same span, is read off the memoized
    /// slice without touching the solver. Answers are bitwise-identical to
    /// the cold oracle [`crate::parametric::exponent_at_bound_cold`].
    pub fn exponent_at_bound(
        &mut self,
        nest: &LoopNest,
        cache_size: u64,
        axis: usize,
        bound: u64,
    ) -> Result<Rational, EngineError> {
        if bound == 0 {
            return Err(EngineError::InvalidQuery("bound must be positive".into()));
        }
        let nest_bound = nest.indices().get(axis).map_or(1, |index| index.bound);
        let widest = bound.max(nest_bound).max(cache_size);
        let query = Query::Slice {
            cache_size,
            axis,
            lo_bound: 1,
            hi_bound: widest.checked_next_power_of_two().unwrap_or(widest),
        };
        let AnalysisResult::Slice(vf) = self.analyze(nest, &query)? else {
            return Err(EngineError::Internal("slice query answered another kind"));
        };
        Ok(vf.value_at(&log::beta(bound as u128, cache_size as u128)))
    }

    /// The full memoized [`ExponentSurface`] for a [`Query::Surface`]-shaped
    /// request, for callers that need region geometry or slices beyond the
    /// wire-ready [`SurfaceSummary`]. Resolved (and counted) as that query;
    /// the surface is then read from the cache in the caller's axis order.
    pub fn exponent_surface(
        &mut self,
        nest: &LoopNest,
        cache_size: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> Result<ExponentSurface, EngineError> {
        let query = Query::Surface {
            cache_size,
            axes: axes.to_vec(),
            lo_bounds: lo_bounds.to_vec(),
            hi_bounds: hi_bounds.to_vec(),
        };
        self.analyze(nest, &query)?;
        // The query left its sorted-order surface resident: a hit peeked
        // it, and a miss installed it (the newest insertion is never
        // evicted).
        let canon = canonicalize(nest);
        let missing = EngineError::Internal("surface memo missing after its query");
        let shard = self.inner.sole_shard().ok_or(missing.clone())?;
        let Some((e, Some(o))) = shard.find(&canon) else {
            return Err(missing);
        };
        let (key, order) = SurfaceKey::for_request(e, o, cache_size, axes, lo_bounds, hi_bounds);
        let stored = shard.surfaces.peek(&key).ok_or(missing)?;
        Ok(match order {
            None => stored.surface.clone(),
            Some(order) => stored.surface.with_axis_order(&order),
        })
    }

    /// Serializes the session's result caches as a [`Value`] tree — one
    /// versioned JSON object holding the interned nests, typed results,
    /// slices, and surfaces, each list in least- to most-recently-used
    /// order (see `engine/snapshot.rs` for the full format and its
    /// versioning caveats, mirrored in ARCHITECTURE.md).
    pub fn snapshot(&mut self) -> Value {
        self.inner.snapshot()
    }

    /// [`Engine::snapshot`] printed as compact JSON.
    pub fn snapshot_json(&mut self) -> String {
        self.inner.snapshot_json()
    }

    /// Restores a session from a snapshot [`Value`], with default cache
    /// budgets. The restored session answers every persisted query from
    /// cache, bitwise-identically to the session that produced the snapshot.
    pub fn restore(value: &Value) -> Result<Engine, EngineError> {
        Engine::restore_with_config(value, EngineConfig::default())
    }

    /// [`Engine::restore`] with explicit cache budgets (restoring into
    /// smaller budgets evicts least recently used artifacts immediately).
    pub fn restore_with_config(value: &Value, config: EngineConfig) -> Result<Engine, EngineError> {
        let inner = SharedEngine::restore_with_config(value, config, 1)?;
        Ok(Engine { inner })
    }

    /// Restores a session from snapshot JSON text.
    pub fn restore_json(text: &str) -> Result<Engine, EngineError> {
        Engine::restore_json_with_config(text, EngineConfig::default())
    }

    /// [`Engine::restore_json`] with explicit cache budgets.
    pub fn restore_json_with_config(
        text: &str,
        config: EngineConfig,
    ) -> Result<Engine, EngineError> {
        let value =
            json::parse(text).map_err(|e| EngineError::Snapshot(format!("snapshot JSON: {e}")))?;
        Engine::restore_with_config(&value, config)
    }
}

/// The cold free-function answer to `query` — the oracle that served
/// answers are checked against. It shares no cache, interning or warm state
/// with the engine: each kind calls its retained stateless function
/// ([`arbitrary_bound_exponent`], [`enumerated_exponent_cold`],
/// [`solve_tiling_lp`] with [`tile_dims_from_lambda`], [`check_tightness`],
/// [`crate::parametric::exponent_surface`] summarized in the request's axis
/// order, [`exponent_vs_beta_cold`]) after the engine's own validation.
pub fn cold_answer(nest: &LoopNest, query: &Query) -> Result<AnalysisResult, EngineError> {
    validate_query(nest, query)?;
    Ok(match query {
        Query::LowerBound { cache_size } => {
            AnalysisResult::LowerBound(arbitrary_bound_exponent(nest, *cache_size))
        }
        Query::EnumeratedBound { cache_size } => {
            AnalysisResult::EnumeratedBound(enumerated_exponent_cold(nest, *cache_size))
        }
        Query::OptimalTiling { cache_size } => {
            AnalysisResult::OptimalTiling(tiling_summary(nest, *cache_size))
        }
        Query::Tightness { cache_size } => {
            AnalysisResult::Tightness(check_tightness(nest, *cache_size))
        }
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            let s =
                crate::parametric::exponent_surface(nest, *cache_size, axes, lo_bounds, hi_bounds)?;
            AnalysisResult::Surface(summarize_surface(&s, axes))
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => AnalysisResult::Slice(exponent_vs_beta_cold(
            nest,
            *cache_size,
            *axis,
            *lo_bound,
            *hi_bound,
        )?),
    })
}

/// A result computed outside the caches by the batch fan-out, plus the
/// artifacts its install caches alongside it: the full sorted-order surface
/// for a surface query, and the component artifacts of a tightness check
/// (so a `Tightness` miss warms `LowerBound`, `EnumeratedBound`,
/// `OptimalTiling` and the certificate).
pub(crate) struct Detached {
    result: AnalysisResult,
    surface: Option<StoredSurface>,
    tightness_parts: Option<(LowerBound, EnumeratedBound, TilingSummary, bool)>,
}

impl Detached {
    /// Cost estimates of the cache entries installing this result writes,
    /// in install order — five for a tightness result (tiling, bound,
    /// enumerated, certificate, then the report last), one otherwise.
    /// Recorded into trace events so the lab's replay charges simulated
    /// caches exactly what the live install charged the real ones.
    pub(crate) fn costs(&self) -> Vec<u64> {
        if let Some((bound, enumerated, tiling, _certificate_ok)) = &self.tightness_parts {
            return vec![
                cost::tiling(tiling),
                cost::bound(bound),
                cost::enumerated(enumerated),
                cost::certificate(),
                cost::tightness(),
            ];
        }
        if let Some(stored) = &self.surface {
            return vec![cost::surface(stored)];
        }
        match &self.result {
            AnalysisResult::LowerBound(lb) => vec![cost::bound(lb)],
            AnalysisResult::EnumeratedBound(en) => vec![cost::enumerated(en)],
            AnalysisResult::OptimalTiling(t) => vec![cost::tiling(t)],
            AnalysisResult::Slice(vf) => vec![cost::value_function(vf)],
            // Tightness and Surface results always carry their parts/surface
            // and are handled above; an inconsistent Detached records nothing.
            AnalysisResult::Tightness(_) | AnalysisResult::Surface(_) => Vec::new(),
        }
    }

    /// The answer to `twin`, a permuted-axes request for this freshly
    /// computed surface (same cache-canonical form, different axis order):
    /// the exact remap of the sorted-order surface — bitwise what the free
    /// function returns for the twin's order — taken before the surface
    /// moves into the cache, so no cache re-read or recompute is needed.
    pub(crate) fn answer_twin(&self, twin: &Query) -> Result<AnalysisResult, EngineError> {
        let (
            Query::Surface {
                axes,
                lo_bounds,
                hi_bounds,
                ..
            },
            Some(stored),
        ) = (twin, &self.surface)
        else {
            return Err(EngineError::Internal("only surface results have twins"));
        };
        let (_, _, _, order) = crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
        Ok(AnalysisResult::Surface(
            stored.summary_for(axes, order.as_deref()),
        ))
    }
}

/// Computes one query with no access to the caches — the miss path of
/// [`SharedEngine::analyze_batch`], which runs it outside every shard lock.
/// Every path bottoms out in path-independent solves, so answers are
/// bitwise the free functions' whichever worker (and warm context) runs it.
pub(crate) fn compute_detached(
    orientation_nest: &LoopNest,
    canonical: &LoopNest,
    loop_perm: &[usize],
    query: &Query,
    ctx: &mut projtile_lp::SolverContext,
) -> Result<Detached, EngineError> {
    let result = match query {
        Query::LowerBound { cache_size } => AnalysisResult::LowerBound(
            crate::bounds::arbitrary_bound_exponent(orientation_nest, *cache_size),
        ),
        Query::EnumeratedBound { cache_size } => AnalysisResult::EnumeratedBound(
            crate::bounds::enumerated_exponent(orientation_nest, *cache_size),
        ),
        Query::OptimalTiling { cache_size } => {
            AnalysisResult::OptimalTiling(tiling_summary(orientation_nest, *cache_size))
        }
        Query::Tightness { cache_size } => {
            // Computed from its explicit components (exactly the fields
            // `check_tightness` derives) so the install can cache them too —
            // a Tightness miss warms LowerBound, EnumeratedBound and
            // OptimalTiling.
            let m = *cache_size;
            let bound = crate::bounds::arbitrary_bound_exponent(orientation_nest, m);
            let enumerated = crate::bounds::enumerated_exponent(orientation_nest, m);
            let tiling = tiling_summary(orientation_nest, m);
            let beta = crate::bounds::betas(orientation_nest, m);
            let certificate_ok = certificate_valid(orientation_nest, &beta, &bound);
            let report = compose_tightness_report(&tiling, &bound, &enumerated, certificate_ok);
            return Ok(Detached {
                result: AnalysisResult::Tightness(report),
                surface: None,
                tightness_parts: Some((bound, enumerated, tiling, certificate_ok)),
            });
        }
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            // Compute in sorted-axes order (the storage order of the surface
            // memo) and derive the caller-order summary by the same exact
            // remap the free function applies.
            let (s_axes, s_lo, s_hi, order) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            let s = crate::parametric::exponent_surface(
                orientation_nest,
                *cache_size,
                &s_axes,
                &s_lo,
                &s_hi,
            )?;
            let stored = StoredSurface {
                summary: summarize_surface(&s, &s_axes),
                surface: s,
            };
            return Ok(Detached {
                result: AnalysisResult::Surface(stored.summary_for(axes, order.as_deref())),
                surface: Some(stored),
                tightness_parts: None,
            });
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => {
            let canon_axis = *loop_perm
                .get(*axis)
                .ok_or(EngineError::Internal("slice axis outside the nest"))?;
            AnalysisResult::Slice(exponent_vs_beta_with(
                canonical,
                *cache_size,
                canon_axis,
                *lo_bound,
                *hi_bound,
                ctx,
            )?)
        }
    };
    Ok(Detached {
        result,
        surface: None,
        tightness_parts: None,
    })
}

/// The cache-canonical form of a query: `Surface` axes sorted ascending
/// with their bound ranges permuted alongside — the form the surface memo
/// keys by. Every other variant is its own canonical form. Batch dedupe
/// compares these, so two permuted-axes requests for the same surface in
/// one batch compute it once (the twin is answered by the exact remap).
pub(crate) fn canonical_query_form(query: &Query) -> Query {
    match query {
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            let (axes, lo_bounds, hi_bounds, _) =
                crate::parametric::sort_surface_request(axes, lo_bounds, hi_bounds);
            Query::Surface {
                cache_size: *cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            }
        }
        other => other.clone(),
    }
}

/// The optimal tiling of LP (5.1) as a [`TilingSummary`]: the LP solution
/// plus the integer tile [`tile_dims_from_lambda`] derives from it.
fn tiling_summary(nest: &LoopNest, cache_size: u64) -> TilingSummary {
    let sol = solve_tiling_lp(nest, cache_size);
    TilingSummary {
        tile_dims: tile_dims_from_lambda(nest, cache_size, &sol.lambda),
        lambda: sol.lambda,
        value: sol.value,
    }
}

/// Validity of a lower bound's Theorem-3 certificate: the `ŝ` formula value
/// matches the claimed exponent and `ŝ` is feasible for the row-deleted HBL
/// LP. A pure function of `(nest, betas, bound)` — exactly the check
/// [`crate::tightness::check_tightness`] performs inline.
pub(crate) fn certificate_valid(nest: &LoopNest, beta: &[Rational], bound: &LowerBound) -> bool {
    let formula_value =
        exponent_from_s_hat_with_betas(nest, beta, bound.witness_subset, &bound.s_hat);
    let row_deleted = hbl_lp(nest, bound.witness_subset);
    formula_value == bound.exponent && row_deleted.is_feasible(&bound.s_hat)
}

/// Builds the Theorem-3 report from its component artifacts —
/// field-for-field what [`crate::tightness::check_tightness`] computes on the
/// same nest (shared by the miss path and the read path's recomposition of
/// an evicted report).
pub(crate) fn compose_tightness_report(
    tiling: &TilingSummary,
    bound: &LowerBound,
    enumerated: &EnumeratedBound,
    certificate_ok: bool,
) -> TightnessReport {
    TightnessReport {
        tiling_exponent: tiling.value.clone(),
        bound_exponent: bound.exponent.clone(),
        enumerated_exponent: enumerated.exponent.clone(),
        witness_subset: bound.witness_subset,
        tight: tiling.value == bound.exponent && certificate_ok,
    }
}

/// Builds the wire-ready digest of a surface.
pub(crate) fn summarize_surface(s: &ExponentSurface, axes: &[usize]) -> SurfaceSummary {
    SurfaceSummary {
        axes: axes.to_vec(),
        num_regions: s.num_regions(),
        pieces: s.pieces().into_iter().cloned().collect(),
        rendered: s.render_pieces(),
    }
}

/// Mirrors the assertions of the free functions as recoverable errors.
pub(crate) fn validate_query(nest: &LoopNest, query: &Query) -> Result<(), EngineError> {
    let d = nest.num_loops();
    if query.cache_size() < 2 {
        return Err(EngineError::InvalidQuery(
            "cache size must be at least 2 words".into(),
        ));
    }
    match query {
        Query::EnumeratedBound { .. } | Query::Tightness { .. } => {
            if d > 30 {
                return Err(EngineError::InvalidQuery(format!(
                    "subset enumeration over {d} > 30 indices refused"
                )));
            }
        }
        Query::Surface {
            axes,
            lo_bounds,
            hi_bounds,
            ..
        } => {
            if axes.is_empty() {
                return Err(EngineError::InvalidQuery(
                    "at least one swept axis required".into(),
                ));
            }
            if axes.len() != lo_bounds.len() || axes.len() != hi_bounds.len() {
                return Err(EngineError::InvalidQuery(
                    "one bound range per swept axis required".into(),
                ));
            }
            let mut seen: Vec<usize> = Vec::with_capacity(axes.len());
            for (&a, (&lo, &hi)) in axes.iter().zip(lo_bounds.iter().zip(hi_bounds.iter())) {
                if a >= d {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} out of range for a {d}-loop nest"
                    )));
                }
                if seen.contains(&a) {
                    return Err(EngineError::InvalidQuery(format!(
                        "axis {a} swept twice in the same surface"
                    )));
                }
                seen.push(a);
                if lo < 1 || hi < lo {
                    return Err(EngineError::InvalidQuery(format!(
                        "invalid bound range on axis {a}"
                    )));
                }
            }
        }
        Query::Slice {
            axis,
            lo_bound,
            hi_bound,
            ..
        } => {
            if *axis >= d {
                return Err(EngineError::InvalidQuery(format!(
                    "axis {axis} out of range for a {d}-loop nest"
                )));
            }
            if *lo_bound < 1 || hi_bound < lo_bound {
                return Err(EngineError::InvalidQuery("invalid bound range".into()));
            }
        }
        Query::LowerBound { .. } | Query::OptimalTiling { .. } => {}
    }
    Ok(())
}
