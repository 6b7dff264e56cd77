//! The per-shard store behind [`super::SharedEngine`]: the interned nests of
//! one shard and its four bounded memo caches.
//!
//! The store holds state only. The resolution pipeline — validate,
//! canonicalize, probe, dedupe, compute, install, account — is
//! [`super::SharedEngine::analyze_batch`], which reads a shard through
//! [`Shard::peek_cached`] under its read lock and writes it through
//! [`Shard::intern_with`] and [`Shard::install`] under its write lock.
//! Snapshots serialize and restore this store (`snapshot.rs`).

use std::collections::HashMap;

use projtile_arith::Rational;
use projtile_cachesim::BoundedLru;
use projtile_loopnest::{CanonicalNest, NestSignature};
use projtile_lp::parametric::ValueFunction;

use super::cache::{
    cost, BetaKey, CachedResult, NestEntry, Orientation, ResultKey, ResultKind, SliceKey,
    StoredSurface, SurfaceKey,
};
use super::{compose_tightness_report, AnalysisResult, CacheMetrics, Detached, EngineConfig};
use super::{EngineError, Query};

/// One shard's interned nests and memo caches.
pub(crate) struct Shard {
    pub(super) config: EngineConfig,
    pub(super) entries: Vec<NestEntry>,
    pub(super) index: HashMap<NestSignature, usize>,
    pub(super) betas: BoundedLru<BetaKey, Vec<Rational>>,
    pub(super) results: BoundedLru<ResultKey, CachedResult>,
    pub(super) slices: BoundedLru<SliceKey, ValueFunction>,
    pub(super) surfaces: BoundedLru<SurfaceKey, StoredSurface>,
}

impl Shard {
    /// An empty shard with the given (per-shard) cache budgets.
    pub(super) fn new(config: EngineConfig) -> Shard {
        Shard {
            config,
            entries: Vec::new(),
            index: HashMap::new(),
            betas: BoundedLru::new(config.betas_capacity),
            results: BoundedLru::new(config.results_capacity),
            slices: BoundedLru::new(config.slices_capacity),
            surfaces: BoundedLru::new(config.surfaces_capacity),
        }
    }

    /// Adds this shard's cache occupancy, cost, budget and evictions to
    /// `total`.
    pub(super) fn add_cache_stats(&self, total: &mut CacheMetrics) {
        for (acc, part) in [
            (&mut total.betas, self.betas.stats()),
            (&mut total.results, self.results.stats()),
            (&mut total.slices, self.slices.stats()),
            (&mut total.surfaces, self.surfaces.stats()),
        ] {
            acc.entries += part.entries;
            acc.cost += part.cost;
            acc.capacity += part.capacity;
            acc.evictions += part.evictions;
        }
    }

    /// Interns `canon`'s signature and declaration order, returning the
    /// `(entry, orientation)` ids. Permuted re-declarations share the entry.
    pub(super) fn intern_with(&mut self, canon: &CanonicalNest) -> (usize, usize) {
        let sig = canon.signature();
        let e = match self.index.get(&sig) {
            Some(&e) => e,
            None => {
                self.entries.push(NestEntry {
                    canonical: canon.nest().clone(),
                    orientations: Vec::new(),
                });
                let e = self.entries.len() - 1;
                self.index.insert(sig, e);
                e
            }
        };
        let (loop_perm, array_perm) = (canon.loop_permutation(), canon.array_permutation());
        let Some(entry) = self.entries.get_mut(e) else {
            // `index` only names pushed entries; an unreachable miss interns
            // no orientation rather than panicking.
            return (e, 0);
        };
        let o = match entry
            .orientations
            .iter()
            .position(|o| o.loop_perm == loop_perm && o.array_perm == array_perm)
        {
            Some(o) => o,
            None => {
                entry.orientations.push(Orientation {
                    loop_perm: loop_perm.to_vec(),
                    array_perm: array_perm.to_vec(),
                });
                entry.orientations.len() - 1
            }
        };
        (e, o)
    }

    /// Lookup **without interning**: the entry of `canon`'s signature, and
    /// the orientation of its declaration order if that has been interned.
    pub(super) fn find(&self, canon: &CanonicalNest) -> Option<(usize, Option<usize>)> {
        let e = *self.index.get(&canon.signature())?;
        let (loop_perm, array_perm) = (canon.loop_permutation(), canon.array_permutation());
        let o = self
            .entries
            .get(e)?
            .orientations
            .iter()
            .position(|o| o.loop_perm == loop_perm && o.array_perm == array_perm);
        Some((e, o))
    }

    /// Pure cached lookup for the read path: `Some(result)` iff `query` is
    /// answerable without solver work or re-threading any recency list.
    /// Reads go through [`BoundedLru::peek`], which records recency in
    /// atomic stamps, so concurrent readers never take the write lock for a
    /// hit. Orientation-keyed kinds need the orientation `o`; slices are
    /// keyed by entry and canonical axis (`loop_perm` maps the query's
    /// axis), so a permuted declaration finds them before its orientation
    /// is interned. A tightness query whose report was evicted but whose
    /// components survive (the shape the derived-last policy produces) is
    /// recomposed here — pure arithmetic, bitwise the composed report.
    pub(super) fn peek_cached(
        &self,
        e: usize,
        o: Option<usize>,
        loop_perm: &[usize],
        query: &Query,
    ) -> Option<AnalysisResult> {
        let result = |kind: ResultKind| {
            let key = ResultKey {
                entry: e,
                orientation: o?,
                m: query.cache_size(),
                kind,
            };
            self.results.peek(&key)
        };
        match query {
            Query::LowerBound { .. } => match result(ResultKind::Bound)? {
                CachedResult::Bound(lb) => Some(AnalysisResult::LowerBound(lb.clone())),
                _ => None,
            },
            Query::EnumeratedBound { .. } => match result(ResultKind::Enumerated)? {
                CachedResult::Enumerated(en) => Some(AnalysisResult::EnumeratedBound(en.clone())),
                _ => None,
            },
            Query::OptimalTiling { .. } => match result(ResultKind::Tiling)? {
                CachedResult::Tiling(t) => Some(AnalysisResult::OptimalTiling(t.clone())),
                _ => None,
            },
            Query::Tightness { .. } => {
                if let Some(CachedResult::Tightness(t)) = result(ResultKind::Tightness) {
                    return Some(AnalysisResult::Tightness(t.clone()));
                }
                // Report evicted: recompose from resident components.
                let CachedResult::Tiling(tiling) = result(ResultKind::Tiling)? else {
                    return None;
                };
                let CachedResult::Bound(bound) = result(ResultKind::Bound)? else {
                    return None;
                };
                let CachedResult::Enumerated(enumerated) = result(ResultKind::Enumerated)? else {
                    return None;
                };
                let CachedResult::Certificate(certificate_ok) = result(ResultKind::Certificate)?
                else {
                    return None;
                };
                Some(AnalysisResult::Tightness(compose_tightness_report(
                    tiling,
                    bound,
                    enumerated,
                    *certificate_ok,
                )))
            }
            Query::Surface {
                cache_size,
                axes,
                lo_bounds,
                hi_bounds,
            } => {
                let (key, order) =
                    SurfaceKey::for_request(e, o?, *cache_size, axes, lo_bounds, hi_bounds);
                let summary = self
                    .surfaces
                    .peek(&key)?
                    .summary_for(axes, order.as_deref());
                Some(AnalysisResult::Surface(summary))
            }
            Query::Slice { .. } => {
                let vf = self.slices.peek(&slice_key(e, loop_perm, query)?)?;
                Some(AnalysisResult::Slice(vf.clone()))
            }
        }
    }

    /// Installs a freshly computed result into the memo caches and returns
    /// the caller-facing result (moved out of `detached`, never re-read from
    /// the caches). Typed results overwrite; a tightness result installs its
    /// components where absent and the report last, then re-touches the
    /// components; surfaces and slices install only where absent.
    pub(super) fn install(
        &mut self,
        e: usize,
        o: usize,
        loop_perm: &[usize],
        query: &Query,
        detached: Detached,
    ) -> Result<AnalysisResult, EngineError> {
        let m = query.cache_size();
        let result_key = |kind: ResultKind| ResultKey {
            entry: e,
            orientation: o,
            m,
            kind,
        };
        Ok(match (query, detached.result) {
            (Query::LowerBound { .. }, AnalysisResult::LowerBound(lb)) => {
                self.insert_result(
                    result_key(ResultKind::Bound),
                    CachedResult::Bound(lb.clone()),
                );
                AnalysisResult::LowerBound(lb)
            }
            (Query::EnumeratedBound { .. }, AnalysisResult::EnumeratedBound(en)) => {
                let entry = CachedResult::Enumerated(en.clone());
                self.insert_result(result_key(ResultKind::Enumerated), entry);
                AnalysisResult::EnumeratedBound(en)
            }
            (Query::OptimalTiling { .. }, AnalysisResult::OptimalTiling(t)) => {
                self.insert_result(
                    result_key(ResultKind::Tiling),
                    CachedResult::Tiling(t.clone()),
                );
                AnalysisResult::OptimalTiling(t)
            }
            (Query::Tightness { .. }, AnalysisResult::Tightness(t)) => {
                // Components first (only where absent), then the report, so
                // the report is the most recently inserted of the set.
                if let Some((bound, enumerated, tiling, certificate_ok)) = detached.tightness_parts
                {
                    for (kind, entry) in [
                        (ResultKind::Tiling, CachedResult::Tiling(tiling)),
                        (ResultKind::Bound, CachedResult::Bound(bound)),
                        (ResultKind::Enumerated, CachedResult::Enumerated(enumerated)),
                        (
                            ResultKind::Certificate,
                            CachedResult::Certificate(certificate_ok),
                        ),
                    ] {
                        let key = result_key(kind);
                        if !self.results.contains(&key) {
                            self.insert_result(key, entry);
                        }
                    }
                }
                let entry = CachedResult::Tightness(t.clone());
                self.insert_result(result_key(ResultKind::Tightness), entry);
                // Derived-last recency: re-touch the components, so under
                // LRU pressure the report — the cheapest artifact to
                // rebuild, by recomposition without any LP solve — is
                // evicted before its inputs.
                for kind in [
                    ResultKind::Tiling,
                    ResultKind::Bound,
                    ResultKind::Enumerated,
                    ResultKind::Certificate,
                ] {
                    self.results.get(&result_key(kind));
                }
                AnalysisResult::Tightness(t)
            }
            (
                Query::Surface {
                    axes,
                    lo_bounds,
                    hi_bounds,
                    ..
                },
                AnalysisResult::Surface(summary),
            ) => {
                let (key, _) = SurfaceKey::for_request(e, o, m, axes, lo_bounds, hi_bounds);
                let stored = detached
                    .surface
                    .ok_or(EngineError::Internal("surface result lacks its surface"))?;
                if !self.surfaces.contains(&key) {
                    let c = cost::surface(&stored);
                    self.surfaces.insert(key, stored, c);
                }
                AnalysisResult::Surface(summary)
            }
            (Query::Slice { .. }, AnalysisResult::Slice(vf)) => {
                let key = slice_key(e, loop_perm, query)
                    .ok_or(EngineError::Internal("slice axis outside the nest"))?;
                if !self.slices.contains(&key) {
                    let c = cost::value_function(&vf);
                    self.slices.insert(key, vf.clone(), c);
                }
                AnalysisResult::Slice(vf)
            }
            _ => {
                return Err(EngineError::Internal(
                    "detached result variant does not match its query",
                ))
            }
        })
    }

    fn insert_result(&mut self, key: ResultKey, entry: CachedResult) {
        let c = cost::result(&entry);
        self.results.insert(key, entry, c);
    }
}

/// The cache key of a `Slice` query on entry `e`, in canonical coordinates
/// (`loop_perm` maps the query's axis); `None` for any other query, or an
/// axis outside the nest.
fn slice_key(e: usize, loop_perm: &[usize], query: &Query) -> Option<SliceKey> {
    let Query::Slice {
        cache_size,
        axis,
        lo_bound,
        hi_bound,
    } = query
    else {
        return None;
    };
    Some(SliceKey {
        entry: e,
        m: *cache_size,
        canon_axis: *loop_perm.get(*axis)?,
        lo_bound: *lo_bound,
        hi_bound: *hi_bound,
    })
}
