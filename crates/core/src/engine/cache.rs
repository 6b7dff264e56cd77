//! Keys, payloads and costs of the bounded memo caches in each shard of a
//! [`crate::engine::SharedEngine`].
//!
//! Every memo map is a cost-aware [`projtile_cachesim::BoundedLru`]
//! (approximate heap bytes as the cost unit, caps set by
//! [`crate::engine::EngineConfig`]), keyed at the shard level so one budget
//! governs each artifact class across *all* nests of the shard:
//!
//! * **β vectors** ([`BetaKey`]) — per `(nest, cache size)`, canonical loop
//!   order. Nothing computes into this cache; it holds only the β vectors a
//!   restored snapshot carries;
//! * **typed results** ([`ResultKey`]) — per `(nest, orientation, cache
//!   size, kind)`: the `LowerBound`, `EnumeratedBound`, tiling summary and
//!   tightness report, plus the internal Theorem-3 certificate-validity bit
//!   ([`ResultKind::Certificate`]) that lets an evicted tightness report be
//!   recomposed from its surviving components without re-solving the
//!   row-deleted HBL LP;
//! * **§7 slices** ([`SliceKey`]) — per `(nest, cache size, canonical
//!   axis, lo, hi)`, one entry per `Query::Slice` sweep; the
//!   `exponent_at_bound` probes are `[1, H]` slice queries and share these
//!   entries. A slice carries no positional data, so permuted variants share
//!   entries;
//! * **surfaces** ([`SurfaceKey`]) — per `(nest, orientation, cache size,
//!   sorted axes, box)`. Keys are canonicalized by sorting the swept axes
//!   (the box permuted alongside), so the same surface requested with
//!   permuted axes is a cache *hit* answered by an exact coordinate remap
//!   ([`crate::parametric::ExponentSurface::with_axis_order`]) — which is
//!   also precisely what the free function returns for that axis order.
//!
//! Eviction changes only *what is retained*, never *what is answered*: every
//! artifact is recomputed by the same deterministic, path-independent
//! routine that produced it, so answers stay bitwise-identical to the cold
//! free-function oracles under any cache pressure (pinned by the eviction
//! differential proptests).

use projtile_arith::Rational;
use projtile_lp::parametric::ValueFunction;

use crate::bounds::{EnumeratedBound, LowerBound};
use crate::engine::query::{SurfaceSummary, TilingSummary};
use crate::engine::summarize_surface;
use crate::parametric::{sort_surface_request, ExponentSurface};
use crate::tightness::TightnessReport;
use projtile_loopnest::LoopNest;

/// Key of a memoized β vector: per `(interned nest, cache size)`, stored in
/// canonical loop order and permuted per orientation on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BetaKey {
    pub entry: usize,
    pub m: u64,
}

/// Which typed artifact a [`ResultKey`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ResultKind {
    /// The Theorem-2 [`LowerBound`].
    Bound,
    /// The explicit `2^d` [`EnumeratedBound`].
    Enumerated,
    /// The optimal-tiling [`TilingSummary`].
    Tiling,
    /// The Theorem-3 [`TightnessReport`].
    Tightness,
    /// Validity of the cached lower bound's `(ŝ, ζ)` certificate — an
    /// internal component of the tightness report (never answered
    /// directly). Caching it separately lets an evicted report be
    /// recomposed from surviving components in O(1) solver work.
    Certificate,
}

/// Key of one typed result: vertex-carrying payloads are positional, so the
/// orientation (declaration order) is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub entry: usize,
    pub orientation: usize,
    pub m: u64,
    pub kind: ResultKind,
}

/// One memoized typed artifact.
#[derive(Debug, Clone)]
pub(crate) enum CachedResult {
    Bound(LowerBound),
    Enumerated(EnumeratedBound),
    Tiling(TilingSummary),
    Tightness(TightnessReport),
    Certificate(bool),
}

/// Key of a memoized slice: one `[lo_bound, hi_bound]` sweep along a
/// canonical axis. Slices carry no positional data, so permuted variants of
/// a nest share entries; `exponent_at_bound` probes read the same entries
/// through `Query::Slice { lo_bound: 1, .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SliceKey {
    pub entry: usize,
    pub m: u64,
    /// Canonical loop position of the swept axis.
    pub canon_axis: usize,
    pub lo_bound: u64,
    pub hi_bound: u64,
}

/// Key of a memoized surface. `axes` is **sorted ascending** (the box
/// permuted to match): permuted-axes requests canonicalize to the same key
/// and are answered by remapping the stored sorted-order surface.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct SurfaceKey {
    pub entry: usize,
    pub orientation: usize,
    pub m: u64,
    pub axes: Vec<usize>,
    pub lo_bounds: Vec<u64>,
    pub hi_bounds: Vec<u64>,
}

impl SurfaceKey {
    /// The canonical (sorted-axes) key of a surface request on orientation
    /// `(entry, orientation)`, plus the remap presenting the stored surface
    /// in the request's axis order (`None` when the request is sorted).
    pub fn for_request(
        entry: usize,
        orientation: usize,
        m: u64,
        axes: &[usize],
        lo_bounds: &[u64],
        hi_bounds: &[u64],
    ) -> (SurfaceKey, Option<Vec<usize>>) {
        let (axes, lo_bounds, hi_bounds, order) = sort_surface_request(axes, lo_bounds, hi_bounds);
        let key = SurfaceKey {
            entry,
            orientation,
            m,
            axes,
            lo_bounds,
            hi_bounds,
        };
        (key, order)
    }
}

/// A memoized surface in sorted-axes order, with its wire-ready summary.
#[derive(Debug, Clone)]
pub(crate) struct StoredSurface {
    pub surface: ExponentSurface,
    pub summary: SurfaceSummary,
}

impl StoredSurface {
    /// The summary in a request's axis order: the stored one for a sorted
    /// request, else the exact [`ExponentSurface::with_axis_order`] remap —
    /// the same remap the free function applies, so the answer is bitwise
    /// the free function's for that order.
    pub fn summary_for(&self, axes: &[usize], order: Option<&[usize]>) -> SurfaceSummary {
        match order {
            None => self.summary.clone(),
            Some(order) => summarize_surface(&self.surface.with_axis_order(order), axes),
        }
    }
}

/// One declaration order of an interned nest: its permutations onto the
/// canonical nest. Every memoized artifact lives in the shard-level
/// bounded caches.
pub(crate) struct Orientation {
    /// `original loop position → canonical position`.
    pub loop_perm: Vec<usize>,
    /// `original array position → canonical position`.
    pub array_perm: Vec<usize>,
}

/// Identity of one interned canonical signature.
pub(crate) struct NestEntry {
    pub canonical: LoopNest,
    pub orientations: Vec<Orientation>,
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// Approximate retention costs (heap bytes) of the cached artifacts, used as
/// the cost unit of the bounded caches. The estimates are deliberately
/// simple — flat per-rational cost plus container overheads — because the
/// caps they are compared against are order-of-magnitude budgets, not exact
/// allocator accounting.
pub(crate) mod cost {
    use super::*;

    /// Flat estimate for one `Rational` (two small big-ints plus enum tags;
    /// large values under-count, which only makes eviction later).
    const RATIONAL: u64 = 48;
    /// Base overhead per cached entry (key, hash-map slot, list links).
    const ENTRY: u64 = 96;

    fn rationals(n: usize) -> u64 {
        24 + RATIONAL * n as u64
    }

    pub(crate) fn betas(v: &[Rational]) -> u64 {
        ENTRY + rationals(v.len())
    }

    pub(crate) fn value_function(vf: &ValueFunction) -> u64 {
        ENTRY + rationals(2 * vf.breakpoints.len())
    }

    pub(crate) fn surface(s: &StoredSurface) -> u64 {
        let regions = s.surface.surface().regions();
        let mut total = ENTRY + rationals(s.surface.axes().len());
        for r in regions {
            total += rationals(r.piece.gradient.len() + 1);
            total += rationals(r.witness.len());
            for h in &r.halfspaces {
                total += rationals(h.normal.len() + 1);
            }
        }
        for (pieces, rendered) in s.summary.pieces.iter().zip(&s.summary.rendered) {
            total += rationals(pieces.gradient.len() + 1) + rendered.len() as u64;
        }
        total
    }

    /// Cost of a cached Theorem-2 lower bound.
    pub(crate) fn bound(lb: &LowerBound) -> u64 {
        ENTRY + rationals(1 + lb.s_hat.len() + lb.zeta.len()) + 24
    }

    /// Cost of a cached `2^d` enumeration.
    pub(crate) fn enumerated(en: &EnumeratedBound) -> u64 {
        ENTRY + rationals(1) + rationals(en.per_subset.len()) + 16 * en.per_subset.len() as u64
    }

    /// Cost of a cached tiling summary.
    pub(crate) fn tiling(t: &TilingSummary) -> u64 {
        ENTRY + rationals(1 + t.lambda.len()) + 8 * t.tile_dims.len() as u64
    }

    /// Cost of a cached tightness report (payload-independent).
    pub(crate) fn tightness() -> u64 {
        ENTRY + rationals(3) + 16
    }

    /// Cost of a cached certificate bit (payload-independent).
    pub(crate) fn certificate() -> u64 {
        ENTRY + 1
    }

    pub(crate) fn result(r: &CachedResult) -> u64 {
        match r {
            CachedResult::Bound(lb) => bound(lb),
            CachedResult::Enumerated(en) => enumerated(en),
            CachedResult::Tiling(t) => tiling(t),
            CachedResult::Tightness(_) => tightness(),
            CachedResult::Certificate(_) => certificate(),
        }
    }
}
