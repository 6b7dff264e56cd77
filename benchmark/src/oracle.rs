//! Bitwise answer checks against the cold free-function oracles.
//!
//! Every answer of a timed loop is filed in a [`Ledger`] under its distinct
//! `(nest, query)` key; a repeat that differs from the first answer counts as
//! a failure. After the loop (outside every timed region) each distinct key
//! is compared once against the free function its [`Query`] variant
//! documents, using the `_cold` form where one exists (a `Surface` answer is
//! compared with `exponent_surface`, whose region decomposition the engine
//! shares, and that surface with `exponent_surface_cold` in value on a grid
//! of the box and in its slices). Invalid queries must
//! come back as typed `invalid query` rejections.

use std::collections::HashMap;

use projtile_arith::{log, Rational};
use projtile_core::engine::{AnalysisResult, Query, SurfaceSummary, TilingSummary};
use projtile_core::{bounds, parametric, tightness, tiling_lp};
use projtile_loopnest::LoopNest;

use crate::spans::SpanLog;

/// An answer as the caller saw it: a result, or an error message.
pub type Served = Result<AnalysisResult, String>;

/// Span names of the oracle calls, indexed like
/// `projtile_core::engine::QUERY_KIND_NAMES`.
pub const CORE_SPANS: [&str; 6] = [
    "core.lower_bound",
    "core.enumerated_bound",
    "core.optimal_tiling",
    "core.tightness",
    "core.surface",
    "core.slice",
];

/// Grid points per swept axis at which warm and cold surfaces are compared.
const GRID_STEPS: usize = 4;

/// The first answer seen for one distinct `(nest, query)` and how often it
/// was served.
#[derive(Debug)]
pub struct Seen {
    /// First answer served.
    pub answer: Served,
    /// Times the key was answered (each occurrence fails if the answer is
    /// wrong).
    pub count: u64,
}

/// Every distinct `(nest id, query)` answered in a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// First answers by key.
    pub seen: HashMap<(usize, Query), Seen>,
    /// Repeats whose answer differed from the first one served.
    pub repeat_mismatches: u64,
}

impl Ledger {
    /// Files one answer; `false` when it contradicts an earlier answer to
    /// the same key.
    pub fn record(&mut self, nest_id: usize, query: &Query, answer: Served) -> bool {
        match self.seen.get_mut(&(nest_id, query.clone())) {
            Some(seen) => {
                seen.count += 1;
                let same = seen.answer == answer;
                if !same {
                    self.repeat_mismatches += 1;
                }
                same
            }
            None => {
                self.seen
                    .insert((nest_id, query.clone()), Seen { answer, count: 1 });
                true
            }
        }
    }

    /// Folds another thread's ledger into this one; keys answered
    /// differently on the two sides count as mismatches.
    pub fn absorb(&mut self, other: Ledger) {
        self.repeat_mismatches += other.repeat_mismatches;
        for (key, theirs) in other.seen {
            match self.seen.get_mut(&key) {
                Some(ours) => {
                    if ours.answer != theirs.answer {
                        self.repeat_mismatches += theirs.count;
                    } else {
                        ours.count += theirs.count;
                    }
                }
                None => {
                    self.seen.insert(key, theirs);
                }
            }
        }
    }
}

/// Outcome of checking a ledger.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Distinct keys checked.
    pub distinct: usize,
    /// Served answers that failed (weighted by how often each was served).
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, count: u64, msg: String) {
        self.failed += count;
        if self.messages.len() < 5 {
            self.messages.push(msg);
        }
    }
}

/// Whether the engine must reject `query` on `nest`: the validation rules
/// documented on [`Query`] and its fields, restated independently.
fn expect_invalid(nest: &LoopNest, query: &Query) -> bool {
    let d = nest.num_loops();
    if query.cache_size() < 2 {
        return true;
    }
    match query {
        Query::EnumeratedBound { .. } | Query::Tightness { .. } => d > 30,
        Query::LowerBound { .. } | Query::OptimalTiling { .. } => false,
        Query::Slice {
            axis,
            lo_bound,
            hi_bound,
            ..
        } => *axis >= d || *lo_bound < 1 || hi_bound < lo_bound,
        Query::Surface {
            axes,
            lo_bounds,
            hi_bounds,
            ..
        } => {
            let mut sorted = axes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            axes.is_empty()
                || axes.len() != lo_bounds.len()
                || axes.len() != hi_bounds.len()
                || sorted.len() != axes.len()
                || axes.iter().any(|&a| a >= d)
                || lo_bounds
                    .iter()
                    .zip(hi_bounds)
                    .any(|(&lo, &hi)| lo < 1 || hi < lo)
        }
    }
}

/// The cold oracle's answer to a valid `query`.
fn oracle(nest: &LoopNest, query: &Query) -> Result<AnalysisResult, String> {
    Ok(match query {
        Query::LowerBound { cache_size } => {
            AnalysisResult::LowerBound(bounds::arbitrary_bound_exponent(nest, *cache_size))
        }
        Query::EnumeratedBound { cache_size } => {
            AnalysisResult::EnumeratedBound(bounds::enumerated_exponent_cold(nest, *cache_size))
        }
        Query::OptimalTiling { cache_size } => {
            let tiling = tiling_lp::optimal_tiling(nest, *cache_size);
            let lambda = tiling.lambda().ok_or("tiling without λ")?.to_vec();
            let value = lambda.iter().fold(Rational::zero(), |acc, l| &acc + l);
            AnalysisResult::OptimalTiling(TilingSummary {
                lambda,
                value,
                tile_dims: tiling.tile_dims().to_vec(),
            })
        }
        Query::Tightness { cache_size } => {
            AnalysisResult::Tightness(tightness::check_tightness(nest, *cache_size))
        }
        Query::Slice {
            cache_size,
            axis,
            lo_bound,
            hi_bound,
        } => AnalysisResult::Slice(
            parametric::exponent_vs_beta_cold(nest, *cache_size, *axis, *lo_bound, *hi_bound)
                .map_err(|e| format!("oracle slice: {e}"))?,
        ),
        Query::Surface {
            cache_size,
            axes,
            lo_bounds,
            hi_bounds,
        } => {
            // The region decomposition belongs to the warm traversal, so the
            // summary is compared with `exponent_surface` (the function the
            // query documents); the fully cold decomposition must then agree
            // with it in value on a 4-point-per-axis grid of the box (its
            // corners and interior thirds) and in its 1-D slices through the
            // box's centre.
            let surface =
                parametric::exponent_surface(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .map_err(|e| format!("oracle surface: {e}"))?;
            let cold =
                parametric::exponent_surface_cold(nest, *cache_size, axes, lo_bounds, hi_bounds)
                    .map_err(|e| format!("cold oracle surface: {e}"))?;
            let m = *cache_size as u128;
            let ends: Vec<(Rational, Rational)> = lo_bounds
                .iter()
                .zip(hi_bounds)
                .map(|(&lo, &hi)| (log::beta(lo as u128, m), log::beta(hi as u128, m)))
                .collect();
            let at = |k: usize, step: i64, of: i64| {
                let (lo, hi) = &ends[k];
                let width = hi - lo;
                lo + &(&width * &(&Rational::from(step) / &Rational::from(of)))
            };
            let points = GRID_STEPS.pow(axes.len() as u32);
            for point in 0..points {
                let beta: Vec<Rational> = (0..axes.len())
                    .map(|k| {
                        let step = point / GRID_STEPS.pow(k as u32) % GRID_STEPS;
                        at(k, step as i64, GRID_STEPS as i64 - 1)
                    })
                    .collect();
                if surface.value_at(&beta) != cold.value_at(&beta) {
                    return Err(format!(
                        "warm and cold surfaces disagree at grid point {point}"
                    ));
                }
            }
            let centre: Vec<Rational> = (0..axes.len()).map(|k| at(k, 1, 2)).collect();
            for k in 0..axes.len() {
                if surface.slice(k, &centre) != cold.slice(k, &centre) {
                    return Err(format!(
                        "warm and cold surfaces slice differently on axis {k}"
                    ));
                }
            }
            AnalysisResult::Surface(SurfaceSummary {
                axes: axes.clone(),
                num_regions: surface.num_regions(),
                pieces: surface.pieces().into_iter().cloned().collect(),
                rendered: surface.render_pieces(),
            })
        }
    })
}

/// Checks every distinct key of `ledger` against the oracle. `nests` maps
/// nest ids to nests. With a span log, each oracle call is recorded as a
/// `core.<kind>` span under one `probe.oracle` root.
pub fn verify(ledger: &Ledger, nests: &[LoopNest], mut spans: Option<&mut SpanLog>) -> Verdict {
    let mut verdict = Verdict::default();
    if ledger.repeat_mismatches > 0 {
        verdict.fail(
            ledger.repeat_mismatches,
            format!(
                "{} repeated answers differ from the first answer served",
                ledger.repeat_mismatches
            ),
        );
    }
    let root = spans.as_mut().map(|s| s.begin("probe.oracle", None, 0));
    // A stable order keeps failure messages and span order reproducible.
    let mut keys: Vec<&(usize, Query)> = ledger.seen.keys().collect();
    keys.sort_by_key(|(id, q)| (*id, format!("{q:?}")));
    for key in keys {
        let (nest_id, query) = key;
        let seen = &ledger.seen[key];
        verdict.distinct += 1;
        let Some(nest) = nests.get(*nest_id) else {
            verdict.fail(seen.count, format!("unknown nest id {nest_id}"));
            continue;
        };
        let invalid = expect_invalid(nest, query);
        match (&seen.answer, invalid) {
            (Err(msg), true) if msg.starts_with("invalid query") => {}
            (other, true) => verdict.fail(
                seen.count,
                format!("{query:?} on nest {nest_id}: expected a typed rejection, got {other:?}"),
            ),
            (Err(msg), false) => verdict.fail(
                seen.count,
                format!("{query:?} on nest {nest_id}: valid query failed: {msg}"),
            ),
            (Ok(got), false) => {
                let kind = projtile_core::engine::query_kind_index(query);
                let span = spans.as_mut().map(|s| s.begin(CORE_SPANS[kind], root, 0));
                let expected = oracle(nest, query);
                if let (Some(s), Some(idx)) = (spans.as_mut(), span) {
                    s.end(idx);
                }
                match expected {
                    Ok(want) if &want == got => {}
                    Ok(_) => verdict.fail(
                        seen.count,
                        format!("{query:?} on nest {nest_id}: answer differs from the cold oracle"),
                    ),
                    Err(e) => verdict.fail(seen.count, format!("{query:?} on nest {nest_id}: {e}")),
                }
            }
        }
    }
    if let (Some(s), Some(idx)) = (spans, root) {
        s.end(idx);
    }
    verdict
}
