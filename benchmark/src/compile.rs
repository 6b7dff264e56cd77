//! The `cold_compile` workload: the library path of a compiler pass.
//!
//! One thread calls `Engine::analyze_batch` once per nest, the way
//! `examples/compiler_pass.rs` does, over a seeded pool of distinct nests:
//! `random_projective` nests with 4 to 11 loops and the paper's small-bound
//! kernels (`matvec`, `pointwise_conv`, `fully_connected`) with seeded small
//! dimensions, six queries each.
//!
//! The pool is compiled in units of [`UNIT_NESTS`] nests, each unit with a
//! freshly set-up `Engine` (one compiler pass per unit, warmed on the named
//! kernels; the set-up is timed as `setup_s`, outside the timed loop),
//! cycling through the pool for as long as the loop runs. Every call
//! therefore computes: the cache does nothing useful and the time is all in
//! `core`/`lp`/`arith`. Because the pool is fixed per seed, the answers kept
//! for the oracle check and the check itself are bounded by the pool, not by
//! how fast the program runs.

use std::path::Path;
use std::time::Instant;

use projtile_core::engine::{Engine, Query};
use projtile_lab::generate::XorShift;
use projtile_loopnest::{builders, canonicalize, LoopNest};

use crate::layers::{self, Counters, CANON, ENGINE_HIT, ENGINE_MISS};
use crate::oracle::{self, Ledger};
use crate::spans::SpanLog;
use crate::{Call, Phase};

/// Nests per compilation unit (one `Engine` each).
const UNIT_NESTS: usize = 8;

/// Fast-memory sizes the pass compiles for.
const CACHE_SIZES: [u64; 3] = [1 << 8, 1 << 10, 1 << 12];

/// Nest shapes per rotation: the three paper kernels, then
/// `random_projective` with 4 to 11 loops.
const ROTATION: usize = 11;

/// Nests in the pool: 48 rotations, a whole number of units.
const POOL_NESTS: usize = 48 * ROTATION;

/// The seeded pool of nests, cycled unit by unit.
///
/// Shapes follow a fixed rotation, so every seed compiles the same mix of
/// depths and kernels and varies only what is random within a shape
/// (supports, bounds, dimensions, swept axes). Without it, a few more or
/// fewer 11-loop nests would move throughput from seed to seed.
pub struct Pool {
    /// The nests.
    pub nests: Vec<LoopNest>,
    /// The six queries of each nest.
    pub queries: Vec<Vec<Query>>,
    next: usize,
}

impl Pool {
    /// The pool of `seed`.
    pub fn new(seed: u64) -> Pool {
        let mut rng = XorShift::new(seed ^ 0xC0DE_C0DE_C0DE_C0DE);
        let dim = |rng: &mut XorShift| 2 + rng.below(63);
        let (nests, queries) = (0..POOL_NESTS)
            .map(|i| {
                let nest = match i % ROTATION {
                    0 => builders::matvec(dim(&mut rng), dim(&mut rng)),
                    1 => {
                        let (b, c, k) = (dim(&mut rng), dim(&mut rng), dim(&mut rng));
                        let (w, h) = (dim(&mut rng), dim(&mut rng));
                        builders::pointwise_conv(b, c, k, w, h)
                    }
                    2 => builders::fully_connected(dim(&mut rng), dim(&mut rng), dim(&mut rng)),
                    slot => {
                        let arrays = 3 + i / ROTATION % 4;
                        builders::random_projective(rng.next_u64(), slot + 1, arrays, (2, 64))
                    }
                };
                let m = CACHE_SIZES[i % CACHE_SIZES.len()];
                let d = nest.num_loops() as u64;
                let a = rng.below(d) as usize;
                let b = (a + 1 + rng.below(d - 1) as usize) % d as usize;
                let queries = six_queries(m, nest.bounds(), a, b);
                (nest, queries)
            })
            .unzip();
        Pool {
            nests,
            queries,
            next: 0,
        }
    }

    /// Pool indices of the next unit.
    fn unit(&mut self) -> Vec<usize> {
        let ids = (self.next..self.next + UNIT_NESTS)
            .map(|i| i % POOL_NESTS)
            .collect();
        self.next = (self.next + UNIT_NESTS) % POOL_NESTS;
        ids
    }
}

/// The six queries a nest is compiled with: Slice along `a`, Surface over
/// `a` and `b`.
fn six_queries(m: u64, bounds: Vec<u64>, a: usize, b: usize) -> Vec<Query> {
    vec![
        Query::LowerBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::Slice {
            cache_size: m,
            axis: a,
            lo_bound: 1,
            hi_bound: bounds[a].clamp(1, 16),
        },
        Query::Surface {
            cache_size: m,
            axes: vec![a, b],
            lo_bounds: vec![1, 1],
            hi_bounds: vec![bounds[a].clamp(1, 4), bounds[b].clamp(1, 4)],
        },
    ]
}

/// The paper's named kernels at benchmark-scale bounds, compiled once
/// during set-up (never part of the timed stream).
fn warm_up(engine: &mut Engine) {
    for nest in [
        builders::matmul(64, 64, 64),
        builders::matvec(512, 64),
        builders::fully_connected(32, 64, 16),
        builders::pointwise_conv(8, 32, 32, 14, 14),
        builders::nbody(64, 128),
        builders::tensor_contraction(1, 3, &[16, 32, 8, 4]),
    ] {
        for m in CACHE_SIZES {
            let queries = six_queries(m, nest.bounds(), 0, 1);
            std::hint::black_box(engine.analyze_batch(&nest, &queries));
        }
    }
}

/// Set-up: a fresh pass engine warmed on the named kernels. Returns the
/// set-up time.
fn set_up() -> (f64, Engine) {
    let started = Instant::now();
    let mut engine = Engine::new();
    warm_up(&mut engine);
    (started.elapsed().as_secs_f64(), engine)
}

/// Runs one phase: units until `seconds` of compile time have elapsed, each
/// on an engine freshly set up (timed as a set-up, outside the timed loop),
/// then the oracle check of every distinct `(nest, query)` answered.
pub fn run_phase(
    pool: &mut Pool,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let mut phase = Phase::default();
    let mut spans = SpanLog::new(epoch);
    let mut counters = Counters::default();
    let mut ledger = Ledger::default();
    let mut timed = 0.0;
    let mut request = 0u64;
    let mut last_engine = None;
    while timed < seconds {
        let (secs, mut engine) = set_up();
        phase.setup_s.push(secs);
        let unit = pool.unit();
        let base = (engine.stats(), engine.cache_metrics());
        let mut answers = Vec::with_capacity(unit.len());
        let segment = Instant::now();
        for &id in &unit {
            let (nest, queries) = (&pool.nests[id], &pool.queries[id]);
            request += 1;
            let before = engine.stats().misses;
            let t0 = Instant::now();
            let results = engine.analyze_batch(nest, queries);
            let t1 = Instant::now();
            phase.calls.push(Call {
                end_s: timed + (t1 - segment).as_secs_f64(),
                latency_ms: (t1 - t0).as_secs_f64() * 1e3,
                queries: queries.len() as u64,
            });
            if traced {
                let root = spans.record("request", t0, t1, None, request);
                let name = if engine.stats().misses != before {
                    ENGINE_MISS
                } else {
                    ENGINE_HIT
                };
                spans.record(name, t0, t1, Some(root), request);
                std::hint::black_box(spans.time(CANON, Some(root), request, || canonicalize(nest)));
                spans.end(root);
            }
            answers.push((id, results));
            if timed + segment.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        timed += segment.elapsed().as_secs_f64();

        // Untimed: file the answers, account the unit's engine.
        for (id, results) in answers {
            phase.attempted += results.len() as u64;
            counters.engine_errors += results.iter().filter(|r| r.is_err()).count() as u64;
            for (q, r) in pool.queries[id].iter().zip(results) {
                ledger.record(id, q, r.map_err(|e| e.to_string()));
            }
        }
        let (stats, caches) = layers::engine_delta(base, (engine.stats(), engine.cache_metrics()));
        counters.engine.queries += stats.queries;
        counters.engine.hits += stats.hits;
        counters.engine.misses += stats.misses;
        counters.engine.interned += stats.interned;
        for (total, k) in counters.caches.kinds.iter_mut().zip(caches.kinds) {
            total.hits += k.hits;
            total.misses += k.misses;
        }
        // Occupancy is that of the last unit's engine (one unit's worth).
        counters.caches.results = caches.results;
        counters.caches.betas = caches.betas;
        counters.caches.slices = caches.slices;
        counters.caches.surfaces = caches.surfaces;
        last_engine = Some(engine);
    }
    phase.wall_s = timed;
    phase.peak_rss_mb = crate::peak_rss_mb();

    let verdict = oracle::verify(&ledger, &pool.nests, traced.then_some(&mut spans));
    phase.failed += verdict.failed;
    phase.errors.extend(verdict.messages);
    phase.distinct = verdict.distinct;
    phase.notes.push(format!(
        "{} queries; hit ratio {:.4} (base {}); {} distinct (nest, query) of a {POOL_NESTS}-nest pool checked against the cold oracles",
        counters.engine.queries,
        counters.engine.hits as f64 / counters.engine.queries.max(1) as f64,
        counters.engine.queries,
        phase.distinct
    ));

    if traced {
        let mut engine = last_engine.ok_or("no unit compiled")?;
        layers::lp_probe(&pool.nests, &mut spans, &mut counters);
        layers::snapshot_probe(
            || engine.snapshot_json(),
            None,
            &work.join("snapshot-probe"),
            &mut spans,
            &mut counters,
        )?;
        phase.layers = layers::derive(&spans, &counters);
        phase.spans = Some(spans);
    }
    Ok(phase)
}
