//! The traced run's per-layer table and the outside-in probes behind it.
//!
//! Timings come from spans ([`SpanLog`]) the benchmark takes around calls
//! into each layer's public functions; counts come from the layers' own
//! public counters (`/metrics`, `stats()`, `cache_metrics()`,
//! `HblFamily::stats()`). Every metric is emitted on every workload; a
//! layer that is not on a workload's request path reports 0 with the note
//! `not on this path`.

use std::path::Path;

use projtile_core::engine::{
    CacheMetrics, EngineStats, SharedEngine, SnapshotStore, QUERY_KIND_NAMES,
};
use projtile_core::hbl::{solve_hbl, HblFamily};
use projtile_loopnest::{IndexSet, LoopNest};
use serde::json;

use crate::oracle::CORE_SPANS;
use crate::report::Metric;
use crate::spans::SpanLog;
use crate::stats::{median, quantile};

/// Span names of the engine call, split by whether it computed anything.
pub const ENGINE_HIT: &str = "engine.analyze_batch.hit";
/// See [`ENGINE_HIT`].
pub const ENGINE_MISS: &str = "engine.analyze_batch.miss";
/// The caller-side span around `Client::analyze`.
pub const ROUND_TRIP: &str = "service.client_analyze";
/// `json::to_string` of the request body.
pub const ENCODE: &str = "serde.encode_request";
/// `json::parse` + `AnalysisResult::deserialize` of the response body.
pub const DECODE: &str = "serde.decode_response";
/// `canonicalize(nest)` of the request nest.
pub const CANON: &str = "loopnest.canonicalize";

/// `/metrics` counter deltas over the timed loop.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceDeltas {
    /// Requests shed (queue full or expired).
    pub shed: i128,
    /// Read deadlines hit.
    pub read_timeouts: i128,
    /// Malformed requests.
    pub parse_errors: i128,
    /// Worker panics.
    pub panics: i128,
    /// Snapshot generations published.
    pub snapshots_published: i128,
    /// Failed snapshot publications.
    pub snapshot_failures: i128,
}

/// Everything the table needs besides the spans.
#[derive(Debug, Default)]
pub struct Counters {
    /// `/metrics` deltas; `None` when no service is on the path.
    pub service: Option<ServiceDeltas>,
    /// Request body bytes over the traced loop.
    pub request_bytes: u64,
    /// Response body bytes over the traced loop.
    pub response_bytes: u64,
    /// Requests the byte counts cover.
    pub wire_requests: u64,
    /// Engine counter deltas over the traced loop.
    pub engine: EngineStats,
    /// Per-kind hit/miss deltas and the cache occupancy at the end of the loop.
    pub caches: CacheMetrics,
    /// Per-query errors returned by the engine.
    pub engine_errors: u64,
    /// Size of the snapshot text parsed by the snapshot probe.
    pub snapshot_bytes: u64,
    /// Warm and cold solves of the subset sweeps.
    pub lp_warm_solves: u64,
    /// See `lp_warm_solves`.
    pub lp_cold_solves: u64,
}

/// Kind-wise difference `after - before` of the engine counters.
pub fn engine_delta(
    before: (EngineStats, CacheMetrics),
    after: (EngineStats, CacheMetrics),
) -> (EngineStats, CacheMetrics) {
    let (b, bc) = before;
    let (a, mut ac) = after;
    for (k, bk) in ac.kinds.iter_mut().zip(bc.kinds) {
        k.hits -= bk.hits;
        k.misses -= bk.misses;
    }
    let stats = EngineStats {
        queries: a.queries - b.queries,
        hits: a.hits - b.hits,
        misses: a.misses - b.misses,
        interned: a.interned - b.interned,
    };
    (stats, ac)
}

/// Sum of µs durations in ms (0, not -0, when empty).
fn total_ms(micros: &[f64]) -> f64 {
    micros.iter().fold(0.0, |acc, x| acc + x) / 1e3
}

fn pct(samples: &[f64], q: f64) -> (f64, String) {
    let mut v = samples.to_vec();
    match quantile(&mut v, q) {
        Some(x) => (x.value, format!("n={}", x.n)),
        None => (0.0, "n=0".to_string()),
    }
}

/// Builds the per-layer table from `spans` and `counters`.
pub fn derive(spans: &SpanLog, counters: &Counters) -> Vec<Metric> {
    let mut out = Vec::new();
    let absent = "not on this path";

    // service: the caller's round trip minus what the twin engine and the
    // caller-side codec account for.
    let self_us = spans.residual_micros(ROUND_TRIP, &[ENGINE_HIT, ENGINE_MISS, ENCODE, DECODE]);
    for (name, q) in [("service.self_us.p50", 0.5), ("service.self_us.p99", 0.99)] {
        let (v, n) = pct(&self_us, q);
        out.push(Metric::new(
            name,
            "us",
            v,
            if self_us.is_empty() {
                absent.to_string()
            } else {
                n
            },
        ));
    }
    let s = counters.service;
    let note = if s.is_some() {
        "/metrics delta"
    } else {
        absent
    };
    let s = s.unwrap_or_default();
    for (name, v) in [
        ("service.shed", s.shed),
        ("service.read_timeouts", s.read_timeouts),
        ("service.parse_errors", s.parse_errors),
        ("service.panics", s.panics),
        ("service.snapshots_published", s.snapshots_published),
        ("service.snapshot_failures", s.snapshot_failures),
    ] {
        out.push(Metric::new(name, "count", v as f64, note));
    }

    // serde on the wire and in snapshots.
    let enc = spans.micros_of(ENCODE);
    let dec = spans.micros_of(DECODE);
    let wire_note = |n: String, empty: bool| if empty { absent.to_string() } else { n };
    let (v, n) = pct(&enc, 0.5);
    out.push(Metric::new(
        "serde.encode_us.p50",
        "us",
        v,
        wire_note(n, enc.is_empty()),
    ));
    for (name, q) in [("serde.decode_us.p50", 0.5), ("serde.decode_us.p99", 0.99)] {
        let (v, n) = pct(&dec, q);
        out.push(Metric::new(name, "us", v, wire_note(n, dec.is_empty())));
    }
    let per_request = |bytes: u64| {
        if counters.wire_requests == 0 {
            0.0
        } else {
            bytes as f64 / counters.wire_requests as f64
        }
    };
    let wire = wire_note(
        format!("mean of {} requests", counters.wire_requests),
        counters.wire_requests == 0,
    );
    out.push(Metric::new(
        "serde.request_bytes",
        "B",
        per_request(counters.request_bytes),
        wire.clone(),
    ));
    out.push(Metric::new(
        "serde.response_bytes",
        "B",
        per_request(counters.response_bytes),
        wire,
    ));
    let mut parse = spans.micros_of("serde.snapshot_parse");
    out.push(Metric::new(
        "serde.snapshot_parse_ms",
        "ms",
        median(&mut parse) / 1e3,
        format!("median of {}", parse.len()),
    ));
    out.push(Metric::new(
        "serde.snapshot_bytes",
        "B",
        counters.snapshot_bytes as f64,
        "",
    ));

    // engine: spans around analyze_batch, then its own counters.
    let hit = spans.micros_of(ENGINE_HIT);
    let miss = spans.micros_of(ENGINE_MISS);
    let all: Vec<f64> = hit.iter().chain(&miss).copied().collect();
    for (name, q) in [("engine.call_us.p50", 0.5), ("engine.call_us.p99", 0.99)] {
        let (v, n) = pct(&all, q);
        out.push(Metric::new(name, "us", v, n));
    }
    let (v, n) = pct(&hit, 0.5);
    out.push(Metric::new("engine.hit_call_us.p50", "us", v, n));
    let (v, n) = pct(&miss, 0.5);
    out.push(Metric::new("engine.miss_call_us.p50", "us", v, n));
    out.push(Metric::new(
        "engine.miss_busy_ms",
        "ms",
        total_ms(&miss),
        format!("sum of {} miss calls", miss.len()),
    ));
    let e = counters.engine;
    out.push(Metric::new(
        "engine.queries",
        "count",
        e.queries as f64,
        "stats() delta",
    ));
    out.push(Metric::new(
        "engine.hits",
        "count",
        e.hits as f64,
        "stats() delta",
    ));
    out.push(Metric::new(
        "engine.misses",
        "count",
        e.misses as f64,
        "stats() delta",
    ));
    let ratio = if e.queries == 0 {
        0.0
    } else {
        e.hits as f64 / e.queries as f64
    };
    out.push(Metric::new(
        "engine.hit_ratio",
        "ratio",
        ratio,
        format!("base engine.queries={}", e.queries),
    ));
    out.push(Metric::new(
        "engine.interned",
        "count",
        e.interned as f64,
        "stats() delta",
    ));
    out.push(Metric::new(
        "engine.errors",
        "count",
        counters.engine_errors as f64,
        "typed errors returned",
    ));
    for (name, k) in QUERY_KIND_NAMES.iter().zip(counters.caches.kinds) {
        out.push(Metric::new(
            format!("engine.kind.{name}.hits"),
            "count",
            k.hits as f64,
            "cache_metrics() delta",
        ));
        out.push(Metric::new(
            format!("engine.kind.{name}.misses"),
            "count",
            k.misses as f64,
            "cache_metrics() delta",
        ));
    }
    for (name, span) in [
        ("engine.restore_ms", "engine.restore"),
        ("engine.snapshot_ms", "engine.snapshot"),
        ("engine.store_publish_ms", "engine.store_publish"),
    ] {
        let mut v = spans.micros_of(span);
        out.push(Metric::new(
            name,
            "ms",
            median(&mut v) / 1e3,
            format!("median of {}", v.len()),
        ));
    }

    // cachesim: the BoundedLru occupancy behind cache_metrics().
    let c = &counters.caches;
    for (name, stats) in [
        ("results", c.results),
        ("betas", c.betas),
        ("slices", c.slices),
        ("surfaces", c.surfaces),
    ] {
        out.push(Metric::new(
            format!("cachesim.{name}.entries"),
            "count",
            stats.entries as f64,
            "end of loop",
        ));
        out.push(Metric::new(
            format!("cachesim.{name}.cost"),
            "B",
            stats.cost as f64,
            "end of loop",
        ));
        out.push(Metric::new(
            format!("cachesim.{name}.evictions"),
            "count",
            stats.evictions as f64,
            "end of loop",
        ));
    }

    // loopnest
    let (v, n) = pct(&spans.micros_of(CANON), 0.5);
    out.push(Metric::new("loopnest.canonicalize_us.p50", "us", v, n));

    // core: the cold free function per query kind (the oracle pass).
    for (kind, span) in QUERY_KIND_NAMES.iter().zip(CORE_SPANS) {
        let v = spans.micros_of(span);
        let busy = total_ms(&v);
        let (p50, _) = pct(&v, 0.5);
        out.push(Metric::new(
            format!("core.{kind}.count"),
            "count",
            v.len() as f64,
            "oracle calls",
        ));
        out.push(Metric::new(format!("core.{kind}.busy_ms"), "ms", busy, ""));
        out.push(Metric::new(
            format!("core.{kind}.p50_us"),
            "us",
            p50,
            format!("n={}", v.len()),
        ));
    }

    // lp
    let (v, n) = pct(&spans.micros_of("lp.cold_solve"), 0.5);
    out.push(Metric::new("lp.cold_solve_us.p50", "us", v, n));
    let sweep = spans.micros_of("lp.subset_sweep");
    out.push(Metric::new(
        "lp.subset_sweep_ms",
        "ms",
        total_ms(&sweep),
        format!("sum over {} nests", sweep.len()),
    ));
    out.push(Metric::new(
        "lp.warm_solves",
        "count",
        counters.lp_warm_solves as f64,
        "HblFamily::stats()",
    ));
    out.push(Metric::new(
        "lp.cold_solves",
        "count",
        counters.lp_cold_solves as f64,
        "HblFamily::stats()",
    ));
    out
}

/// Nests the lp probe sweeps (the workload's first distinct nests).
const LP_PROBE_NESTS: usize = 16;
/// Cold solves per probed nest (their median is steadier than one solve).
const LP_COLD_REPEATS: usize = 5;

/// The lp probe: cold `solve_hbl(nest, ∅)` solves and one Gray-code
/// `HblFamily` sweep over all `2^d` subsets per nest.
pub fn lp_probe(nests: &[LoopNest], spans: &mut SpanLog, counters: &mut Counters) {
    let root = spans.begin("probe.lp", None, 0);
    for nest in nests.iter().take(LP_PROBE_NESTS) {
        for _ in 0..LP_COLD_REPEATS {
            let sol = spans.time("lp.cold_solve", Some(root), 0, || {
                solve_hbl(nest, IndexSet::empty())
            });
            std::hint::black_box(sol);
        }
        let d = nest.num_loops();
        let stats = spans.time("lp.subset_sweep", Some(root), 0, || {
            let mut family = HblFamily::new(nest);
            for i in 0..1u64 << d {
                std::hint::black_box(family.solve(IndexSet::from_bits(i ^ (i >> 1))));
            }
            family.stats()
        });
        counters.lp_warm_solves += stats.warm_solves;
        counters.lp_cold_solves += stats.cold_solves;
    }
    spans.end(root);
}

/// Repeats of each step of the snapshot probe.
const SNAPSHOT_REPEATS: usize = 3;

/// The snapshot probe: `snapshot` (timed as `engine.snapshot`), then
/// `json::parse` of `restored` (or of the fresh snapshot when the workload
/// restored none), `SharedEngine::restore` from the parsed value, and
/// `SnapshotStore::publish` of the fresh snapshot into `dir`.
pub fn snapshot_probe(
    mut snapshot: impl FnMut() -> String,
    restored: Option<&str>,
    dir: &Path,
    spans: &mut SpanLog,
    counters: &mut Counters,
) -> Result<(), String> {
    let root = spans.begin("probe.snapshot", None, 0);
    let store = SnapshotStore::open(dir, 1).map_err(|e| format!("snapshot probe store: {e}"))?;
    for _ in 0..SNAPSHOT_REPEATS {
        let text = spans.time("engine.snapshot", Some(root), 0, &mut snapshot);
        let parse_text = restored.unwrap_or(&text);
        counters.snapshot_bytes = parse_text.len() as u64;
        let value = spans
            .time("serde.snapshot_parse", Some(root), 0, || {
                json::parse(parse_text)
            })
            .map_err(|e| format!("snapshot probe parse: {e}"))?;
        let engine = spans
            .time("engine.restore", Some(root), 0, || {
                SharedEngine::restore(&value)
            })
            .map_err(|e| format!("snapshot probe restore: {e}"))?;
        std::hint::black_box(engine);
        spans
            .time("engine.store_publish", Some(root), 0, || {
                store.publish(&text)
            })
            .map_err(|e| format!("snapshot probe publish: {e}"))?;
    }
    spans.end(root);
    Ok(())
}
