//! The two HTTP workloads: `hot_service` and `restart_mixed`.
//!
//! Both drive an in-process [`Server`] over loopback from `clients` closed
//! loop threads, each timing `Client::analyze` at the caller. In the traced
//! phase every call is followed, outside its timed round trip, by the
//! outside-in layer spans: the request body's `json::to_string`, the same
//! batch on a twin `SharedEngine` that saw the same request sequence, the
//! response body's `json::parse` + `AnalysisResult::deserialize`, and
//! `canonicalize(nest)`.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use projtile_core::engine::{AnalysisResult, EngineError, Query, SharedEngine, SnapshotStore};
use projtile_lab::{GeneratorConfig, Pattern, Workload};
use projtile_loopnest::{canonicalize, LoopNest};
use projtile_service::{Client, FaultPlan, RetryConfig, Server, ServerConfig, ServerHandle};
use serde::{json, Deserialize, Serialize, Value};

use crate::layers::{
    self, Counters, ServiceDeltas, CANON, DECODE, ENCODE, ENGINE_HIT, ENGINE_MISS, ROUND_TRIP,
};
use crate::oracle::{self, Ledger};
use crate::spans::SpanLog;
use crate::{Call, Phase, Settings};

/// One request of the stream: a corpus nest and its query batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Index into [`Fixture::nests`].
    pub nest_id: usize,
    /// The batch sent with it.
    pub queries: Vec<Query>,
}

/// A generated HTTP workload, built before any timing starts.
pub struct Fixture {
    /// The lab corpus the stream draws from.
    pub nests: Vec<LoopNest>,
    /// The request stream, walked in order (and cycled) by all clients.
    pub stream: Vec<Batch>,
    /// Batches computed on the server's engine during set-up.
    pub warm: Vec<Batch>,
    /// Snapshot text of a previous server generation to restart from.
    pub pristine: Option<String>,
    /// Periodic snapshot publication interval.
    pub snapshot_interval: Option<Duration>,
}

fn to_batches(nests: &[LoopNest], workload: Workload) -> Result<Vec<Batch>, String> {
    workload
        .batches
        .into_iter()
        .map(|(nest, queries)| {
            let nest_id = nests
                .iter()
                .position(|n| *n == nest)
                .ok_or("generated nest outside the lab corpus")?;
            Ok(Batch { nest_id, queries })
        })
        .collect()
}

/// Batches of the stream's distinct queries, one batch per nest.
fn distinct_per_nest(nests: &[LoopNest], stream: &[Batch]) -> Vec<Batch> {
    let mut per_nest: Vec<Vec<Query>> = vec![Vec::new(); nests.len()];
    let mut seen = std::collections::HashSet::new();
    for b in stream {
        for q in &b.queries {
            if seen.insert((b.nest_id, q.clone())) {
                per_nest[b.nest_id].push(q.clone());
            }
        }
    }
    per_nest
        .into_iter()
        .enumerate()
        .filter(|(_, qs)| !qs.is_empty())
        .map(|(nest_id, queries)| Batch { nest_id, queries })
        .collect()
}

/// `ServerConfig::workers` of every server the benchmark starts (the host
/// the bounds were taken on has two processors).
pub const WORKERS: usize = 2;

/// Requests in the hot stream (cycled for as long as the loop runs).
const HOT_BATCHES: usize = 4096;
/// Fixed-seed hot streams whose distinct queries every hot set-up computes:
/// together long enough to draw nearly every query the hotspot generator
/// can make on the corpus. Generated one at a time, so that the reference
/// adds no more to the peak resident set than the measured stream does.
const HOT_REFERENCE_STREAMS: u64 = 16;
/// Requests in the restart stream (long enough not to cycle in a minute).
const RESTART_BATCHES: usize = 16384;
/// Previous-generation workloads folded into the restart snapshot.
const PREVIOUS_GENERATIONS: u64 = 3;
/// Seed of the set-up inputs (hot reference streams, previous generation).
/// It is not `--seed`: set-up does the same work for every seed, so
/// `setup_s` compares runs rather than seeds.
const SETUP_SEED: u64 = 0x5EED_0000;

/// Largest batch of the hot stream.
const HOT_BATCH_SIZE: usize = 2;

fn hotspot(seed: u64, batches: usize) -> Workload {
    Workload::generate(&GeneratorConfig {
        seed,
        pattern: Pattern::Hotspot,
        batches,
        batch_size: HOT_BATCH_SIZE,
    })
}

/// `hot_service`: lab `Pattern::Hotspot` with 1–2-query batches. Set-up
/// computes the distinct queries of the fixed-seed reference streams plus
/// the few of the seed's stream that they lack, so the loop only hits. It
/// sends them in batches of the stream's own size, as replayed traffic would
/// warm the cache.
pub fn hot_fixture(seed: u64) -> Result<Fixture, String> {
    let nests = projtile_lab::generate::corpus();
    let stream = to_batches(&nests, hotspot(seed, HOT_BATCHES))?;
    let mut warm = Vec::new();
    for r in 1..=HOT_REFERENCE_STREAMS {
        warm.extend(to_batches(&nests, hotspot(SETUP_SEED + r, HOT_BATCHES))?);
        warm = distinct_per_nest(&nests, &warm);
    }
    warm.extend(stream.iter().cloned());
    let warm = distinct_per_nest(&nests, &warm)
        .into_iter()
        .flat_map(|b| {
            b.queries
                .chunks(HOT_BATCH_SIZE)
                .map(|queries| Batch {
                    nest_id: b.nest_id,
                    queries: queries.to_vec(),
                })
                .collect::<Vec<_>>()
        })
        .collect();
    Ok(Fixture {
        nests,
        stream,
        warm,
        pristine: None,
        snapshot_interval: None,
    })
}

/// `restart_mixed`: lab `Pattern::Mixed` against a server restarted from the
/// snapshot a previous server generation published on drain (warmed over
/// HTTP on fixed seeds, so every seed restores the same snapshot), with
/// periodic snapshot publication running beside the reads.
pub fn restart_fixture(seed: u64, work: &Path) -> Result<Fixture, String> {
    let nests = projtile_lab::generate::corpus();
    let dir = work.join("previous-generation");
    let previous = Server::start(
        ServerConfig {
            workers: WORKERS,
            snapshot_dir: Some(dir.clone()),
            ..ServerConfig::default()
        },
        FaultPlan::default(),
    )
    .map_err(|e| format!("previous generation: {e}"))?;
    let warm_client = Client::new(previous.addr().to_string());
    for g in 1..=PREVIOUS_GENERATIONS {
        Workload::generate(&GeneratorConfig {
            seed: SETUP_SEED + g,
            pattern: Pattern::Mixed,
            batches: 64,
            batch_size: 6,
        })
        .drive_client(&warm_client)
        .map_err(|e| format!("warming the previous generation: {e}"))?;
    }
    previous.join();
    let pristine = SnapshotStore::open(&dir, 3)
        .and_then(|store| store.restore_latest(|text| Ok::<_, ()>(text.to_string())))
        .map_err(|e| format!("reading the previous generation: {e}"))?
        .map(|(_, text)| text)
        .ok_or("the previous generation published no snapshot")?;
    let workload = Workload::generate(&GeneratorConfig {
        seed,
        pattern: Pattern::Mixed,
        batches: RESTART_BATCHES,
        batch_size: 6,
    });
    Ok(Fixture {
        stream: to_batches(&nests, workload)?,
        nests,
        warm: Vec::new(),
        pristine: Some(pristine),
        snapshot_interval: Some(Duration::from_millis(250)),
    })
}

/// A started server and how long it took to become ready.
struct Instance {
    handle: ServerHandle,
    setup_s: f64,
}

/// Starts one server: (untimed) places the pristine snapshot in a fresh
/// directory, then (timed) `Server::start` with restore and the warm-up
/// batches, then (untimed) a first `/healthz` round trip.
fn start_instance(fix: &Fixture, dir: &Path) -> Result<Instance, String> {
    let snapshot_dir = match &fix.pristine {
        Some(text) => {
            SnapshotStore::open(dir, 3)
                .and_then(|store| store.publish(text))
                .map_err(|e| format!("placing the restart snapshot: {e}"))?;
            Some(dir.to_path_buf())
        }
        None => None,
    };
    let started = Instant::now();
    let handle = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            snapshot_interval: fix.snapshot_interval,
            snapshot_dir,
            ..ServerConfig::default()
        },
        FaultPlan::default(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    for b in &fix.warm {
        handle
            .engine()
            .analyze_batch(&fix.nests[b.nest_id], &b.queries);
    }
    let setup_s = started.elapsed().as_secs_f64();
    // The readiness probe is not timed: its latency is where the accept
    // loop's 2 ms poll sleep happens to stand when warm-up ends, so it would
    // flip each set-up between two values a poll period apart.
    client(&handle)
        .healthz()
        .map_err(|e| format!("healthz: {e}"))?;
    if fix.pristine.is_some() && handle.engine().cache_metrics().results.entries == 0 {
        return Err("the server restarted without restoring the snapshot".to_string());
    }
    Ok(Instance { handle, setup_s })
}

/// A client that never retries, so sheds and transport errors surface as
/// failures instead of hidden latency.
fn client(handle: &ServerHandle) -> Client {
    Client::with_retry(
        handle.addr().to_string(),
        RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        },
    )
}

/// The twin engine of the traced phase, fed the same requests as the server.
struct Twin {
    engine: SharedEngine,
    /// Serializes twin calls so each call's stats delta is its own.
    lock: Mutex<()>,
}

impl Twin {
    fn new(fix: &Fixture) -> Result<Twin, String> {
        let engine = match &fix.pristine {
            Some(text) => {
                SharedEngine::restore_json(text).map_err(|e| format!("twin restore: {e}"))?
            }
            None => SharedEngine::new(),
        };
        for b in &fix.warm {
            engine.analyze_batch(&fix.nests[b.nest_id], &b.queries);
        }
        Ok(Twin {
            engine,
            lock: Mutex::new(()),
        })
    }
}

/// What one client thread saw.
struct ThreadOut {
    calls: Vec<Call>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    ledger: Ledger,
    spans: SpanLog,
    request_bytes: u64,
    response_bytes: u64,
    engine_errors: u64,
    end: Instant,
}

fn request_body(nest: &LoopNest, queries: &[Query]) -> String {
    json::to_string(&Value::Object(vec![
        ("nest".to_string(), nest.serialize()),
        (
            "queries".to_string(),
            Value::Array(queries.iter().map(Serialize::serialize).collect()),
        ),
    ]))
}

/// The response body the server builds for `results` (same wire shape).
fn response_body(results: &[Result<AnalysisResult, EngineError>]) -> String {
    let entries = results
        .iter()
        .map(|r| {
            let (tag, payload) = match r {
                Ok(result) => ("ok", result.serialize()),
                Err(e) => ("err", Value::String(e.to_string())),
            };
            Value::Object(vec![(tag.to_string(), payload)])
        })
        .collect();
    json::to_string(&Value::Object(vec![(
        "results".to_string(),
        Value::Array(entries),
    )]))
}

/// The caller-side decode of a response body, as `Client::analyze` does it.
fn decode_response(text: &str) -> usize {
    let Ok(doc) = json::parse(text) else { return 0 };
    let Ok(Value::Array(entries)) = doc.field("results") else {
        return 0;
    };
    entries
        .iter()
        .filter_map(|e| e.field("ok").ok())
        .filter_map(|ok| AnalysisResult::deserialize(ok).ok())
        .count()
}

fn client_thread(
    fix: &Fixture,
    client: &Client,
    next: &AtomicUsize,
    start: Instant,
    deadline: Instant,
    twin: Option<&Twin>,
    epoch: Instant,
) -> ThreadOut {
    let mut out = ThreadOut {
        calls: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        ledger: Ledger::default(),
        spans: SpanLog::new(epoch),
        request_bytes: 0,
        response_bytes: 0,
        engine_errors: 0,
        end: Instant::now(),
    };
    while Instant::now() < deadline {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let batch = &fix.stream[i % fix.stream.len()];
        let nest = &fix.nests[batch.nest_id];
        let request = i as u64 + 1;
        let root = twin.map(|_| out.spans.begin("request", None, request));
        if twin.is_some() {
            let body = out
                .spans
                .time(ENCODE, root, request, || request_body(nest, &batch.queries));
            out.request_bytes += body.len() as u64;
        }
        let t0 = Instant::now();
        let answer = client.analyze(nest, &batch.queries);
        let t1 = Instant::now();
        out.calls.push(Call {
            end_s: (t1 - start).as_secs_f64(),
            latency_ms: (t1 - t0).as_secs_f64() * 1e3,
            queries: batch.queries.len() as u64,
        });
        out.attempted += batch.queries.len() as u64;
        match answer {
            Ok(results) if results.len() == batch.queries.len() => {
                // A repeat that contradicts an earlier answer is counted by
                // the oracle check, which sees the ledger's mismatch tally.
                for (q, r) in batch.queries.iter().zip(results) {
                    out.ledger.record(batch.nest_id, q, r);
                }
            }
            Ok(results) => {
                out.failed += batch.queries.len() as u64;
                if out.errors.len() < 5 {
                    out.errors.push(format!(
                        "{} answers to {} queries",
                        results.len(),
                        batch.queries.len()
                    ));
                }
            }
            Err(e) => {
                out.failed += batch.queries.len() as u64;
                if out.errors.len() < 5 {
                    out.errors.push(e.to_string());
                }
            }
        }
        if let Some(twin) = twin {
            out.spans.record(ROUND_TRIP, t0, t1, root, request);
            let results = {
                let _serial = twin.lock.lock().unwrap_or_else(|p| p.into_inner());
                let misses = twin.engine.stats().misses;
                let span = out.spans.begin(ENGINE_HIT, root, request);
                let results = twin.engine.analyze_batch(nest, &batch.queries);
                out.spans.end(span);
                if twin.engine.stats().misses != misses {
                    out.spans.rename(span, ENGINE_MISS);
                }
                results
            };
            out.engine_errors += results.iter().filter(|r| r.is_err()).count() as u64;
            let text = response_body(&results);
            out.response_bytes += text.len() as u64;
            let decoded = out
                .spans
                .time(DECODE, root, request, || decode_response(&text));
            std::hint::black_box(decoded);
            let canon = out.spans.time(CANON, root, request, || canonicalize(nest));
            std::hint::black_box(canon);
            if let Some(root) = root {
                out.spans.end(root);
            }
        }
    }
    out.end = Instant::now();
    out
}

fn int_at(v: &Value, path: &[&str]) -> i128 {
    let mut cur = v;
    for key in path {
        match cur.field(key) {
            Ok(next) => cur = next,
            Err(_) => return 0,
        }
    }
    match cur {
        Value::Int(i) => *i,
        _ => 0,
    }
}

/// `/metrics` counter deltas between two documents.
fn service_deltas(before: &Value, after: &Value) -> ServiceDeltas {
    let delta = |keys: &[&str]| {
        keys.iter()
            .map(|k| int_at(after, &[k]) - int_at(before, &[k]))
            .sum()
    };
    ServiceDeltas {
        shed: delta(&["shed_queue_full", "shed_expired"]),
        read_timeouts: delta(&["read_timeouts"]),
        parse_errors: delta(&["parse_errors"]),
        panics: delta(&["panics"]),
        snapshots_published: delta(&["snapshots_published"]),
        snapshot_failures: delta(&["snapshot_failures"]),
    }
}

/// Timed segments of an untraced run; the extra set-ups are spread evenly
/// before them.
const SEGMENTS: usize = 10;

/// Runs one phase: starts the measured server, then the closed loop for
/// `seconds` against it, then the oracle check. With `setups` > 0 the loop
/// is cut into [`SEGMENTS`] segments, and before each one the clients pause
/// while an equal share of `setups` further servers are started (timed) and
/// drained again, so that the set-up times sample the whole run rather than
/// one moment of the host. `traced` adds the twin and the layer spans.
pub fn run_phase(
    fix: &Fixture,
    settings: &Settings,
    seconds: f64,
    setups: usize,
    traced: bool,
    work: &Path,
) -> Result<Phase, String> {
    let epoch = Instant::now();
    let instance = start_instance(fix, &work.join("server-0"))?;
    let mut setup_s = vec![instance.setup_s];
    let twin = if traced { Some(Twin::new(fix)?) } else { None };
    let probe = client(&instance.handle);
    let metrics_before = probe.metrics().map_err(|e| format!("/metrics: {e}"))?;
    let twin_before = twin
        .as_ref()
        .map(|t| (t.engine.stats(), t.engine.cache_metrics()));

    let segments = if setups == 0 { 1 } else { SEGMENTS };
    let next = AtomicUsize::new(0);
    let mut outs: Vec<ThreadOut> = Vec::new();
    let mut wall_s = 0.0;
    for segment in 0..segments {
        for k in 0..setups / segments {
            let dir = work.join(format!("server-{}-{k}", segment + 1));
            let inst = start_instance(fix, &dir)?;
            setup_s.push(inst.setup_s);
            inst.handle.join();
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / segments as f64);
        let mut part: Vec<ThreadOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..settings.clients)
                .map(|_| {
                    let client = client(&instance.handle);
                    let (next, twin) = (&next, twin.as_ref());
                    scope.spawn(move || {
                        client_thread(fix, &client, next, start, deadline, twin, epoch)
                    })
                })
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        if part.len() != settings.clients {
            return Err("a client thread panicked".to_string());
        }
        let segment_s = part
            .iter()
            .map(|o| o.end)
            .max()
            .unwrap_or(start)
            .duration_since(start)
            .as_secs_f64();
        for out in &mut part {
            for call in &mut out.calls {
                call.end_s += wall_s;
            }
        }
        wall_s += segment_s;
        outs.append(&mut part);
    }
    let peak_rss_mb = crate::peak_rss_mb();

    let metrics_after = probe.metrics().map_err(|e| format!("/metrics: {e}"))?;
    let server_hits =
        int_at(&metrics_after, &["engine", "hits"]) - int_at(&metrics_before, &["engine", "hits"]);
    let server_queries = int_at(&metrics_after, &["engine", "queries"])
        - int_at(&metrics_before, &["engine", "queries"]);
    let mut counters = Counters {
        service: Some(service_deltas(&metrics_before, &metrics_after)),
        ..Counters::default()
    };
    if let (Some(t), Some(before)) = (&twin, twin_before) {
        let (engine, caches) =
            layers::engine_delta(before, (t.engine.stats(), t.engine.cache_metrics()));
        counters.engine = engine;
        counters.caches = caches;
    }
    instance.handle.join();

    let mut phase = Phase {
        setup_s,
        wall_s,
        peak_rss_mb,
        ..Phase::default()
    };
    let mut ledger = Ledger::default();
    let mut spans = SpanLog::new(epoch);
    for out in outs {
        phase.calls.extend(out.calls);
        phase.attempted += out.attempted;
        phase.failed += out.failed;
        phase.errors.extend(out.errors);
        ledger.absorb(out.ledger);
        spans.absorb(out.spans);
        counters.request_bytes += out.request_bytes;
        counters.response_bytes += out.response_bytes;
        counters.engine_errors += out.engine_errors;
    }
    counters.wire_requests = if traced { phase.calls.len() as u64 } else { 0 };
    let repeats = ledger.repeat_mismatches;
    let verdict = oracle::verify(&ledger, &fix.nests, traced.then_some(&mut spans));
    phase.failed += verdict.failed;
    phase.errors.extend(verdict.messages);
    phase.distinct = verdict.distinct;
    phase.notes.push(format!(
        "set-up: {} queries computed per server",
        fix.warm.iter().map(|b| b.queries.len()).sum::<usize>()
    ));
    phase.notes.push(format!(
        "server: {server_queries} queries, hit ratio {:.4} (base {server_queries}); {} distinct (nest, query) checked against the cold oracles; {repeats} repeat mismatches",
        if server_queries == 0 { 0.0 } else { server_hits as f64 / server_queries as f64 },
        phase.distinct,
    ));

    if traced {
        let twin = twin.ok_or("traced phase without a twin")?;
        let mut used: Vec<usize> = ledger.seen.keys().map(|(id, _)| *id).collect();
        used.sort_unstable();
        used.dedup();
        let probe_nests: Vec<LoopNest> = used.iter().map(|&id| fix.nests[id].clone()).collect();
        layers::lp_probe(&probe_nests, &mut spans, &mut counters);
        layers::snapshot_probe(
            || twin.engine.snapshot_json(),
            fix.pristine.as_deref(),
            &work.join("snapshot-probe"),
            &mut spans,
            &mut counters,
        )?;
        phase.layers = layers::derive(&spans, &counters);
        phase.spans = Some(spans);
    }
    Ok(phase)
}
