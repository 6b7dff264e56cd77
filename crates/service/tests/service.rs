//! End-to-end tests for the hardened service: exactness against cold
//! oracles, the full error taxonomy, shedding under overload, panic
//! isolation, the crash-safe snapshot lifecycle (with injected faults),
//! and graceful drain. Every server binds `127.0.0.1:0` in-process.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use projtile_core::engine::{cold_answer, Query, SharedEngine, SnapshotStore};
use projtile_loopnest::builders;
use projtile_service::http::{read_response, Response};
use projtile_service::{Client, FaultPlan, Server, ServerConfig, ServerHandle};
use serde::{json, Serialize, Value};

fn start(mutate: impl FnOnce(&mut ServerConfig), fault: FaultPlan) -> ServerHandle {
    let mut config = ServerConfig::default();
    mutate(&mut config);
    Server::start(config, fault).expect("server starts")
}

/// Sends raw bytes and reads the one response (error-path tests).
fn raw(handle: &ServerHandle, bytes: &[u8]) -> Response {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.write_all(bytes).expect("send");
    read_response(&mut stream, Duration::from_secs(10)).expect("response")
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A mixed batch covering every query kind; `axis` must be a valid loop
/// position of the queried nest.
fn all_kinds_on(m: u64, axis: usize) -> Vec<Query> {
    vec![
        Query::LowerBound { cache_size: m },
        Query::EnumeratedBound { cache_size: m },
        Query::OptimalTiling { cache_size: m },
        Query::Tightness { cache_size: m },
        Query::Surface {
            cache_size: m,
            axes: vec![axis],
            lo_bounds: vec![1],
            hi_bounds: vec![64],
        },
        Query::Slice {
            cache_size: m,
            axis,
            lo_bound: 1,
            hi_bound: 64,
        },
    ]
}

fn metric(doc: &Value, name: &str) -> i128 {
    match doc.field(name) {
        Ok(Value::Int(n)) => *n,
        other => panic!("metric {name}: {other:?}"),
    }
}

#[test]
fn served_answers_are_bitwise_equal_to_cold_oracles() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let m = 1u64 << 8;

    for (nest, axis) in [
        (builders::matmul(64, 64, 64), 2),
        (builders::nbody(32, 64), 1),
    ] {
        let queries = all_kinds_on(m, axis);
        // Twice: the second pass is served from the memo caches and must
        // not drift from the first (cold) pass.
        for pass in 0..2 {
            let served = client.analyze(&nest, &queries).expect("analyze");
            assert_eq!(served.len(), queries.len());
            for (i, (query, answer)) in queries.iter().zip(&served).enumerate() {
                let answer = answer.as_ref().unwrap_or_else(|e| {
                    panic!("pass {pass}, query {i} answered with an error: {e}")
                });
                let expected = cold_answer(&nest, query).expect("oracle");
                assert_eq!(
                    json::to_string(&answer.serialize()),
                    json::to_string(&expected.serialize()),
                    "pass {pass}, query {i} diverges from the cold oracle"
                );
            }
        }
    }
    // The second pass was pure cache hits.
    assert!(
        handle.engine().stats().hits > 0,
        "second pass hit the cache"
    );
    handle.join();
}

#[test]
fn per_query_errors_ride_inside_a_200_batch() {
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(16, 16, 16);
    let queries = vec![
        Query::Tightness { cache_size: 64 },
        Query::Tightness { cache_size: 1 }, // below the model's minimum M
        Query::Slice {
            cache_size: 64,
            axis: 99, // no such loop
            lo_bound: 1,
            hi_bound: 4,
        },
    ];
    let served = client.analyze(&nest, &queries).expect("batch answers 200");
    assert!(
        served[0].is_ok(),
        "valid query unaffected by bad batch-mates"
    );
    let err1 = served[1].as_ref().expect_err("M=1 is invalid");
    assert!(err1.contains("invalid query"), "taxonomy message: {err1}");
    assert!(served[2].is_err(), "bad axis is a per-query error");
    handle.join();
}

#[test]
fn error_taxonomy_maps_to_status_codes() {
    let handle = start(
        |c| c.read_deadline = Duration::from_millis(300),
        FaultPlan::default(),
    );

    // 400: body is not JSON.
    let r = raw(&handle, &post("/analyze", "{not json"));
    assert_eq!(r.status, 400);

    // 400: JSON but an invalid nest (loop `j` appears in no array's
    // support) — the validated deserializer rejects it before any compute.
    let bad_nest = r#"{"nest":{"indices":[{"name":"i","bound":4},{"name":"j","bound":4}],"arrays":[{"name":"A","support":1}]},"queries":[{"Tightness":{"cache_size":64}}]}"#;
    let r = raw(&handle, &post("/analyze", bad_nest));
    assert_eq!(r.status, 400, "invalid nest rejected: {:?}", r.body);

    // 404 and 405.
    assert_eq!(raw(&handle, &post("/nope", "{}")).status, 404);
    assert_eq!(
        raw(
            &handle,
            b"GET /analyze HTTP/1.1\r\ncontent-length: 0\r\n\r\n"
        )
        .status,
        405
    );

    // 413: oversized declared body.
    let r = raw(
        &handle,
        b"POST /analyze HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n",
    );
    assert_eq!(r.status, 413);

    // 408: a byte-dribbling client is cut off by the wall-clock deadline
    // even though each individual byte arrives "promptly".
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    let doc = post("/analyze", r#"{"nest":null,"queries":[]}"#);
    for &byte in doc.iter() {
        if stream.write_all(&[byte]).is_err() {
            break; // server already disconnected us mid-dribble
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // Dropping the dribbler without a response is also acceptable.
    if let Ok(r) = read_response(&mut stream, Duration::from_secs(5)) {
        assert_eq!(r.status, 408, "dribbler answered {}", r.status);
    }

    let client = Client::new(handle.addr().to_string());
    let m = client.metrics().expect("metrics");
    assert!(metric(&m, "parse_errors") >= 2, "two 400s counted");
    assert!(metric(&m, "read_timeouts") >= 1, "dribbler counted");
    handle.join();
}

#[test]
fn overload_sheds_with_503_instead_of_queueing_unboundedly() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
        },
        FaultPlan::new(150, 0, 0), // every compute takes ≥150ms
    );
    let addr = handle.addr();
    let nest = builders::matmul(16, 16, 16);
    let body = json::to_string(&Value::Object(vec![
        ("nest".to_string(), nest.serialize()),
        (
            "queries".to_string(),
            Value::Array(vec![Query::Tightness { cache_size: 64 }.serialize()]),
        ),
    ]));
    let doc = post("/analyze", &body);

    let statuses: Vec<u16> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let doc = doc.clone();
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect");
                    stream.write_all(&doc).expect("send");
                    read_response(&mut stream, Duration::from_secs(30))
                        .expect("every admitted or shed connection gets an answer")
                        .status
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = statuses.iter().filter(|&&s| s == 200).count();
    let shed = statuses.iter().filter(|&&s| s == 503).count();
    assert_eq!(ok + shed, 8, "only 200 or 503, got {statuses:?}");
    assert!(ok >= 1, "someone got served: {statuses:?}");
    assert!(
        shed >= 1,
        "a 1-deep queue with slow compute sheds: {statuses:?}"
    );

    let client = Client::new(addr.to_string());
    let m = client.metrics().expect("metrics");
    assert!(metric(&m, "shed_queue_full") >= shed as i128);
    handle.join();
}

#[test]
fn stale_queued_requests_are_shed_on_dequeue() {
    let handle = start(|c| c.queue_deadline = Duration::ZERO, FaultPlan::default());
    let r = raw(&handle, &post("/analyze", "{}"));
    assert_eq!(r.status, 503, "zero queue deadline sheds everything");
    assert!(
        r.header("retry-after").is_some(),
        "shed answers carry Retry-After"
    );
    handle.join();
}

#[test]
fn worker_panics_answer_500_and_leave_the_engine_consistent() {
    let handle = start(|c| c.workers = 1, FaultPlan::new(0, 2, 0));
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(32, 32, 32);
    let queries = vec![Query::Tightness { cache_size: 256 }];

    let expected = json::to_string(&cold_answer(&nest, &queries[0]).expect("oracle").serialize());

    let mut five_hundreds = 0;
    let mut successes = 0;
    for _ in 0..6 {
        match client.analyze(&nest, &queries) {
            Ok(results) => {
                successes += 1;
                let answer = results[0].as_ref().expect("valid query");
                assert_eq!(
                    json::to_string(&answer.serialize()),
                    expected,
                    "answers after a panic are still bitwise-exact"
                );
            }
            Err(projtile_service::ClientError::Status(500, _)) => five_hundreds += 1,
            Err(other) => panic!("unexpected client error: {other}"),
        }
    }
    assert_eq!(five_hundreds, 3, "every second request panics");
    assert_eq!(successes, 3);
    let m = client.metrics().expect("metrics");
    assert_eq!(metric(&m, "panics"), 3);
    handle.join();
}

/// A scratch directory cleaned on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("projtile-service-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn snapshot_lifecycle_survives_torn_writes_and_restores_on_restart() {
    let tmp = TempDir::new("lifecycle");
    let config = |c: &mut ServerConfig| {
        c.snapshot_dir = Some(tmp.0.clone());
        c.snapshot_interval = Some(Duration::from_millis(40));
        c.snapshot_keep = 2;
    };
    let nest = builders::matmul(64, 64, 64);
    let queries = all_kinds_on(1 << 8, 2);

    // First life: warm the caches while every second periodic snapshot is
    // torn mid-write; drain (which publishes a clean final generation).
    {
        let handle = start(config, FaultPlan::new(0, 0, 2));
        let client = Client::new(handle.addr().to_string());
        let served = client.analyze(&nest, &queries).expect("warm");
        assert!(served.iter().all(Result::is_ok));
        std::thread::sleep(Duration::from_millis(200));
        let m = client.metrics().expect("metrics");
        assert!(metric(&m, "snapshots_published") >= 1, "periodic loop ran");
        assert!(metric(&m, "snapshot_failures") >= 1, "tear fault fired");
        handle.join();
    }

    // The store on disk: at most `keep` generations, and the newest valid
    // one restores even though torn staging data may be lying around.
    let store = SnapshotStore::open(&tmp.0, 2).expect("open");
    let generations = store.generations().expect("list");
    assert!(
        (1..=2).contains(&generations.len()),
        "GC bounds retention: {generations:?}"
    );
    let restored = store
        .restore_latest(SharedEngine::restore_json)
        .expect("walk")
        .expect("at least the drain snapshot is valid");
    assert!(restored.0 >= 1);

    // Second life: restart from the same directory; the warmed artifacts
    // must serve bitwise-identical answers as cache *hits*.
    let handle = start(config, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let served = client.analyze(&nest, &queries).expect("restored analyze");
    for (i, (query, answer)) in queries.iter().zip(&served).enumerate() {
        let answer = answer.as_ref().expect("restored answers are whole");
        let expected = cold_answer(&nest, query).expect("oracle");
        assert_eq!(
            json::to_string(&answer.serialize()),
            json::to_string(&expected.serialize()),
            "restored query {i} diverges from the cold oracle"
        );
    }
    let stats = handle.engine().stats();
    assert!(
        stats.hits >= queries.len() as u64 - 1,
        "restored cache serves hits, got {stats:?}"
    );
    handle.join();
}

#[test]
fn drain_finishes_in_flight_work_then_closes_the_port() {
    let tmp = TempDir::new("drain");
    let handle = start(
        |c| {
            c.workers = 1;
            c.snapshot_dir = Some(tmp.0.clone());
        },
        FaultPlan::new(150, 0, 0),
    );
    let addr = handle.addr();

    // One slow request in flight...
    let worker = std::thread::spawn(move || {
        let client = Client::new(addr.to_string());
        client.analyze(
            &builders::matmul(16, 16, 16),
            &[Query::Tightness { cache_size: 64 }],
        )
    });
    std::thread::sleep(Duration::from_millis(50));

    // ...when an HTTP drain lands. The in-flight request still completes.
    let client = Client::new(addr.to_string());
    client.drain().expect("drain acknowledged");
    let served = worker.join().unwrap().expect("in-flight request finished");
    assert!(served[0].is_ok());

    handle.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "port is closed after drain"
    );
    let store = SnapshotStore::open(&tmp.0, 3).expect("open");
    assert!(
        !store.generations().expect("list").is_empty(),
        "drain published a final snapshot"
    );
}

#[test]
fn client_retries_through_shedding_until_served() {
    let handle = start(
        |c| {
            c.workers = 1;
            c.queue_capacity = 1;
            c.retry_after_secs = 0;
        },
        FaultPlan::new(100, 0, 0),
    );
    let addr = handle.addr().to_string();
    let nest = builders::matmul(16, 16, 16);

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let addr = addr.clone();
                let nest = &nest;
                scope.spawn(move || {
                    let client = Client::with_retry(
                        addr,
                        projtile_service::RetryConfig {
                            max_attempts: 12,
                            base_backoff: Duration::from_millis(40),
                            jitter_seed: 1 + i as u64,
                            ..Default::default()
                        },
                    );
                    client.analyze(nest, &[Query::Tightness { cache_size: 64 }])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, outcome) in outcomes.iter().enumerate() {
        let served = outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("client {i} not served through retries: {e}"));
        assert!(served[0].is_ok());
    }
    handle.join();
}

/// `/trace` serves the recorded query trace when the server boots with a
/// trace capacity (and an empty document otherwise), and `/metrics` breaks
/// the engine's hit/miss counters down per query kind.
#[test]
fn trace_endpoint_serves_a_replayable_document() {
    use projtile_core::engine::TraceDocument;

    // Without a trace capacity: the endpoint answers, with zero events.
    let handle = start(|_| {}, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let doc =
        TraceDocument::from_value(&client.trace().expect("trace")).expect("empty trace parses");
    assert!(doc.events.is_empty());
    handle.join();

    // With one: recorded events cover exactly the served queries, and the
    // document's counters reconcile with `/metrics` per-kind counters.
    let handle = start(|c| c.trace_capacity = 1 << 14, FaultPlan::default());
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(64, 64, 64);
    let queries = all_kinds_on(1 << 8, 2);
    for _ in 0..2 {
        let served = client.analyze(&nest, &queries).expect("analyze");
        assert!(served.iter().all(Result::is_ok));
    }
    let doc = TraceDocument::from_value(&client.trace().expect("trace")).expect("trace parses");
    assert_eq!(doc.events.len(), 2 * queries.len());
    assert_eq!(
        doc.queries,
        doc.hits + doc.misses,
        "no invalid queries sent"
    );
    assert!(doc.hits >= queries.len() as u64, "second round hits");

    let m = client.metrics().expect("metrics");
    let per_kind = m
        .field("engine")
        .and_then(|e| e.field("per_kind"))
        .expect("per-kind counters exported");
    let mut hits = 0i128;
    let mut misses = 0i128;
    for name in projtile_core::engine::QUERY_KIND_NAMES {
        let counters = per_kind.field(name).expect("every kind exported");
        hits += metric(counters, "hits");
        misses += metric(counters, "misses");
    }
    assert_eq!(hits as u64, doc.hits);
    assert_eq!(misses as u64, doc.misses);
    handle.join();
}
