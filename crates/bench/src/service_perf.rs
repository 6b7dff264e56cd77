//! Wall-clock perf for the network service (`crates/service`), emitted
//! into the `BENCH_*.json` snapshots as the `service/` group.
//!
//! Unlike the closure workloads of [`crate::perf`], the service numbers
//! come from driving a real in-process server over loopback sockets:
//!
//! * `service/roundtrip/tightness_hit` — one warm request round-trip
//!   (connect, POST `/analyze`, cache-hit compute, response) through the
//!   standard timing loop;
//! * `service/mixed_traffic/secs_per_request` — four client threads of the
//!   cache policy lab's seeded zipf workload generator
//!   (`projtile_lab::Workload`) against a **fresh** server (clean caches,
//!   clean histogram) for the whole budget; the value is wall time over
//!   total completed requests (inverse throughput), `iters` the request
//!   count, so the snapshot tracks cold-to-warm service behaviour under
//!   reproducible generated load;
//! * `service/mixed_traffic/{p50,p99}` — the server's own request-latency
//!   histogram after that run, as seconds (upper bucket edge; the
//!   histogram's buckets are powers of two of microseconds).
//!
//! Pre-warmed service load, timed from the caller's side, is the
//! `hot_service` workload of the repository benchmark (`benchmark/`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use projtile_core::engine::Query;
use projtile_lab::{GeneratorConfig, Pattern, Workload};
use projtile_loopnest::builders;
use projtile_service::{Client, FaultPlan, Server, ServerConfig};

use crate::perf::{time_workload, Measurement};

/// Measures the service group against in-process servers; `budget` is the
/// per-measurement time budget (the mixed-traffic run uses it once).
pub fn service_measurements(budget: Duration) -> Vec<Measurement> {
    let handle =
        Server::start(ServerConfig::default(), FaultPlan::default()).expect("bench server starts");
    let client = Client::new(handle.addr().to_string());
    let nest = builders::matmul(1 << 9, 1 << 9, 1 << 5);
    let queries = [Query::Tightness {
        cache_size: 1 << 10,
    }];

    // Warm the query so the round trip measures a read-path cache hit, not
    // a first-touch LP solve.
    let served = client.analyze(&nest, &queries).expect("warm-up served");
    assert!(served.iter().all(Result::is_ok), "warm-up query is valid");

    // Single-connection round-trip on the standard timing loop.
    let (secs, iters) = time_workload(
        &|| {
            std::hint::black_box(client.analyze(&nest, &queries).expect("served"));
        },
        budget,
        5,
    );
    eprintln!(
        "  {:<42} {:>12.3} µs/iter",
        "service/roundtrip/tightness_hit",
        secs * 1e6
    );
    handle.join();

    let mut out = vec![Measurement {
        name: "service/roundtrip/tightness_hit".to_string(),
        secs_per_iter: secs,
        iters,
    }];
    out.extend(generated_traffic_measurements(budget));
    out
}

/// Generated mixed traffic against a fresh server: four client threads
/// each replay deterministic seeded zipf workloads from the lab generator
/// (distinct per-thread, per-round seeds), so the request stream — and the
/// cold-to-warm hit-rate trajectory it induces — is identical run to run.
/// One HTTP `POST /analyze` per workload batch is the counted request.
fn generated_traffic_measurements(budget: Duration) -> Vec<Measurement> {
    let handle =
        Server::start(ServerConfig::default(), FaultPlan::default()).expect("bench server starts");
    let addr = handle.addr().to_string();

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let counts = projtile_par::fan_out(4, |worker| {
        let client = Client::new(addr.clone());
        let mut requests = 0u64;
        let mut round = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let config = GeneratorConfig {
                seed: 0xC0FFEE + worker as u64 + round * 101,
                pattern: Pattern::Zipf,
                batches: 8,
                batch_size: 4,
            };
            let stats = Workload::generate(&config)
                .drive_client(&client)
                .expect("generated load served");
            requests += stats.batches;
            round += 1;
            if worker == 0 && started.elapsed() >= budget {
                stop.store(true, Ordering::Relaxed);
            }
        }
        requests
    });
    let wall = started.elapsed().as_secs_f64();
    let total: u64 = counts.iter().sum();
    eprintln!(
        "  {:<42} {:>12.3} µs/iter ({} requests)",
        "service/mixed_traffic/secs_per_request",
        wall / total.max(1) as f64 * 1e6,
        total
    );
    let mut out = vec![Measurement {
        name: "service/mixed_traffic/secs_per_request".to_string(),
        secs_per_iter: wall / total.max(1) as f64,
        iters: total,
    }];

    let latency = &handle.metrics().request_latency;
    for (tag, q) in [("p50", 0.50), ("p99", 0.99)] {
        let micros = latency.quantile_micros(q).unwrap_or(0);
        eprintln!(
            "  {:<42} {:>12.3} µs/iter",
            format!("service/mixed_traffic/{tag}"),
            micros as f64
        );
        out.push(Measurement {
            name: format!("service/mixed_traffic/{tag}"),
            secs_per_iter: micros as f64 * 1e-6,
            iters: latency.count(),
        });
    }

    handle.join();
    out
}
