//! Trace-driven cache policy lab for the projtile analysis service.
//!
//! The service's memo caches (`projtile_cachesim::BoundedLru` behind the
//! sharded `SharedEngine` front) retain whatever a cost budget allows under
//! exact LRU. Whether those budgets — and that policy — are *right* for real
//! traffic is an empirical question. This crate answers it with the classic
//! systems workflow:
//!
//! 1. **Record** ([`projtile_core::engine::TraceRecorder`], wired by
//!    `projtile-serve --trace-capacity`): the live front appends one compact
//!    hashed event per query — shard routing key, cache-canonical identity,
//!    install costs, and how the front resolved it.
//! 2. **Replay** ([`replay`]): the drained
//!    [`projtile_core::engine::TraceDocument`] is pushed through simulated
//!    cache hierarchies. Exact LRU is the live `BoundedLru` itself, keyed by
//!    trace hashes — replaying a cold-start trace at the recorded budgets
//!    reproduces the live hit/miss accounting **event for event**
//!    ([`replay::check_live`], the keystone differential pinned by this
//!    crate's tests and the repository's CI smoke stage). Candidate policies
//!    (TTL, cost-aware admission, segmented 2Q; thin rules over the same
//!    map, see [`policy`]) then answer "what would the hit rate have been?"
//!    counterfactually.
//! 3. **Generate** ([`generate`]): a deterministic seeded workload generator
//!    (zipf / hotspot / mixed patterns over the paper's nest corpus) drives
//!    either an in-process front or a live server through the service
//!    client, so policy experiments and service benchmarks never depend on
//!    production traffic being available.
//! 4. **Report** ([`report`]): policy comparison and LRU budget-sweep tables
//!    with a concrete policy/budget recommendation.
//!
//! The `projtile-lab` binary packages the workflow as `drive` / `drain` /
//! `replay` / `generate` subcommands; see `docs/tracing.md` for the
//! end-to-end operational recipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod policy;
pub mod replay;
pub mod report;

pub use generate::{DriveStats, GeneratorConfig, Pattern, Workload};
pub use policy::{PolicyCache, PolicyKind};
pub use replay::{check_live, replay_document, Budgets, EventClass, ReplayError, ReplayReport};
pub use report::{budget_sweep, compare_policies, render_report, LabReport};
