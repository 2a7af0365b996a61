//! `load_gen` — HTTP load generator for the `gdp serve` frontend.
//!
//! Drives a running server with a deterministic Zipf-skewed query mix
//! over `(level, group, variant)` — a few hot keys dominate, the tail
//! is long — which is what exercises the memo cache the way real
//! consumers do. The query universe is discovered from
//! `GET /v1/releases`, so the generator needs nothing out-of-band
//! beyond the address. `503` backpressure responses are retried with
//! bounded exponential backoff (honoring `Retry-After`); anything else
//! non-200 fails the run.
//!
//! Reports client-observed p50/p99 latency, sustained QPS, the 503
//! retry count, and the server-side memo-cache hit rate (from
//! `GET /stats`), and checks that every query variant round-tripped.
//! With `--merge-into BENCH_pipeline.json` the report becomes the
//! `serving_frontend` section of the tracked bench file;
//! `--assert-p99-under MS` / `--assert-qps-over QPS` turn floors into
//! exit codes for CI.
//!
//! ```text
//! load_gen --addr HOST:PORT [--requests N] [--concurrency N] [--seed N]
//!          [--zipf-exponent S] [--merge-into FILE]
//!          [--assert-p99-under MS] [--assert-qps-over QPS] [--shutdown]
//! ```

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use gdp_graph::Side;
use gdp_net::{client, AnswerRequest, ReleasesResponse, StatsSnapshot, VariantCounts};
use gdp_serve::{Query, SubsetQuery};

const TIMEOUT: Duration = Duration::from_secs(10);

struct Args {
    addr: String,
    requests: u64,
    concurrency: usize,
    seed: u64,
    zipf_exponent: f64,
    merge_into: Option<String>,
    assert_p99_under: Option<f64>,
    assert_qps_over: Option<f64>,
    shutdown: bool,
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        requests: 2_000,
        concurrency: 4,
        seed: 42,
        zipf_exponent: 1.1,
        merge_into: None,
        assert_p99_under: None,
        assert_qps_over: None,
        shutdown: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => out.addr = expect_str(iter.next(), "--addr"),
            "--requests" => out.requests = expect_num(iter.next(), "--requests"),
            "--concurrency" => out.concurrency = expect_num(iter.next(), "--concurrency"),
            "--seed" => out.seed = expect_num(iter.next(), "--seed"),
            "--zipf-exponent" => out.zipf_exponent = expect_num(iter.next(), "--zipf-exponent"),
            "--merge-into" => out.merge_into = Some(expect_str(iter.next(), "--merge-into")),
            "--assert-p99-under" => {
                out.assert_p99_under = Some(expect_num(iter.next(), "--assert-p99-under"));
            }
            "--assert-qps-over" => {
                out.assert_qps_over = Some(expect_num(iter.next(), "--assert-qps-over"));
            }
            "--shutdown" => out.shutdown = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: --addr HOST:PORT [--requests N] [--concurrency N] [--seed N] \
                     [--zipf-exponent S] [--merge-into FILE] [--assert-p99-under MS] \
                     [--assert-qps-over QPS] [--shutdown]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    if out.addr.is_empty() {
        eprintln!("--addr HOST:PORT is required");
        std::process::exit(2);
    }
    out
}

fn expect_str(value: Option<String>, flag: &str) -> String {
    match value {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs an argument");
            std::process::exit(2);
        }
    }
}

fn expect_num<T: std::str::FromStr>(value: Option<String>, flag: &str) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("{flag} needs a numeric argument");
            std::process::exit(2);
        }
    }
}

/// One addressable query in the universe.
#[derive(Clone)]
struct WorkItem {
    dataset: String,
    epoch: u64,
    level: usize,
    query: Query,
}

/// Enumerates every query the released artifacts can answer: side
/// totals, the left degree histogram, up to eight group masses per side
/// and level, and a few deterministic node subsets.
fn build_universe(releases: &ReleasesResponse, rng: &mut StdRng) -> Vec<WorkItem> {
    let mut universe = Vec::new();
    for info in &releases.releases {
        for level in 0..info.levels {
            let mut push = |query: Query| {
                universe.push(WorkItem {
                    dataset: info.dataset.clone(),
                    epoch: info.epoch,
                    level,
                    query,
                });
            };
            push(Query::SideTotal { side: Side::Left });
            push(Query::SideTotal { side: Side::Right });
            // Only the left degree histogram is part of the release.
            push(Query::DegreeHistogram { side: Side::Left });
            for group in 0..info.left_groups[level].min(8) {
                push(Query::GroupMass {
                    side: Side::Left,
                    group,
                });
            }
            for group in 0..info.right_groups[level].min(8) {
                push(Query::GroupMass {
                    side: Side::Right,
                    group,
                });
            }
            for size in [4u32, 16] {
                // Subsets must be duplicate-free or the service answers
                // 400; sample without replacement.
                let mut nodes = std::collections::BTreeSet::new();
                while (nodes.len() as u32) < size.min(info.left_nodes) {
                    nodes.insert(rng.gen_range(0..info.left_nodes));
                }
                push(Query::SubsetCount(SubsetQuery {
                    side: Side::Left,
                    nodes: nodes.into_iter().collect(),
                }));
            }
        }
    }
    // A deterministic shuffle decides which keys end up hot — the Zipf
    // ranks below are over this order.
    for i in (1..universe.len()).rev() {
        universe.swap(i, rng.gen_range(0..=i));
    }
    universe
}

/// Cumulative Zipf weights over ranks `0..n`: `w_k ∝ 1/(k+1)^s`.
fn zipf_cumulative(n: usize, exponent: f64) -> Vec<f64> {
    let mut cumulative = Vec::with_capacity(n);
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / ((k + 1) as f64).powf(exponent);
        cumulative.push(total);
    }
    cumulative
}

/// Samples a rank from the cumulative weight table.
fn sample_rank(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let total = cumulative.last().copied().unwrap_or(1.0);
    let u: f64 = rng.gen::<f64>() * total;
    cumulative.partition_point(|&c| c < u).min(cumulative.len() - 1)
}

/// Per-worker tally, merged after the run.
#[derive(Default)]
struct WorkerTally {
    latencies_us: Vec<u64>,
    retries_503: u64,
    failures: Vec<String>,
    variants: [u64; 4],
}

fn variant_slot(query: &Query) -> usize {
    match query {
        Query::SubsetCount(_) => 0,
        Query::GroupMass { .. } => 1,
        Query::DegreeHistogram { .. } => 2,
        Query::SideTotal { .. } => 3,
    }
}

/// Sends one request over a keep-alive connection, reconnecting once if
/// the server closed it (keep-alive cap, drain race), and riding out
/// 503 backpressure with bounded exponential backoff.
fn send_one(
    conn: &mut Option<client::ClientConn>,
    addr: SocketAddr,
    body: &str,
    seed: u64,
) -> Result<(u16, u32), String> {
    for attempt in 0..2 {
        if conn.is_none() {
            *conn = Some(
                client::ClientConn::connect(addr, TIMEOUT)
                    .map_err(|e| format!("connect: {e}"))?,
            );
        }
        let result = client::with_backoff(
            || {
                let live = conn.as_mut().ok_or(gdp_net::HttpError::Closed)?;
                live.send("POST", "/v1/answer", Some(body.as_bytes()))
            },
            8,
            Duration::from_millis(20),
            seed,
        );
        match result {
            Ok((response, retries)) => return Ok((response.status, retries)),
            Err(_) if attempt == 0 => *conn = None,
            Err(e) => return Err(format!("request failed after reconnect: {e:?}")),
        }
    }
    Err("unreachable: reconnect loop exhausted".to_string())
}

/// The `serving_frontend` section written into `BENCH_pipeline.json`.
#[derive(Debug, Serialize)]
struct ServingFrontendBench {
    requests: u64,
    concurrency: usize,
    seed: u64,
    zipf_exponent: f64,
    distinct_keys: usize,
    serve_p50_ms: f64,
    serve_p99_ms: f64,
    serve_qps: f64,
    retries_503: u64,
    cache_hit_rate: f64,
    served_per_variant: VariantCounts,
}

fn percentile_ms(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)] as f64 / 1_000.0
}

fn fetch_stats(addr: SocketAddr) -> Result<StatsSnapshot, String> {
    let response =
        client::get(addr, "/stats", TIMEOUT).map_err(|e| format!("GET /stats: {e:?}"))?;
    if response.status != 200 {
        return Err(format!("GET /stats answered {}", response.status));
    }
    serde_json::from_str(
        &String::from_utf8(response.body).map_err(|e| format!("/stats body: {e}"))?,
    )
    .map_err(|e| format!("/stats parse: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args();
    let addr: SocketAddr = args
        .addr
        .parse()
        .map_err(|e| format!("--addr {}: {e}", args.addr))?;

    // The server must be healthy before we aim load at it.
    let health = client::get(addr, "/health", TIMEOUT).map_err(|e| format!("GET /health: {e:?}"))?;
    if health.status != 200 {
        return Err(format!("GET /health answered {}", health.status));
    }

    let response = client::get(addr, "/v1/releases", TIMEOUT)
        .map_err(|e| format!("GET /v1/releases: {e:?}"))?;
    let releases: ReleasesResponse = serde_json::from_str(
        &String::from_utf8(response.body).map_err(|e| format!("releases body: {e}"))?,
    )
    .map_err(|e| format!("releases parse: {e}"))?;
    if releases.releases.is_empty() {
        return Err("the server holds no releases".to_string());
    }

    let mut rng = StdRng::seed_from_u64(args.seed);
    let universe = build_universe(&releases, &mut rng);
    let cumulative = zipf_cumulative(universe.len(), args.zipf_exponent);
    eprintln!(
        "driving {} requests × {} workers over {} distinct keys (zipf s={}, seed {})",
        args.requests, args.concurrency, universe.len(), args.zipf_exponent, args.seed
    );

    let before = fetch_stats(addr)?;
    let started = Instant::now();
    let concurrency = args.concurrency.max(1);
    let tallies: Vec<Mutex<WorkerTally>> =
        (0..concurrency).map(|_| Mutex::new(WorkerTally::default())).collect();
    std::thread::scope(|scope| {
        for (worker, tally) in tallies.iter().enumerate() {
            let universe = &universe;
            let cumulative = &cumulative;
            let requests = args.requests / concurrency as u64
                + u64::from((worker as u64) < args.requests % concurrency as u64);
            let seed = args.seed.wrapping_add(worker as u64).wrapping_mul(0x9e37_79b9);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut conn = None;
                let mut local = WorkerTally::default();
                for _ in 0..requests {
                    let item = &universe[sample_rank(cumulative, &mut rng)];
                    let body = match serde_json::to_string(&AnswerRequest {
                        dataset: item.dataset.clone(),
                        epoch: item.epoch,
                        privilege: 0,
                        level: item.level,
                        query: item.query.clone(),
                    }) {
                        Ok(body) => body,
                        Err(e) => {
                            local.failures.push(format!("serialize: {e}"));
                            continue;
                        }
                    };
                    let sent = Instant::now();
                    match send_one(&mut conn, addr, &body, seed) {
                        Ok((200, retries)) => {
                            local.latencies_us.push(sent.elapsed().as_micros() as u64);
                            local.retries_503 += retries as u64;
                            local.variants[variant_slot(&item.query)] += 1;
                        }
                        Ok((status, _)) => {
                            local.failures.push(format!("{} answered {status}", item.query.name()));
                        }
                        Err(e) => local.failures.push(e),
                    }
                }
                *tally.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = local;
            });
        }
    });
    let wall = started.elapsed();

    let mut latencies_us = Vec::new();
    let mut retries_503 = 0;
    let mut failures = Vec::new();
    let mut variants = [0u64; 4];
    for tally in &tallies {
        let tally = tally.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        latencies_us.extend_from_slice(&tally.latencies_us);
        retries_503 += tally.retries_503;
        failures.extend(tally.failures.iter().cloned());
        for (slot, count) in variants.iter_mut().zip(tally.variants) {
            *slot += count;
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} requests failed; first: {}",
            failures.len(),
            args.requests,
            failures[0]
        ));
    }
    if variants.contains(&0) {
        return Err(format!(
            "not every query variant round-tripped: {variants:?} \
             (subset_count, group_mass, degree_histogram, side_total)"
        ));
    }

    let after = fetch_stats(addr)?;
    let hits = after.cache.hits - before.cache.hits;
    let misses = after.cache.misses - before.cache.misses;
    let lookups = hits + misses;
    let hit_rate = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };

    latencies_us.sort_unstable();
    let section = ServingFrontendBench {
        requests: args.requests,
        concurrency,
        seed: args.seed,
        zipf_exponent: args.zipf_exponent,
        distinct_keys: universe.len(),
        serve_p50_ms: percentile_ms(&latencies_us, 0.50),
        serve_p99_ms: percentile_ms(&latencies_us, 0.99),
        serve_qps: args.requests as f64 / wall.as_secs_f64(),
        retries_503,
        cache_hit_rate: hit_rate,
        served_per_variant: VariantCounts {
            subset_count: variants[0],
            group_mass: variants[1],
            degree_histogram: variants[2],
            side_total: variants[3],
        },
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&section).map_err(|e| e.to_string())?
    );

    if let Some(path) = &args.merge_into {
        let entry = ("serving_frontend".to_string(), section.to_value());
        gdp_bench::merge_sections(path, serde::Value::Map(vec![entry]))?;
        eprintln!("merged serving_frontend into {path}");
    }

    if args.shutdown {
        let response = client::post_json(addr, "/shutdown", "", TIMEOUT)
            .map_err(|e| format!("POST /shutdown: {e:?}"))?;
        if response.status != 200 {
            return Err(format!("POST /shutdown answered {}", response.status));
        }
        // The drain is done once the listener is gone.
        let deadline = Instant::now() + Duration::from_secs(30);
        while client::get(addr, "/health", Duration::from_millis(250)).is_ok() {
            if Instant::now() > deadline {
                return Err("server kept accepting 30s after /shutdown".to_string());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        eprintln!("server drained and stopped accepting");
    }

    let mut violations = Vec::new();
    if let Some(ceiling) = args.assert_p99_under {
        if section.serve_p99_ms > ceiling {
            violations.push(format!(
                "p99 {:.3}ms exceeds the {ceiling}ms ceiling",
                section.serve_p99_ms
            ));
        }
    }
    if let Some(floor) = args.assert_qps_over {
        if section.serve_qps < floor {
            violations.push(format!(
                "throughput {:.0} qps is below the {floor} qps floor",
                section.serve_qps
            ));
        }
    }
    if !violations.is_empty() {
        return Err(violations.join("; "));
    }
    Ok(())
}

fn main() {
    if let Err(message) = run() {
        eprintln!("load_gen: {message}");
        std::process::exit(1);
    }
}
