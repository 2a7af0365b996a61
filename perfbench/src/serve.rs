//! The analyst path: `gdp serve` over a store of published epochs,
//! driven by an open-loop generator at a few fixed rates.
//!
//! Requests come from independent analysts, so arrivals follow a seeded
//! Poisson schedule that does not wait for replies. Each request is
//! timed from when it was due, so a stall also delays the requests
//! queued behind it. A `503`, a `504`, a transport error (except the
//! one at the server's per-connection cap, see [`drive`]) or a wrong
//! answer counts as failed and is not retried. Every answer is checked
//! bit for bit against `IndexedRelease::answer` on the same artifact,
//! loaded inside the benchmark.

use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gdp_core::Privilege;
use gdp_datagen::zipf::ZipfSampler;
use gdp_graph::Side;
use gdp_net::client::{self, ClientConn};
use gdp_net::{
    AnswerRequest, AnswerResponse, BatchAnswerRequest, BatchAnswerResponse, StatsSnapshot,
    WireAnswer,
};
use gdp_net::{HttpError, ServerConfig};
use gdp_serve::{AnswerService, IndexedRelease, Query, ReleaseStore, SubsetQuery, TypedAnswer};

use crate::inputs;
use crate::publish::{self, DATASET};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Outcome};

/// One serving workload's traffic.
pub struct Shape {
    pub name: &'static str,
    /// The fixed open-loop rates, requests per second; the middle one
    /// is the reference rate.
    pub rates: [f64; 3],
    /// The p99 latency limit, milliseconds.
    pub limit_ms: f64,
    /// How late the generator may run (p99) before the run is invalid.
    pub late_limit_ms: f64,
    pub batch: bool,
}

pub const HOT: Shape = Shape {
    name: "serve_hot",
    rates: [1000.0, 2000.0, 4000.0],
    limit_ms: 25.0,
    late_limit_ms: 6.0,
    batch: false,
};

pub const COLD: Shape = Shape {
    name: "serve_cold_batch",
    rates: [50.0, 100.0, 200.0],
    limit_ms: 100.0,
    late_limit_ms: 25.0,
    batch: true,
};

/// Queries per `serve_cold_batch` request and their subset sizes.
const BATCH: usize = 16;
const COLD_NODES: std::ops::RangeInclusive<usize> = 256..=1024;
/// `serve_hot` keys per (epoch, level): two side totals, the left
/// histogram, a left and a right group mass, one subset of <= 16 nodes.
const HOT_SUBSET_MAX: usize = 16;
const HOT_ZIPF: f64 = 1.1;
const TIMEOUT: Duration = Duration::from_secs(10);
const SETUPS: usize = 3;
/// Chains, and base publishes in all, timed on an untraced run: the
/// store chain and base publishes up to half of them before serving,
/// the other chains and base publishes after it, so the samples span
/// the run.
const FIXTURE_CHAINS: usize = 2;
const FIXTURE_PUBLISHES: usize = 9;
const CONNECTIONS: usize = 2;
/// Interleaved rounds of the rate ladder; figures are medians over them.
const ROUNDS: usize = 5;
/// For `max_rate_at_slo` the ladder goes on past the fixed rates: the
/// top rate doubled, up to this many times, stopping at the first rung
/// that misses the limit.
const PROBE_RUNGS: usize = 4;
/// The share of `--seconds` the probe rungs may take together.
const PROBE_SHARE: f64 = 0.15;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One request: where it goes and what it asks.
struct Plan {
    epoch: u64,
    level: usize,
    privilege: usize,
    queries: Vec<Query>,
}

impl Plan {
    fn body(&self, batch: bool) -> Vec<u8> {
        let json = if batch {
            serde_json::to_string(&BatchAnswerRequest {
                dataset: DATASET.to_string(),
                epoch: self.epoch,
                privilege: self.privilege,
                level: self.level,
                queries: self.queries.clone(),
            })
        } else {
            serde_json::to_string(&AnswerRequest {
                dataset: DATASET.to_string(),
                epoch: self.epoch,
                privilege: self.privilege,
                level: self.level,
                query: self.queries[0].clone(),
            })
        };
        json.expect("request bodies serialize").into_bytes()
    }
}

/// What the plans need to know about the store: epochs, levels and the
/// group and node counts of each side.
struct Layout {
    epochs: Vec<u64>,
    /// Per level: (left groups, right groups).
    groups: Vec<(u32, u32)>,
    nodes: (u32, u32),
}

fn layout(store: &ReleaseStore) -> Result<Layout, String> {
    let epochs = store.epochs(DATASET);
    let first = store.get(DATASET, epochs[0]).map_err(err)?;
    let h = first.artifact().hierarchy();
    let groups = h
        .levels()
        .iter()
        .map(|l| (l.left().block_count(), l.right().block_count()))
        .collect();
    let finest = h.finest();
    Ok(Layout {
        epochs,
        groups,
        nodes: (finest.left().node_count(), finest.right().node_count()),
    })
}

fn pick_side(rng: &mut StdRng) -> Side {
    if rng.gen_bool(0.5) {
        Side::Left
    } else {
        Side::Right
    }
}

/// `k` distinct node ids below `n`.
fn subset(rng: &mut StdRng, n: u32, k: usize) -> Vec<u32> {
    let mut seen = std::collections::HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.gen_range(0..n);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// The `serve_hot` key universe, in a seeded random rank order.
fn hot_universe(layout: &Layout, rng: &mut StdRng) -> Vec<Plan> {
    let mut plans = Vec::new();
    for &epoch in &layout.epochs {
        for (level, &(lg, rg)) in layout.groups.iter().enumerate() {
            let side = pick_side(rng);
            let n = match side {
                Side::Left => layout.nodes.0,
                Side::Right => layout.nodes.1,
            };
            let k = rng.gen_range(1..=HOT_SUBSET_MAX);
            let queries = [
                Query::SideTotal { side: Side::Left },
                Query::SideTotal { side: Side::Right },
                Query::DegreeHistogram { side: Side::Left },
                Query::GroupMass {
                    side: Side::Left,
                    group: rng.gen_range(0..lg),
                },
                Query::GroupMass {
                    side: Side::Right,
                    group: rng.gen_range(0..rg),
                },
                Query::SubsetCount(SubsetQuery {
                    side,
                    nodes: subset(rng, n, k),
                }),
            ];
            for q in queries {
                plans.push(Plan {
                    epoch,
                    level,
                    privilege: rng.gen_range(0..=level),
                    queries: vec![q],
                });
            }
        }
    }
    // Fisher-Yates, so Zipf rank is unrelated to epoch and level.
    for i in (1..plans.len()).rev() {
        plans.swap(i, rng.gen_range(0..=i));
    }
    plans
}

/// One fresh `serve_cold_batch` request.
fn cold_plan(layout: &Layout, rng: &mut StdRng) -> Plan {
    let epoch = layout.epochs[rng.gen_range(0..layout.epochs.len())];
    let level = rng.gen_range(0..layout.groups.len());
    let queries = (0..BATCH)
        .map(|_| {
            let side = pick_side(rng);
            let n = match side {
                Side::Left => layout.nodes.0,
                Side::Right => layout.nodes.1,
            };
            let k = rng.gen_range(COLD_NODES);
            Query::SubsetCount(SubsetQuery {
                side,
                nodes: subset(rng, n, k),
            })
        })
        .collect();
    Plan {
        epoch,
        level,
        privilege: rng.gen_range(0..=level),
        queries,
    }
}

// ---------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `gdp serve` with default settings on the store and waits
    /// until it listens.
    fn spawn(gdp: &Path, store: &Path, work: &Path, k: usize) -> Result<Self, String> {
        let port_file = work.join(format!("serve-{k}.addr"));
        let _ = std::fs::remove_file(&port_file);
        let log = std::fs::File::create(work.join(format!("serve-{k}.log"))).map_err(err)?;
        let mut child = Command::new(gdp)
            .arg("serve")
            .args(["--artifact-dir", &store.display().to_string()])
            .args(["--addr", "127.0.0.1:0"])
            .args(["--port-file", &port_file.display().to_string()])
            .env_remove("RAYON_NUM_THREADS")
            .stdin(Stdio::null())
            .stdout(log.try_clone().map_err(err)?)
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gdp.display()))?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse() {
                    break addr;
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("gdp serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err("gdp serve did not start within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        Ok(Self { child, addr })
    }

    fn stats(&self) -> Result<StatsSnapshot, String> {
        let resp = client::get(self.addr, "/stats", TIMEOUT).map_err(err)?;
        serde_json::from_str(&resp.text()).map_err(err)
    }

    /// Graceful shutdown; kills the process if it does not drain.
    fn stop(mut self) -> Result<(), String> {
        let _ = client::request(self.addr, "POST", "/shutdown", None, TIMEOUT);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().map_err(err)? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("gdp serve exited with {status}")),
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("gdp serve did not drain within 30 s".into());
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only reached on an error path: never leave the server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// The load generator
// ---------------------------------------------------------------------

/// One sent request as the generator saw it.
struct Sent {
    plan: usize,
    due: Instant,
    sent: Instant,
    done: Instant,
    /// How late the generator itself was: the send came after both the
    /// due time and the connection being free by this much.
    late_ms: f64,
    status: u16,
    body: Vec<u8>,
    request_bytes: usize,
    /// Resent after the server closed a kept-alive connection unasked.
    resent: bool,
}

/// Sends `schedule` (due offset in seconds, plan index) open-loop over
/// [`CONNECTIONS`] keep-alive connections, one thread each; request
/// `i` goes to connection `i % CONNECTIONS`.
fn drive(addr: SocketAddr, path: &str, bodies: &[Vec<u8>], schedule: &[(f64, usize)]) -> Vec<Sent> {
    // `gdp serve` closes a keep-alive connection once it has carried
    // this many requests, without saying so on the last response.
    let cap = ServerConfig::default().max_requests_per_connection as u64;
    let start = Instant::now() + Duration::from_millis(20);
    let mut out: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn: Option<ClientConn> = None;
                    // Requests answered on `conn`.
                    let mut carried = 0u64;
                    let mut free = start;
                    let mut sent = Vec::new();
                    for &(offset, plan) in schedule.iter().skip(c).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(offset);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let at = Instant::now();
                        let ready = due.max(free);
                        let late_ms = at.saturating_duration_since(ready).as_secs_f64() * 1e3;
                        let body = &bodies[plan];
                        let connect =
                            || ClientConn::connect(addr, TIMEOUT).map_err(HttpError::from);
                        let mut resent = false;
                        let result = match conn.as_mut() {
                            Some(c) => match c.send("POST", path, Some(body)) {
                                // The connection was closed at the
                                // server's cap, before this request was
                                // read: resend it once on a new
                                // connection, still timed from the due
                                // time, and count it. A transport error
                                // anywhere else fails the request.
                                Err(HttpError::Closed | HttpError::Io(_)) if carried == cap => {
                                    resent = true;
                                    carried = 0;
                                    conn = None;
                                    connect()
                                        .and_then(|c| conn.insert(c).send("POST", path, Some(body)))
                                }
                                other => other,
                            },
                            None => {
                                carried = 0;
                                connect()
                                    .and_then(|c| conn.insert(c).send("POST", path, Some(body)))
                            }
                        };
                        let done = Instant::now();
                        free = done;
                        let (status, body_out) = match result {
                            Ok(resp) => {
                                carried += 1;
                                if resp
                                    .header("connection")
                                    .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                                {
                                    conn = None;
                                }
                                (resp.status, resp.body)
                            }
                            Err(_) => {
                                conn = None;
                                (0, Vec::new())
                            }
                        };
                        sent.push(Sent {
                            plan,
                            due,
                            sent: at,
                            done,
                            late_ms,
                            status,
                            body: body_out,
                            request_bytes: body.len(),
                            resent,
                        });
                    }
                    sent
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    out.sort_by_key(|s| s.sent);
    out
}

/// A seeded Poisson arrival schedule at `rate` for `seconds`.
fn poisson(rate: f64, seconds: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

// ---------------------------------------------------------------------
// Output checks and replay
// ---------------------------------------------------------------------

fn same(served: &WireAnswer, want: &TypedAnswer) -> bool {
    match (served, want) {
        (WireAnswer::Scalar(a), TypedAnswer::Scalar(b)) => a.to_bits() == b.to_bits(),
        (WireAnswer::Histogram(a), TypedAnswer::Histogram(b)) => {
            a.len() == b.len()
                && a.iter()
                    .zip(b.iter())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// The kernel's answers for one plan, straight from the index.
fn kernel_answers(
    indexed: &IndexedRelease,
    plan: &Plan,
    batch: bool,
) -> Result<Vec<TypedAnswer>, String> {
    if batch {
        indexed.answer_batch(plan.level, &plan.queries).map_err(err)
    } else {
        indexed
            .answer(plan.level, &plan.queries[0])
            .map(|a| vec![a])
            .map_err(err)
    }
}

/// Whether a `200` body carries exactly the kernel's answers.
fn answer_ok(body: &[u8], want: &[TypedAnswer], batch: bool) -> bool {
    let text = String::from_utf8_lossy(body);
    if batch {
        match serde_json::from_str::<BatchAnswerResponse>(&text) {
            Ok(r) => {
                r.answers.len() == want.len() && r.answers.iter().zip(want).all(|(a, b)| same(a, b))
            }
            Err(_) => false,
        }
    } else {
        match serde_json::from_str::<AnswerResponse>(&text) {
            Ok(r) => want.len() == 1 && same(&r.answer, &want[0]),
            Err(_) => false,
        }
    }
}

/// One segment's results: one rate for one round.
struct Phase {
    rate: f64,
    traced: bool,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    resent: u64,
    /// The last fifth of the segment waited past the limit at its
    /// median: the queue was still growing.
    backlog: bool,
    hits: u64,
    misses: u64,
    /// CPU time `gdp serve` used during the segment, ms.
    server_cpu_ms: f64,
}

/// One rate over all its rounds: the latency figures are medians of
/// the per-round percentiles.
struct Rate {
    rate: f64,
    p50: f64,
    p90: f64,
    p99: f64,
    p99_pooled: f64,
    latency_ms: Vec<f64>,
    late_p99: f64,
    attempted: u64,
    failed: u64,
    refused: u64,
    resent: u64,
    backlog: bool,
    hit_rate: f64,
    /// Server CPU time per request, ms.
    cpu_ms_per_request: f64,
}

impl Rate {
    fn of<'a>(phases: impl Iterator<Item = &'a Phase>) -> Self {
        let phases: Vec<&Phase> = phases.collect();
        let per_round = |q: f64| {
            median(
                &phases
                    .iter()
                    .map(|p| percentile(&p.latency_ms, q))
                    .collect::<Vec<_>>(),
            )
        };
        let latency_ms: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.latency_ms.iter().copied())
            .collect();
        let late: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.late_ms.iter().copied())
            .collect();
        let sum = |f: fn(&Phase) -> u64| phases.iter().map(|p| f(p)).sum::<u64>();
        let (hits, misses) = (sum(|p| p.hits), sum(|p| p.misses));
        Self {
            rate: phases.first().map_or(0.0, |p| p.rate),
            p50: per_round(0.50),
            p90: per_round(0.90),
            p99: per_round(0.99),
            p99_pooled: percentile(&latency_ms, 0.99),
            late_p99: percentile(&late, 0.99),
            attempted: sum(|p| p.attempted),
            failed: sum(|p| p.failed),
            refused: sum(|p| p.refused),
            resent: sum(|p| p.resent),
            backlog: phases.iter().any(|p| p.backlog),
            hit_rate: hits as f64 / (hits + misses).max(1) as f64,
            cpu_ms_per_request: phases.iter().map(|p| p.server_cpu_ms).sum::<f64>()
                / sum(|p| p.attempted).max(1) as f64,
            latency_ms,
        }
    }
}

/// Checks every answer of a segment; failed requests read as
/// infinitely slow, so they miss any latency limit. A wrong answer is
/// always a problem of the run; a refused or timed-out request is one
/// only below `overload` (on a probe rung it only fails the rung).
fn judge(
    rate: f64,
    sent: &[Sent],
    plans: &[Plan],
    store: &ReleaseStore,
    shape: &Shape,
    overload: bool,
    problems: &mut Vec<String>,
) -> Result<Phase, String> {
    let mut latency_ms = Vec::with_capacity(sent.len());
    let mut failed = 0;
    let mut refused = 0;
    for s in sent {
        let plan = &plans[s.plan];
        let ok = s.status == 200 && {
            let indexed = store.get(DATASET, plan.epoch).map_err(err)?;
            let want = kernel_answers(&indexed, plan, shape.batch)?;
            let ok = answer_ok(&s.body, &want, shape.batch);
            if !ok && problems.len() < 5 {
                problems.push(format!("{}: wrong answer for plan {}", shape.name, s.plan));
            }
            ok
        };
        if s.status == 503 || s.status == 504 {
            refused += 1;
        }
        if ok {
            latency_ms.push(s.done.duration_since(s.due).as_secs_f64() * 1e3);
        } else {
            failed += 1;
            latency_ms.push(f64::INFINITY);
            if s.status != 200 && !overload && problems.len() < 5 {
                problems.push(format!("{}: status {} at {rate}/s", shape.name, s.status));
            }
        }
    }
    let tail = &latency_ms[latency_ms.len() - latency_ms.len() / 5..];
    let backlog = !tail.is_empty() && median(tail) > shape.limit_ms;
    Ok(Phase {
        rate,
        traced: false,
        late_ms: sent.iter().map(|s| s.late_ms).collect(),
        attempted: sent.len() as u64,
        failed,
        refused,
        resent: sent.iter().filter(|s| s.resent).count() as u64,
        backlog,
        latency_ms,
        hits: 0,
        misses: 0,
        server_cpu_ms: 0.0,
    })
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// The request stream of one run: every plan drawn so far, their
/// bodies, and the seeded generator that draws the next segment.
struct Traffic<'a> {
    shape: &'a Shape,
    layout: &'a Layout,
    zipf: ZipfSampler,
    rng: StdRng,
    plans: Vec<Plan>,
    bodies: Vec<Vec<u8>>,
}

impl Traffic<'_> {
    /// Sends one segment at `rate` for `seconds` and checks it.
    fn segment(
        &mut self,
        server: &Server,
        store: &ReleaseStore,
        rate: f64,
        seconds: f64,
        overload: bool,
        problems: &mut Vec<String>,
    ) -> Result<(Phase, Vec<Sent>), String> {
        let times = poisson(rate, seconds, &mut self.rng);
        let first = self.plans.len();
        let schedule: Vec<(f64, usize)> = times
            .iter()
            .map(|&t| {
                let plan = if self.shape.batch {
                    self.plans.push(cold_plan(self.layout, &mut self.rng));
                    self.plans.len() - 1
                } else {
                    self.zipf.sample(&mut self.rng) as usize - 1
                };
                (t, plan)
            })
            .collect();
        self.bodies
            .extend(self.plans[first..].iter().map(|p| p.body(true)));
        let path = if self.shape.batch {
            "/v1/answer_batch"
        } else {
            "/v1/answer"
        };
        let before = server.stats()?;
        let cpu = publish::cpu_ms(Some(server.child.id()));
        let sent = drive(server.addr, path, &self.bodies, &schedule);
        let cpu = publish::cpu_ms(Some(server.child.id())) - cpu;
        let after = server.stats()?;
        let mut phase = judge(
            rate,
            &sent,
            &self.plans,
            store,
            self.shape,
            overload,
            problems,
        )?;
        phase.server_cpu_ms = cpu;
        phase.hits = after.cache.hits - before.cache.hits;
        phase.misses = after.cache.misses - before.cache.misses;
        // Cold bodies are large and never sent again.
        for body in &mut self.bodies[first..] {
            *body = Vec::new();
        }
        Ok((phase, sent))
    }
}

/// Whether a rung meets the workload's limit: p99 within it, no
/// growing backlog.
fn meets(shape: &Shape, p99: f64, backlog: bool) -> bool {
    p99 <= shape.limit_ms && !backlog
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome, shape: &Shape) -> Result<(), String> {
    // Fixture: the publish_chain pipeline through `DisclosureSession`
    // with the same seed. Not part of set-up time; its base publishes
    // and epochs are timed as on publish_chain. Publish `k` goes to the
    // store when 0, else to a scratch directory; it is a whole chain
    // when 0 or among the first chains after serving, else a base
    // publish. Traced runs print no end-to-end metric, so they publish
    // only the store.
    let fixture = ctx.work.join("inputs");
    let store_dir = ctx.work.join("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let inputs = inputs::generate(
        &fixture,
        ctx.seed,
        inputs::CHAIN_DELTAS,
        &mut Tracer::new(false),
    )
    .map_err(err)?;
    let base_only = inputs::Inputs {
        deltas: Vec::new(),
        edges: inputs.edges.clone(),
        edge_count: inputs.edge_count,
    };
    let before = if ctx.trace { 1 } else { FIXTURE_PUBLISHES / 2 };
    let (mut publish_ms, mut publish_cpu_ms, mut epoch_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed_publish = |k: usize| -> Result<(), String> {
        let chain = k == 0 || (before..before + FIXTURE_CHAINS - 1).contains(&k);
        let dir = match k {
            0 => store_dir.clone(),
            _ => ctx.work.join(format!("chain-{k}")),
        };
        let chain_inputs = if chain { &inputs } else { &base_only };
        let times =
            publish::session_chain(chain_inputs, &dir, &mut StdRng::seed_from_u64(ctx.seed))?;
        publish_ms.push(times.publish_ms);
        publish_cpu_ms.push(times.publish_cpu_ms);
        epoch_ms.extend(times.epoch_ms);
        if k > 0 {
            std::fs::remove_dir_all(&dir).map_err(err)?;
        }
        Ok(())
    };
    for k in 0..before {
        timed_publish(k)?;
    }
    let (store, sizes) = publish::verify_chain(&store_dir, inputs::CHAIN_DELTAS, tr)?;
    let layout = layout(&store)?;

    // Plans. serve_hot draws Zipf ranks over a fixed universe;
    // serve_cold_batch draws a fresh plan per request.
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x005E_ED0F_5E7E);
    let mut plans: Vec<Plan> = if shape.batch {
        Vec::new()
    } else {
        hot_universe(&layout, &mut rng)
    };
    let zipf = ZipfSampler::new(plans.len().max(1) as u64, HOT_ZIPF).expect("valid Zipf");
    out.record_num("levels", layout.groups.len() as f64);
    out.record_num("epochs", layout.epochs.len() as f64);
    out.record_num("hot_keys", plans.len() as f64);
    let warm: Vec<usize> = (0..layout.epochs.len())
        .map(|i| {
            plans.push(Plan {
                epoch: layout.epochs[i],
                level: 0,
                privilege: 0,
                queries: vec![Query::SideTotal { side: Side::Left }],
            });
            plans.len() - 1
        })
        .collect();

    // Set-up: spawn until every release is indexed and the server
    // answers, several times; the last server carries the load.
    let mut setup_s = Vec::new();
    let mut server = None;
    let warm_bodies: Vec<Vec<u8>> = warm.iter().map(|&i| plans[i].body(false)).collect();
    let warm_schedule: Vec<(f64, usize)> = (0..warm.len()).map(|i| (0.0, i)).collect();
    let mut warm_sent = Vec::new();
    for k in 0..SETUPS {
        let t = Instant::now();
        let s = Server::spawn(&ctx.gdp, &store_dir, &ctx.work, k)?;
        let sent = drive(s.addr, "/v1/answer", &warm_bodies, &warm_schedule);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(bad) = sent.iter().find(|x| x.status != 200) {
            return Err(format!("warm-up request failed with status {}", bad.status));
        }
        if let Some(prev) = server.replace(s) {
            prev.stop()?;
        }
        warm_sent = sent;
    }
    let server = server.expect("at least one set-up");

    // The rates run in interleaved rounds (low, reference, high, low,
    // ...) and each figure is the median over rounds, so a stall of the
    // host during one round moves one sample, not the figure. The
    // reference rate gets twice the time. Traced, each round runs the
    // reference rate untraced then traced, for the overhead. Untraced,
    // the probe rungs get PROBE_SHARE of the time after the rounds.
    let reference = shape.rates[1];
    let mut segments: Vec<(f64, bool, f64)> = Vec::new();
    for _ in 0..ROUNDS {
        if ctx.trace {
            segments.push((reference, false, 1.0));
            segments.push((reference, true, 1.0));
        } else {
            for &r in &shape.rates {
                segments.push((r, false, if r == reference { 2.0 } else { 1.0 }));
            }
        }
    }
    let weights: f64 = segments.iter().map(|s| s.2).sum();
    let rounds_seconds = if ctx.trace {
        ctx.seconds
    } else {
        ctx.seconds * (1.0 - PROBE_SHARE)
    };
    let mut results = Vec::new();
    let mut log: Vec<(bool, Sent)> = warm_sent
        .into_iter()
        .map(|mut s| {
            s.plan = warm[s.plan];
            (false, s)
        })
        .collect();
    let mut request_bytes = Vec::new();
    let before_all = server.stats()?;
    let mut traffic = Traffic {
        shape,
        layout: &layout,
        zipf,
        rng,
        bodies: plans.iter().map(|p| p.body(false)).collect(),
        plans,
    };
    for &(rate, traced, weight) in &segments {
        let seconds = rounds_seconds * weight / weights;
        let (mut phase, sent) =
            traffic.segment(&server, &store, rate, seconds, false, &mut out.problems)?;
        phase.traced = traced;
        if traced {
            request_bytes.extend(sent.iter().map(|s| s.request_bytes as f64));
        }
        log.extend(sent.into_iter().map(|s| (traced, s)));
        results.push(phase);
    }
    let after_all = server.stats()?;
    let rss = publish::vm_hwm_mb(Some(server.child.id()));

    for p in &results {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    let late: Vec<f64> = results
        .iter()
        .flat_map(|p| p.late_ms.iter().copied())
        .collect();
    let late_p99 = percentile(&late, 0.99);
    if late_p99 > shape.late_limit_ms {
        out.problems.push(format!(
            "generator ran late: p99 {late_p99:.3} ms over the {} ms bound; run invalid",
            shape.late_limit_ms
        ));
    }
    out.record_num("loadgen_late_ms_p99", late_p99);
    out.record_num(
        "loadgen_late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
    );

    let by_rate = |rate: f64, traced: bool| {
        Rate::of(
            results
                .iter()
                .filter(|p| p.rate == rate && p.traced == traced),
        )
    };
    let rates: Vec<Rate> = if ctx.trace {
        vec![by_rate(reference, false)]
    } else {
        shape.rates.iter().map(|&r| by_rate(r, false)).collect()
    };
    let refp = &rates[if ctx.trace { 0 } else { 1 }];
    let mut max_rate = rates
        .iter()
        .filter(|r| meets(shape, r.p99, r.backlog))
        .map(|r| r.rate)
        .fold(0.0, f64::max);

    // The probe rungs: double the top rate while the last rung met the
    // limit. A rung also stops the ladder when it fails a request or the
    // generator runs late past its bound, since then the rate measured
    // is not the server's. Probe requests are checked like the rest but
    // kept out of `attempted`/`failed`: overload is what they look for.
    if !ctx.trace && max_rate == shape.rates[2] {
        let seconds = ctx.seconds * PROBE_SHARE / PROBE_RUNGS as f64;
        let mut rate = shape.rates[2];
        for _ in 0..PROBE_RUNGS {
            rate *= 2.0;
            let (phase, _) =
                traffic.segment(&server, &store, rate, seconds, true, &mut out.problems)?;
            let p99 = percentile(&phase.latency_ms, 0.99);
            let late = percentile(&phase.late_ms, 0.99);
            let tag = format!("probe_{rate}");
            out.report(Metric::new(&format!("{tag}.p99_ms"), p99, "ms"));
            out.report(Metric::new(
                &format!("{tag}.backlog"),
                phase.backlog as u8 as f64,
                "bool",
            ));
            out.report(Metric::new(
                &format!("{tag}.failed"),
                phase.failed as f64,
                "count",
            ));
            out.report(Metric::new(&format!("{tag}.late_ms_p99"), late, "ms"));
            if !meets(shape, p99, phase.backlog) || phase.failed > 0 || late > shape.late_limit_ms {
                break;
            }
            max_rate = rate;
        }
    }
    server.stop()?;
    if !ctx.trace {
        for k in before..FIXTURE_PUBLISHES {
            timed_publish(k)?;
        }
    }
    let _ = std::fs::remove_dir_all(&fixture);
    let artifact_mb = median(&sizes.iter().map(|&b| b as f64 / 1e6).collect::<Vec<_>>());

    if !ctx.trace {
        out.e2e(Metric::new("setup_s", median(&setup_s), "s"));
        out.e2e(Metric::new("publish_cpu_ms", mean(&publish_cpu_ms), "ms"));
        out.e2e(Metric::new("epoch_ms_p50", median(&epoch_ms), "ms"));
        // Pooled over every rate: the more requests, the less the 10 ms
        // tick and a noisy round weigh.
        let all = Rate::of(results.iter());
        out.e2e(Metric::new("cpu_ms_per_op", all.cpu_ms_per_request, "ms"));
        out.e2e(Metric::new("artifact_mb", artifact_mb, "MB"));
        out.report(Metric::new("publish_ms_p50", median(&publish_ms), "ms"));
    }
    out.report(Metric::new("answer_p50_ms", refp.p50, "ms"));
    out.report(Metric::new("answer_p90_ms", refp.p90, "ms"));
    out.report(Metric::new("answer_p99_ms", refp.p99, "ms"));
    if !ctx.trace {
        out.report(Metric::new("max_rate_at_slo", max_rate, "1/s"));
    }
    out.report(Metric::new("peak_rss_mb", rss, "MB"));
    out.layer(Metric::new("mem.peak_rss_mb", rss, "MB"));
    for r in &rates {
        let tag = format!("rate_{}", r.rate);
        let figures = [
            ("p50_ms", r.p50, "ms"),
            ("p90_ms", r.p90, "ms"),
            ("p99_ms", r.p99, "ms"),
            ("p99_pooled_ms", r.p99_pooled, "ms"),
            ("requests", r.attempted as f64, "count"),
            ("failed", r.failed as f64, "count"),
            ("refused", r.refused as f64, "count"),
            ("resent_stale", r.resent as f64, "count"),
            ("backlog", r.backlog as u8 as f64, "bool"),
            ("cache_hit_rate", r.hit_rate, "share"),
            ("late_ms_p99", r.late_p99, "ms"),
            ("server_cpu_ms_per_request", r.cpu_ms_per_request, "ms"),
        ];
        for (name, value, unit) in figures {
            out.report(Metric::new(&format!("{tag}.{name}"), value, unit));
        }
    }
    out.record_num("limit_ms", shape.limit_ms);
    out.record_num("reference_rate", reference);
    out.record_num("rounds", ROUNDS as f64);
    out.record_num("setup_samples", setup_s.len() as f64);
    out.record_nums("publish_ms", &publish_ms);
    out.record_nums("publish_cpu_ms", &publish_cpu_ms);
    out.record_nums("epoch_ms", &epoch_ms);
    out.record_num("reference_requests", refp.attempted as f64);

    if ctx.trace {
        let traced = by_rate(reference, true);
        out.layer(Metric::new(
            "service.cache_hit_rate",
            traced.hit_rate,
            "share",
        ));
        out.layer(Metric::new(
            "service.cache_evictions",
            (after_all.cache.evictions - before_all.cache.evictions) as f64,
            "count",
        ));
        out.layer(Metric::new(
            "net.refused_503",
            after_all.rejected_overflow as f64,
            "count",
        ));
        out.layer(Metric::new(
            "net.deadline_504",
            after_all.deadline_expired as f64,
            "count",
        ));
        out.layer(Metric::new(
            "net.request_bytes",
            mean(&request_bytes),
            "bytes",
        ));
        out.layer(Metric::new(
            "net.resent_stale",
            traced.resent as f64,
            "count",
        ));
        out.layer(Metric::new("loadgen.late_ms_p99", traced.late_p99, "ms"));
        replay(tr, store, &traffic.plans, &log, shape.batch)?;
        let finite = |v: &[f64]| {
            v.iter()
                .copied()
                .filter(|x| x.is_finite())
                .collect::<Vec<_>>()
        };
        crate::attribution(
            out,
            tr,
            "request",
            mean(&finite(&refp.latency_ms)),
            mean(&finite(&traced.latency_ms)),
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(())
}

/// Re-runs the whole request log in send order through an in-process
/// `AnswerService` on the same store (so its memo table sees what the
/// server's saw), then through the kernel alone for the requests the
/// service missed, and records the traced phase's requests as spans:
/// `request` (due to done) over `loadgen.wait` (due to send) and
/// `net.request` (send to done), which is the parent of the replayed
/// `service.answer`, itself the parent of the replayed `kernel.answer`
/// when the service computed the answer. A hit runs no kernel.
fn replay(
    tr: &mut Tracer,
    store: ReleaseStore,
    plans: &[Plan],
    log: &[(bool, Sent)],
    batch: bool,
) -> Result<(), String> {
    let service = AnswerService::new(store);
    let mut service_us = vec![0.0; log.len()];
    let mut missed = vec![false; log.len()];
    for (i, (_, s)) in log.iter().enumerate() {
        let plan = &plans[s.plan];
        let privilege = Privilege::new(plan.privilege);
        let misses = service.cache_stats().misses;
        let t = Instant::now();
        let res = if batch && plan.queries.len() > 1 {
            service
                .answer_typed_batch(DATASET, plan.epoch, privilege, plan.level, &plan.queries)
                .map(|_| ())
        } else {
            service
                .answer_typed(DATASET, plan.epoch, privilege, plan.level, &plan.queries[0])
                .map(|_| ())
        };
        service_us[i] = t.elapsed().as_secs_f64() * 1e6;
        res.map_err(err)?;
        missed[i] = service.cache_stats().misses > misses;
    }
    let mut kernel_us = vec![0.0; log.len()];
    for (i, (_, s)) in log.iter().enumerate() {
        if !missed[i] {
            continue;
        }
        let plan = &plans[s.plan];
        let indexed = service.store().get(DATASET, plan.epoch).map_err(err)?;
        let t = Instant::now();
        let res = kernel_answers(&indexed, plan, batch && plan.queries.len() > 1);
        kernel_us[i] = t.elapsed().as_secs_f64() * 1e6;
        res?;
    }
    for (i, (traced, s)) in log.iter().enumerate() {
        if !traced || s.status != 200 {
            continue;
        }
        let request = i as u64;
        let (due, sent, done) = (tr.at_us(s.due), tr.at_us(s.sent), tr.at_us(s.done));
        let root = tr.record("request", request, None, due, done);
        tr.record("loadgen.wait", request, Some(root), due, sent);
        let net = tr.record("net.request", request, Some(root), sent, done);
        // The replayed children ran later; their durations are what
        // count (see the trace module).
        let svc = tr.record(
            "service.answer",
            request,
            Some(net),
            done,
            done + service_us[i],
        );
        if missed[i] {
            tr.record(
                "kernel.answer",
                request,
                Some(svc),
                done,
                done + kernel_us[i],
            );
        }
    }
    Ok(())
}
