//! The curator path: base publish from an edge-list file, then a chain
//! of delta epochs, each made durable as a `.gda` in a store directory.
//!
//! The timed publishing runs in a child process (`perfbench
//! publish-worker`), so its peak memory is the publisher's alone and the
//! benchmark's own set-up and output checks stay out of it. After each
//! chain the worker waits while the parent checks the chain's files.
//!
//! Untraced, the worker calls `DisclosureSession::publish_to_dir_as` and
//! `publish_next_to_dir_as`, exactly as a curator would. Traced, it also
//! runs the same steps as separate calls into each layer, with a span
//! around each, and the parent checks that both wrote identical bytes.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use gdp_core::artifact::{ArtifactFormat, ManifestLedger, ReleaseArtifact};
use gdp_core::{
    DisclosureConfig, DisclosureSession, GroupHierarchy, HierarchyStats, MultiLevelDiscloser,
    NoiseMechanism, Query, SpecializationConfig, Specializer,
};
use gdp_graph::{BipartiteGraph, DegreeHistogram, EdgeDelta};
use gdp_mechanisms::{Delta, GaussianRdpAccountant, PrivacyAccountant, PrivacyBudget};
use gdp_serve::ReleaseStore;

use crate::inputs::{self, Inputs, CHAIN_DELTAS};
use crate::stats::{mean, median, percentile};
use crate::trace::{self, Tracer};
use crate::{Ctx, Metric, Outcome};

/// Dataset key of every published release.
pub const DATASET: &str = "bench";
/// Per-epoch `εg` (a power of two, so the ledger's running sum is exact).
pub const EPSILON: f64 = 0.5;
const DELTA: f64 = 1e-6;
const ROUNDS: u32 = 8;
const HIST_MAX: u32 = 64;
/// Epoch samples needed for p90 to have ten samples beyond it.
pub const MIN_EPOCHS: usize = 100;
/// Deltas per chain on `publish_chain`: ten chains give exactly
/// [`MIN_EPOCHS`] epochs.
pub const WORKLOAD_DELTAS: usize = 10;
/// Seconds of publishing after which the worker stops in any case, so a
/// run ends well within its time limit.
const MAX_BUSY_S: f64 = 100.0;

/// The disclosure `gdp publish` makes: totals, per-group counts and the
/// left degree histogram at every level, classic Gaussian noise.
pub fn disclosure_config() -> DisclosureConfig {
    DisclosureConfig::count_only(EPSILON, DELTA)
        .expect("constant budget is valid")
        .with_mechanism(NoiseMechanism::GaussianClassic)
        .with_queries(vec![
            Query::TotalAssociations,
            Query::PerGroupCounts,
            Query::LeftDegreeHistogram {
                max_degree: HIST_MAX,
            },
        ])
}

/// Authorizes exactly one chain: the base epoch plus every delta.
fn total_budget() -> PrivacyBudget {
    let epochs = (CHAIN_DELTAS + 1) as f64;
    PrivacyBudget::new(EPSILON * epochs, 1e-4).expect("constant budget is valid")
}

fn chain_rng(seed: u64, chain: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ chain.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn read_graph(path: &Path) -> Result<BipartiteGraph, String> {
    let file = File::open(path).map_err(err)?;
    gdp_graph::io::read_edge_list(BufReader::new(file)).map_err(err)
}

fn specialize(graph: &BipartiteGraph, rng: &mut StdRng) -> Result<GroupHierarchy, String> {
    let config = SpecializationConfig::paper_default(ROUNDS).map_err(err)?;
    Specializer::new(config).specialize(graph, rng).map_err(err)
}

fn read_delta(path: &Path) -> Result<EdgeDelta, String> {
    EdgeDelta::from_text(&std::fs::read_to_string(path).map_err(err)?).map_err(err)
}

/// Wall times of one chain: the base publish and each epoch.
#[derive(Default)]
pub struct ChainTimes {
    pub publish_ms: f64,
    /// Process CPU time of the base publish (all threads), ms.
    pub publish_cpu_ms: f64,
    pub epoch_ms: Vec<f64>,
    /// Process CPU time of each epoch (all threads), ms.
    pub epoch_cpu_ms: Vec<f64>,
}

/// One chain through the curator's API: `DisclosureSession`.
pub fn session_chain(inputs: &Inputs, dir: &Path, rng: &mut StdRng) -> Result<ChainTimes, String> {
    let config = disclosure_config();
    let (t, cpu) = (Instant::now(), cpu_ms(None));
    let graph = read_graph(&inputs.edges)?;
    let hierarchy = specialize(&graph, rng)?;
    let mut session = DisclosureSession::new(graph, hierarchy, total_budget());
    session
        .publish_to_dir_as(&config, DATASET, 0, dir, ArtifactFormat::Binary, rng)
        .map_err(err)?;
    let mut times = ChainTimes {
        publish_ms: ms(t),
        publish_cpu_ms: cpu_ms(None) - cpu,
        ..ChainTimes::default()
    };
    for path in &inputs.deltas {
        let (t, cpu) = (Instant::now(), cpu_ms(None));
        let delta = read_delta(path)?;
        session
            .publish_next_to_dir_as(&config, DATASET, &delta, dir, ArtifactFormat::Binary, rng)
            .map_err(err)?;
        times.epoch_ms.push(ms(t));
        times.epoch_cpu_ms.push(cpu_ms(None) - cpu);
    }
    Ok(times)
}

/// The session's state, held by the benchmark so each step can be
/// timed on its own.
struct Composed {
    graph: BipartiteGraph,
    hierarchy: GroupHierarchy,
    stats: HierarchyStats,
    accountant: PrivacyAccountant,
    rdp: GaussianRdpAccountant,
    releases: u64,
}

fn charge(config: &DisclosureConfig) -> PrivacyBudget {
    PrivacyBudget {
        epsilon: config.epsilon_g,
        delta: if config.mechanism.uses_delta() {
            config.delta
        } else {
            Delta::ZERO
        },
    }
}

impl Composed {
    /// Disclose, seal, encode and write one epoch — the shared tail of
    /// a base publish and a delta epoch.
    fn release(
        &mut self,
        config: &DisclosureConfig,
        epoch: u64,
        dir: &Path,
        rng: &mut StdRng,
        tr: &mut Tracer,
        request: u64,
    ) -> Result<(), String> {
        let cost = charge(config);
        let release = tr.span("disclose", request, |_| {
            let hist = DegreeHistogram::from_degrees(&self.graph.left_degrees());
            MultiLevelDiscloser::new(config.clone()).disclose_from_stats(
                &self.hierarchy,
                &self.stats,
                &hist,
                rng,
            )
        });
        let release = release.map_err(err)?;
        if let Some(q) = release.levels().first().and_then(|l| l.queries.first()) {
            self.rdp
                .observe_gaussian(q.noise_scale, q.sensitivity.l2)
                .map_err(err)?;
        }
        self.releases += 1;
        let total = self.accountant.total();
        let ledger = ManifestLedger {
            epoch_epsilon: cost.epsilon.get(),
            epoch_delta: cost.delta.get(),
            cumulative_epsilon: self.accountant.spent_epsilon(),
            cumulative_delta: self.accountant.spent_delta(),
            total_epsilon: total.epsilon.get(),
            total_delta: total.delta.get(),
            releases: self.releases,
        };
        let artifact = tr.span("artifact.seal", request, |_| {
            ReleaseArtifact::seal_with_ledger(
                DATASET,
                epoch,
                self.hierarchy.clone(),
                release,
                ledger,
            )
        });
        let artifact = artifact.map_err(err)?;
        let bytes = tr.span("codec.encode", request, |_| {
            gdp_core::codec::encode(&artifact)
        });
        let bytes = bytes.map_err(err)?;
        let path = dir.join(ReleaseArtifact::canonical_file_name_as(
            DATASET,
            epoch,
            ArtifactFormat::Binary,
        ));
        tr.span("io.atomic_write", request, |_| {
            gdp_graph::io::atomic_write_bytes(&bytes, &path)
        })
        .map_err(err)?;
        tr.add_count("codec.bytes", bytes.len() as f64);
        Ok(())
    }
}

/// The same chain as [`session_chain`], composed from the layers'
/// public functions with a span around each call. Fed the same seed it
/// must write the same bytes.
pub fn traced_chain(
    inputs: &Inputs,
    dir: &Path,
    rng: &mut StdRng,
    tr: &mut Tracer,
    first_request: u64,
) -> Result<ChainTimes, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let config = disclosure_config();
    let mut request = first_request;
    let mut times = ChainTimes::default();
    let t = Instant::now();
    let mut state = tr.span("publish", request, |tr| -> Result<Composed, String> {
        let graph = tr.span("io.read_edge_list", request, |_| read_graph(&inputs.edges))?;
        let hierarchy = tr.span("specialize", request, |_| specialize(&graph, rng))?;
        let mut accountant = PrivacyAccountant::new(total_budget());
        accountant
            .charge(charge(&config), "disclosure #1")
            .map_err(err)?;
        let stats = tr.span("stats.compute", request, |_| {
            HierarchyStats::compute(&graph, &hierarchy)
        });
        let mut state = Composed {
            stats: stats.map_err(err)?,
            graph,
            hierarchy,
            accountant,
            rdp: GaussianRdpAccountant::new(),
            releases: 0,
        };
        state.release(&config, 0, dir, rng, tr, request)?;
        Ok(state)
    })?;
    times.publish_ms = ms(t);
    for (i, path) in inputs.deltas.iter().enumerate() {
        request += 1;
        let t = Instant::now();
        tr.span("epoch", request, |tr| -> Result<(), String> {
            let delta = tr.span("delta.read_parse", request, |_| read_delta(path))?;
            let cost = charge(&config);
            state.accountant.check(cost).map_err(err)?;
            tr.span("graph.apply_delta", request, |_| {
                state.graph.apply_delta_in_place(&delta)
            })
            .map_err(err)?;
            let label = format!("disclosure #{}", state.releases + 1);
            state.accountant.charge(cost, label).map_err(err)?;
            tr.span("stats.apply_delta", request, |_| {
                state.stats.apply_delta(&state.hierarchy, &delta)
            })
            .map_err(err)?;
            state.release(&config, i as u64 + 1, dir, rng, tr, request)
        })?;
        times.epoch_ms.push(ms(t));
    }
    Ok(times)
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time used so far by a process (this one by default), all its
/// threads, user plus system, from `/proc/<pid>/stat`, in ms. The kernel
/// counts it in clock ticks of 10 ms (`CLK_TCK` = 100), so it is summed
/// over many operations, never read for one. Unlike wall time it does
/// not grow when the hypervisor runs another guest on our CPU.
pub fn cpu_ms(pid: Option<u32>) -> f64 {
    let path = pid.map_or("/proc/self/stat".to_string(), |p| format!("/proc/{p}/stat"));
    let Ok(stat) = std::fs::read_to_string(path) else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name: state is the first,
    // utime the 12th, stime the 13th.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(system)) => (user + system) * 10.0,
        _ => f64::NAN,
    }
}

/// Peak resident set of a process (this one by default), from
/// `/proc/<pid>/status`.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// The publisher process
// ---------------------------------------------------------------------

/// `perfbench publish-worker --inputs DIR --out DIR --seconds S --seed N
/// --trace 0|1`: publishes chains of [`WORKLOAD_DELTAS`] epochs until `S`
/// seconds of publishing and [`MIN_EPOCHS`] epochs are done. After each chain it prints `CHAIN k`
/// and waits for a line on stdin; at the end it prints `REPORT <json>`.
pub fn worker(args: &crate::Args) -> Result<(), String> {
    let input_dir = PathBuf::from(args.get("inputs")?);
    let out = PathBuf::from(args.get("out")?);
    let seconds: f64 = args.num("seconds")?;
    let seed: u64 = args.num("seed")?;
    let traced = args.num::<u8>("trace")? == 1;
    let inputs = Inputs {
        edges: input_dir.join("graph.txt"),
        deltas: (1..=WORKLOAD_DELTAS)
            .map(|i| input_dir.join(format!("delta-{i:02}.txt")))
            .collect(),
        edge_count: 0,
    };
    let mut tr = Tracer::new(traced);
    let (mut publish_ms, mut publish_cpu_ms) = (Vec::new(), Vec::new());
    let (mut epoch_ms, mut epoch_cpu_ms) = (Vec::new(), Vec::new());
    let (mut traced_publish_ms, mut traced_epoch_ms) = (Vec::new(), Vec::new());
    let mut busy = 0.0;
    let stdin = std::io::stdin();
    for chain in 0u64.. {
        let dir = out.join(format!("chain-{chain}"));
        let t = Instant::now();
        let times = session_chain(&inputs, &dir.join("session"), &mut chain_rng(seed, chain))?;
        publish_ms.push(times.publish_ms);
        publish_cpu_ms.push(times.publish_cpu_ms);
        epoch_ms.extend(times.epoch_ms);
        epoch_cpu_ms.extend(times.epoch_cpu_ms);
        if traced {
            let first = chain * (WORKLOAD_DELTAS as u64 + 1);
            let mut rng = chain_rng(seed, chain);
            let times = traced_chain(&inputs, &dir.join("traced"), &mut rng, &mut tr, first)?;
            traced_publish_ms.push(times.publish_ms);
            traced_epoch_ms.extend(times.epoch_ms);
        }
        busy += t.elapsed().as_secs_f64();
        println!("CHAIN {chain} {}", dir.display());
        std::io::stdout().flush().map_err(err)?;
        let mut line = String::new();
        stdin.lock().read_line(&mut line).map_err(err)?;
        // Untraced, p90 needs MIN_EPOCHS samples; the traced run reports
        // medians per layer and stops on time alone. A host too slow to
        // reach MIN_EPOCHS within MAX_BUSY_S stops there.
        let enough = busy >= seconds && (traced || epoch_ms.len() >= MIN_EPOCHS);
        if enough || busy >= MAX_BUSY_S || line.trim() != "go" {
            break;
        }
    }
    let nums = |v: &[f64]| Value::Seq(v.iter().map(|&x| Value::F64(x)).collect());
    let report = Value::Map(vec![
        ("publish_ms".into(), nums(&publish_ms)),
        ("publish_cpu_ms".into(), nums(&publish_cpu_ms)),
        ("epoch_ms".into(), nums(&epoch_ms)),
        ("epoch_cpu_ms".into(), nums(&epoch_cpu_ms)),
        ("traced_publish_ms".into(), nums(&traced_publish_ms)),
        ("traced_epoch_ms".into(), nums(&traced_epoch_ms)),
        ("vm_hwm_mb".into(), Value::F64(vm_hwm_mb(None))),
        ("counts".into(), tr.counts_json()),
        ("spans".into(), trace::to_json(tr.spans())),
    ]);
    println!("REPORT {}", serde_json::to_string(&report).map_err(err)?);
    Ok(())
}

// ---------------------------------------------------------------------
// Output checks (parent side)
// ---------------------------------------------------------------------

/// Re-opens the directory of a chain of `deltas` epochs through
/// `ReleaseStore::open_dir` (container digests verified on load),
/// indexes every epoch and checks each manifest's ledger: epoch `e` has
/// spent `(e + 1) x εg` over `e + 1` releases. Returns the store and the
/// size in bytes of every epoch file.
pub fn verify_chain(
    dir: &Path,
    deltas: usize,
    tr: &mut Tracer,
) -> Result<(ReleaseStore, Vec<u64>), String> {
    let store = tr
        .span("store.open_dir", 0, |_| ReleaseStore::open_dir(dir))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    let epochs = store.epochs(DATASET);
    let want: Vec<u64> = (0..=deltas as u64).collect();
    if epochs != want || store.len() != want.len() {
        return Err(format!(
            "{}: epochs {epochs:?}, want {want:?}",
            dir.display()
        ));
    }
    let mut sizes = Vec::with_capacity(epochs.len());
    for epoch in epochs {
        let indexed = tr
            .span("store.index", 0, |_| store.get(DATASET, epoch))
            .map_err(err)?;
        let manifest = indexed.artifact().manifest();
        let ledger = manifest
            .ledger
            .as_ref()
            .ok_or_else(|| format!("epoch {epoch}: manifest has no ledger"))?;
        let releases = epoch + 1;
        if ledger.cumulative_epsilon != releases as f64 * EPSILON || ledger.releases != releases {
            return Err(format!(
                "epoch {epoch}: ledger spent ε {} over {} releases, want {} over {releases}",
                ledger.cumulative_epsilon,
                ledger.releases,
                releases as f64 * EPSILON
            ));
        }
        let name = ReleaseArtifact::canonical_file_name_as(DATASET, epoch, ArtifactFormat::Binary);
        sizes.push(std::fs::metadata(dir.join(name)).map_err(err)?.len());
    }
    Ok((store, sizes))
}

/// The traced composition must have written the session's bytes.
fn same_bytes(a: &Path, b: &Path) -> Result<(), String> {
    for epoch in 0..=WORKLOAD_DELTAS as u64 {
        let name = ReleaseArtifact::canonical_file_name_as(DATASET, epoch, ArtifactFormat::Binary);
        let (x, y) = (
            std::fs::read(a.join(&name)).map_err(err)?,
            std::fs::read(b.join(&name)).map_err(err)?,
        );
        if x != y {
            return Err(format!("{name}: traced composition wrote different bytes"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// The publisher process; an early return on an error path still
/// stops it and waits for it.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub fn run(ctx: &Ctx, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    // Set-up: generate and write the inputs, several times.
    let mut setup_s = Vec::new();
    let mut last: Option<Inputs> = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let dir = ctx.work.join(format!("inputs-{i}"));
        let inputs = tr.span("setup", 0, |tr| {
            inputs::generate(&dir, ctx.seed, WORKLOAD_DELTAS, tr)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some(prev) = last.replace(inputs.map_err(err)?) {
            std::fs::remove_dir_all(prev.edges.parent().expect("inputs dir")).map_err(err)?;
        }
    }
    let inputs = last.expect("at least one set-up");
    let input_dir = inputs.edges.parent().expect("inputs dir").to_path_buf();

    let out_dir = ctx.work.join("store");
    let mut child = Reaped(
        Command::new(std::env::current_exe().map_err(err)?)
            .arg("publish-worker")
            .args(["--inputs", &input_dir.display().to_string()])
            .args(["--out", &out_dir.display().to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--seed", &ctx.seed.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .env_remove("RAYON_NUM_THREADS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(err)?,
    );
    let mut stdin = child.0.stdin.take().expect("piped stdin");
    let stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    let mut report = None;
    let mut sizes = Vec::new();
    let mut chains = 0u64;
    for line in stdout.lines() {
        let line = line.map_err(err)?;
        if let Some(rest) = line.strip_prefix("CHAIN ") {
            let dir = PathBuf::from(rest.split_once(' ').map_or("", |(_, d)| d));
            let checked = (|| {
                sizes = verify_chain(&dir.join("session"), WORKLOAD_DELTAS, tr)?.1;
                if ctx.trace {
                    verify_chain(&dir.join("traced"), WORKLOAD_DELTAS, tr)?;
                    same_bytes(&dir.join("session"), &dir.join("traced"))?;
                }
                Ok::<(), String>(())
            })();
            chains += 1;
            out.attempted += WORKLOAD_DELTAS as u64 + 1;
            if let Err(e) = checked {
                out.failed += WORKLOAD_DELTAS as u64 + 1;
                out.problems.push(e);
            }
            std::fs::remove_dir_all(&dir).map_err(err)?;
            // A closed pipe means the worker already stopped; its exit
            // status below says whether that was a failure.
            let _ = writeln!(stdin, "go");
        } else if let Some(json) = line.strip_prefix("REPORT ") {
            report = Some(serde_json::from_str::<Value>(json).map_err(err)?);
        }
    }
    drop(stdin);
    let status = child.0.wait().map_err(err)?;
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&input_dir);
    if !status.success() {
        return Err(format!("publish worker exited with {status}"));
    }
    let report = report.ok_or("publish worker printed no report")?;
    let field = |k: &str| -> Vec<f64> { crate::json_nums(&report, k) };
    let (publish_ms, epoch_ms) = (field("publish_ms"), field("epoch_ms"));
    if epoch_ms.is_empty() {
        return Err("no epochs published".into());
    }
    let rss = field("vm_hwm_mb").first().copied().unwrap_or(0.0);
    let artifact_mb = median(&sizes.iter().map(|&b| b as f64 / 1e6).collect::<Vec<_>>());

    let setup = median(&setup_s);
    let p50 = median(&epoch_ms);
    let p90 = percentile(&epoch_ms, 0.90);
    // Epochs per second of epoch time, per chain, then the median over
    // chains: a host stall during one chain moves one sample.
    let epochs_per_s = median(
        &epoch_ms
            .chunks(WORKLOAD_DELTAS)
            .map(|c| c.len() as f64 * 1e3 / c.iter().sum::<f64>())
            .collect::<Vec<_>>(),
    );
    out.e2e(Metric::new("setup_s", setup, "s"));
    out.e2e(Metric::new(
        "publish_cpu_ms",
        mean(&field("publish_cpu_ms")),
        "ms",
    ));
    out.e2e(Metric::new("epoch_ms_p50", p50, "ms"));
    out.e2e(Metric::new(
        "cpu_ms_per_op",
        mean(&field("epoch_cpu_ms")),
        "ms",
    ));
    out.e2e(Metric::new("artifact_mb", artifact_mb, "MB"));

    out.report(Metric::new("peak_rss_mb", rss, "MB"));
    out.layer(Metric::new("mem.peak_rss_mb", rss, "MB"));
    out.report(Metric::new("publish_ms_p50", median(&publish_ms), "ms"));
    out.report(Metric::new("epoch_ms_p90", p90, "ms"));
    out.report(Metric::new("epochs_per_s", epochs_per_s, "1/s"));
    out.record_num("chains", chains as f64);
    out.record_num("publish_samples", publish_ms.len() as f64);
    out.record_num("epoch_samples", epoch_ms.len() as f64);
    out.record_num(
        "epoch_samples_beyond_p90",
        epoch_ms.iter().filter(|&&x| x > p90).count() as f64,
    );
    out.record_num("edges", inputs.edge_count as f64);
    out.record_nums("publish_ms", &publish_ms);
    out.record_nums("publish_cpu_ms", &field("publish_cpu_ms"));
    out.record_nums("epoch_ms", &epoch_ms);

    if ctx.trace {
        let spans = report
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "spans"))
            .and_then(|(_, v)| trace::from_json(v))
            .ok_or("publish worker report has no spans")?;
        tr.absorb(spans);
        if let Some(counts) = report
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == "counts"))
        {
            tr.absorb_counts(&counts.1);
        }
        let traced = field("traced_epoch_ms");
        let untraced_mean = mean(&epoch_ms);
        let traced_mean = mean(&traced);
        crate::attribution(out, tr, "epoch", untraced_mean, traced_mean);
    }
    Ok(())
}
