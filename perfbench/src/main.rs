//! `perfbench` — the end-to-end benchmark of the curator and serving
//! paths. See `README.md` in this directory.
//!
//! ```text
//! perfbench --workload publish_chain|serve_hot|serve_cold_batch
//!           --seed N --seconds S --trace 0|1 --gdp PATH --work DIR
//! ```
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the
//! per-layer metrics traced.

mod inputs;
mod publish;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde::Value;

use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Every per-layer metric a traced run prints, with its unit. A layer
/// the workload does not run reads 0 (the serving layers on
/// `publish_chain`).
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.ms", "ms"),
    ("io.read_edge_list.ms", "ms"),
    ("specialize.ms", "ms"),
    ("stats.compute.ms", "ms"),
    ("stats.apply_delta.ms", "ms"),
    ("delta.read_parse.ms", "ms"),
    ("graph.apply_delta.ms", "ms"),
    ("disclose.ms", "ms"),
    ("artifact.seal.ms", "ms"),
    ("codec.encode.ms", "ms"),
    ("codec.bytes", "bytes"),
    ("io.atomic_write.ms", "ms"),
    ("store.open_dir.ms", "ms"),
    ("store.index.ms", "ms"),
    ("kernel.answer.us_p50", "us"),
    ("kernel.answer.us_p99", "us"),
    ("service.answer.us_p50", "us"),
    ("service.answer.us_p99", "us"),
    ("service.cache_hit_rate", "share"),
    ("service.cache_evictions", "count"),
    ("net.request.us_p50", "us"),
    ("net.request.us_p99", "us"),
    ("net.overhead.us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.resent_stale", "count"),
    ("net.refused_503", "count"),
    ("net.deadline_504", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("mem.peak_rss_mb", "MB"),
    ("failed_share", "share"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.layers_sum_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.negative_self_share", "share"),
    ("trace.sum_within_overhead", "bool"),
];

/// Layers timed as spans around publishing calls: their median self
/// time per call is the metric `<name>.ms`.
const MS_LAYERS: &[&str] = &[
    "datagen",
    "io.read_edge_list",
    "specialize",
    "stats.compute",
    "stats.apply_delta",
    "delta.read_parse",
    "graph.apply_delta",
    "disclose",
    "artifact.seal",
    "codec.encode",
    "io.atomic_write",
    "store.open_dir",
    "store.index",
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Further figures for the printed table (the wall-clock figures,
    /// per-rate breakdowns).
    pub table: Vec<Metric>,
    pub record: Vec<(String, Value)>,
    /// Failed output checks and invalid-run reasons.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, m: Metric) {
        self.end_to_end.push(m);
    }
    pub fn layer(&mut self, m: Metric) {
        self.per_layer.push(m);
    }
    pub fn report(&mut self, m: Metric) {
        self.table.push(m);
    }
    pub fn record_num(&mut self, k: &str, v: f64) {
        self.record.push((k.to_string(), Value::F64(v)));
    }
    pub fn record_nums(&mut self, k: &str, v: &[f64]) {
        let seq = v.iter().map(|&x| Value::F64(x)).collect();
        self.record.push((k.to_string(), Value::Seq(seq)));
    }
}

/// The run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub gdp: PathBuf,
    pub work: PathBuf,
}

/// `--key value` arguments.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or(format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Self(map))
    }
    pub fn get(&self, k: &str) -> Result<&str, String> {
        self.0
            .get(k)
            .map(String::as_str)
            .ok_or(format!("missing --{k}"))
    }
    pub fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.get(k)?.parse().map_err(|_| format!("bad --{k}"))
    }
}

/// The numbers under `key` of a JSON map (a number or a list of them).
pub fn json_nums(v: &Value, key: &str) -> Vec<f64> {
    let one = |x: &Value| match x {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    };
    match v.as_map().and_then(|m| m.iter().find(|(k, _)| k == key)) {
        Some((_, Value::Seq(s))) => s.iter().filter_map(one).collect(),
        Some((_, x)) => one(x).into_iter().collect(),
        None => Vec::new(),
    }
}

/// Per-layer self times from the run's spans, and the check that the
/// layers add up to the end-to-end time.
///
/// `root` names the span of one end-to-end operation (`epoch`,
/// `request`). `untraced_ms` is the mean of that operation measured
/// without spans in the same run, `traced_ms` with them; their
/// difference is the tracing overhead. The check passes when
///
/// - the layers' self times, each counted as at least zero and summed
///   per operation, land within that overhead (plus 2% for run noise)
///   of the untraced time, and
/// - no layer's median self time is negative: fewer than half of each
///   layer's spans have children that took longer than they did.
///
/// Nested spans of one thread (publishing) cannot have a negative self
/// time. The serving spans are built from separate measurements (the
/// network time seen by the generator, the replayed service and kernel
/// times), so there a negative self time means the parts do not fit the
/// request, and it also raises the clamped sum above the root. Single
/// requests may not fit by run noise; a layer that typically does not
/// fit is misattributed.
pub fn attribution(out: &mut Outcome, tr: &Tracer, root: &str, untraced_ms: f64, traced_ms: f64) {
    let spans = tr.spans();
    let by_name = trace::self_times_by_name(spans);
    for layer in MS_LAYERS {
        if let Some(v) = by_name.get(*layer) {
            out.layer(Metric::new(&format!("{layer}.ms"), median(v) / 1e3, "ms"));
        }
    }
    if let Some(bytes) = tr.counts().get("codec.bytes") {
        out.layer(Metric::new("codec.bytes", median(bytes), "bytes"));
    }
    // Serving layers: durations of the inclusive spans, self time of
    // the network layer.
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_us())
            .collect()
    };
    for name in ["kernel.answer", "service.answer", "net.request"] {
        let d = durations(name);
        if !d.is_empty() {
            out.layer(Metric::new(&format!("{name}.us_p50"), median(&d), "us"));
            out.layer(Metric::new(
                &format!("{name}.us_p99"),
                percentile(&d, 0.99),
                "us",
            ));
        }
    }
    if let Some(v) = by_name.get("net.request") {
        out.layer(Metric::new("net.overhead.us", median(v), "us"));
    }

    // Sum of self times per root operation.
    let selfs = trace::self_times(spans);
    let mut root_of = vec![usize::MAX; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root_of[i] = match s.parent {
            _ if s.name == root => i,
            Some(p) => root_of[p],
            None => usize::MAX,
        };
    }
    // Per root: (layers' self time, root's own time); per layer: (spans
    // with a negative self time, spans).
    let mut sums: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    let mut negative: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let r = root_of[i];
        if r == usize::MAX {
            continue;
        }
        let n = negative.entry(s.name.as_str()).or_default();
        n.0 += (selfs[i] < -1e-3) as usize;
        n.1 += 1;
        let e = sums.entry(r).or_default();
        if s.name == root {
            e.1 += selfs[i];
        } else {
            e.0 += selfs[i].max(0.0);
        }
    }
    let layers: Vec<f64> = sums.values().map(|v| v.0 / 1e3).collect();
    let glue: Vec<f64> = sums.values().map(|v| v.1 / 1e3).collect();
    let negative_share = negative
        .values()
        .map(|&(neg, all)| neg as f64 / all as f64)
        .fold(0.0, f64::max);
    let layers_sum = mean(&layers);
    let overhead = traced_ms - untraced_ms;
    let within = (layers_sum - untraced_ms).abs() <= overhead.abs() + 0.02 * untraced_ms
        && negative_share < 0.5;
    out.layer(Metric::new("trace.untraced_ms", untraced_ms, "ms"));
    out.layer(Metric::new("trace.traced_ms", traced_ms, "ms"));
    out.layer(Metric::new("trace.overhead_ms", overhead, "ms"));
    out.layer(Metric::new("trace.layers_sum_ms", layers_sum, "ms"));
    out.layer(Metric::new("trace.unattributed_ms", mean(&glue), "ms"));
    out.layer(Metric::new(
        "trace.negative_self_share",
        negative_share,
        "share",
    ));
    out.layer(Metric::new(
        "trace.sum_within_overhead",
        within as u8 as f64,
        "bool",
    ));
    out.record_num("traced_operations", sums.len() as f64);
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What the run ran on: the git rev (only inside a git checkout, else
/// `unknown`: git would report whatever repository encloses this
/// directory), cores, compiler and the program's environment.
fn run_record(ctx: &Ctx) -> Vec<(String, Value)> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rayon = std::env::var("RAYON_NUM_THREADS").ok();
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    vec![
        ("workload".into(), Value::Str(ctx.workload.clone())),
        ("seed".into(), Value::U64(ctx.seed)),
        ("seconds".into(), Value::F64(ctx.seconds)),
        ("trace".into(), Value::Bool(ctx.trace)),
        ("git_rev".into(), Value::Str(git_rev)),
        ("host_cores".into(), Value::U64(cores as u64)),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["--version"])),
        ),
        (
            "program_env".into(),
            Value::Str(
                "RAYON_NUM_THREADS unset for the publisher and gdp serve; gdp serve with default \
                 settings (4 workers, queue 128, 2 s deadline)"
                    .into(),
            ),
        ),
        (
            "benchmark_env_rayon_num_threads".into(),
            rayon.map_or(Value::Null, Value::Str),
        ),
    ]
}

fn run(ctx: &Ctx) -> Result<(Outcome, Tracer), String> {
    std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new(ctx.trace);
    let mut out = Outcome::default();
    match ctx.workload.as_str() {
        "publish_chain" => publish::run(ctx, &mut tr, &mut out)?,
        "serve_hot" => serve::run(ctx, &mut tr, &mut out, &serve::HOT)?,
        "serve_cold_batch" => serve::run(ctx, &mut tr, &mut out, &serve::COLD)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    let attempted = out.attempted.max(1);
    let failed_share = out.failed as f64 / attempted as f64;
    out.e2e(Metric::new("ok_share", 1.0 - failed_share, "share"));
    out.report(Metric::new("failed_share", failed_share, "share"));
    out.layer(Metric::new("failed_share", failed_share, "share"));
    Ok((out, tr))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("publish-worker") {
        let result = Args::parse(&argv[1..]).and_then(|a| publish::worker(&a));
        if let Err(e) = result {
            eprintln!("publish-worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let ctx = match Args::parse(&argv).and_then(|a| {
        Ok(Ctx {
            workload: a.get("workload")?.to_string(),
            seed: a.num("seed")?,
            seconds: a.num("seconds")?,
            trace: a.num::<u8>("trace")? == 1,
            gdp: PathBuf::from(a.get("gdp")?),
            work: PathBuf::from(a.get("work")?),
        })
    }) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (out, tr) = match run(&ctx) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    };

    let mut metrics: Vec<(String, Value)> = Vec::new();
    if ctx.trace {
        for &(name, unit) in PER_LAYER {
            let value = out
                .per_layer
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            metrics.push((name.to_string(), metric_json(value, unit)));
        }
    } else {
        for m in &out.end_to_end {
            metrics.push((m.name.clone(), metric_json(m.value, m.unit)));
        }
    }

    // The table: every figure by name and unit.
    println!(
        "# {} seed {} ({})",
        ctx.workload,
        ctx.seed,
        if ctx.trace { "traced" } else { "untraced" }
    );
    let shown = if ctx.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in shown.iter().chain(&out.table) {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    let mut record = run_record(&ctx);
    record.extend(out.record.iter().cloned());
    record.push((
        "table".into(),
        Value::Map(
            out.table
                .iter()
                .map(|m| (m.name.clone(), Value::F64(m.value)))
                .collect(),
        ),
    ));
    let record = Value::Map(record);
    let record_text = serde_json::to_string(&record).unwrap_or_default();
    println!("record {record_text}");
    let runs = ctx.work.join("runs");
    if std::fs::create_dir_all(&runs).is_ok() {
        let name = format!(
            "{}-seed{}-trace{}.json",
            ctx.workload, ctx.seed, ctx.trace as u8
        );
        let _ = std::fs::write(runs.join(name), &record_text);
    }
    if ctx.trace {
        let path = ctx.work.join(format!("trace-{}.json", ctx.workload));
        let _ = std::fs::write(
            path,
            serde_json::to_string(&trace::to_json(tr.spans())).unwrap_or_default(),
        );
    }

    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(out.problems.is_empty())),
        ("attempted".into(), Value::U64(out.attempted.max(1))),
        ("failed".into(), Value::U64(out.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::Map(vec![
        // A failed request makes a latency infinite; JSON has none.
        (
            "value".into(),
            Value::F64(if value.is_finite() { value } else { 1e9 }),
        ),
        ("unit".into(), Value::Str(unit.to_string())),
    ])
}
