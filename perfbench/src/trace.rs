//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; the program itself is not
//! instrumented. A span has a name (the layer), start and end, the span
//! that caused it and a request id shared by every span of one request
//! or one publish. Spans stay in memory and are written out once, when
//! the run ends.
//!
//! A layer's self time is its span's duration minus the durations of
//! its child spans. For nested spans that is the part of the interval
//! the children do not cover. The serving replay records children that
//! ran after their parent (the in-process `AnswerService` and kernel
//! calls re-run on the same store and request order), so subtracting
//! durations rather than intervals is what makes the two cases agree.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

/// One recorded span. Times are microseconds since the tracer began.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub request: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// The recorder. When disabled every call is a no-op apart from the
/// closure it wraps, so untraced runs pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<String, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Microseconds since the tracer began, for an instant taken
    /// elsewhere (the load generator's timestamps).
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us,
            end_us: start_us,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records a finished span with explicit bounds and parent; returns
    /// its id so children can point at it.
    pub fn record(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        let id = self.spans.len();
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                start_us,
                end_us,
                request,
            });
        }
        id
    }

    /// Appends spans recorded by another process (the publisher),
    /// renumbering ids so they stay unique.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        if !self.enabled {
            return;
        }
        let base = self.spans.len();
        for mut s in spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Records one observation of a counted quantity (bytes written,
    /// cache hits) at the boundary where the work happens.
    pub fn add_count(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.counts.entry(name.to_string()).or_default().push(value);
        }
    }

    pub fn counts(&self) -> &BTreeMap<String, Vec<f64>> {
        &self.counts
    }

    pub fn counts_json(&self) -> Value {
        Value::Map(
            self.counts
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Value::Seq(v.iter().map(|&x| Value::F64(x)).collect()),
                    )
                })
                .collect(),
        )
    }

    /// Merges counts written by [`Tracer::counts_json`] elsewhere.
    pub fn absorb_counts(&mut self, value: &Value) {
        for (name, values) in value.as_map().unwrap_or_default() {
            for v in values.as_seq().unwrap_or_default() {
                if let Value::F64(x) = v {
                    self.add_count(name, *x);
                }
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_us();
        }
    }
    out
}

/// Self times grouped by span name, in recording order per name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times(spans);
    let mut by: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        by.entry(s.name.clone()).or_default().push(t);
    }
    by
}

/// Every span as one JSON document, for the trace file.
pub fn to_json(spans: &[Span]) -> Value {
    Value::Seq(
        spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("id".into(), Value::U64(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("name".into(), Value::Str(s.name.clone())),
                    ("start_us".into(), Value::F64(s.start_us)),
                    ("end_us".into(), Value::F64(s.end_us)),
                    ("request".into(), Value::U64(s.request)),
                ])
            })
            .collect(),
    )
}

/// Parses spans written by [`to_json`].
pub fn from_json(value: &Value) -> Option<Vec<Span>> {
    let mut out = Vec::new();
    for item in value.as_seq()? {
        let map = item.as_map()?;
        let get = |k: &str| map.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let num = |k: &str| match get(k)? {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        };
        out.push(Span {
            id: num("id")? as usize,
            parent: num("parent").map(|p| p as usize),
            name: match get("name")? {
                Value::Str(s) => s.clone(),
                _ => return None,
            },
            start_us: num("start_us")?,
            end_us: num("end_us")?,
            request: num("request")? as u64,
        });
    }
    Some(out)
}
