//! Host-time spans recorded around the benchmark's own calls into the
//! stack. Spans live in memory and are written out once, at exit.
//!
//! A span has a name (the public call it wraps), start and end in
//! nanoseconds since the tracer was created, the span that encloses it,
//! and the op it belongs to. A disabled tracer records nothing: each
//! `span` call then costs one branch.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or force-closed) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Index of the op that was running, if any (see [`Tracer::to_json`]).
    pub op: Option<usize>,
    /// The call this span wraps, e.g. `SingleVmSim::step`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the spans still open, innermost last.
    open: Vec<usize>,
    ops: Vec<String>,
    current_op: Option<usize>,
}

impl Tracer {
    /// A tracer that records spans when `on`, and nothing otherwise.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: Vec::new(),
            current_op: None,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.open_span(name);
        let out = f();
        self.close_span(idx);
        out
    }

    /// Opens a span and returns its index; pair with [`Tracer::close_span`].
    pub fn open_span(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            op: self.current_op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` and any span still open inside it (left open by
    /// a panic that unwound through them).
    pub fn close_span(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Names the op that the spans opened from now on belong to, and
    /// returns the enclosing op for [`Tracer::end_op`] to restore.
    pub fn begin_op(&mut self, label: &str) -> Option<usize> {
        let prev = self.current_op;
        if self.on {
            self.current_op = Some(self.ops.len());
            self.ops.push(label.to_string());
        }
        prev
    }

    /// Ends the current op, returning to the enclosing one.
    pub fn end_op(&mut self, prev: Option<usize>) {
        self.current_op = prev;
    }

    /// Index of the next span to be recorded: spans from here on belong
    /// to whatever runs next.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one compact JSON document: a span is the row
    /// `[name, start_ns, end_ns, self_ns, parent, op]`, its id is its row
    /// index, and `name` indexes `names` (see `perfbench/README.md`).
    pub fn to_json(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let mut out = String::from(
            "{\n\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"self_ns\", \"parent\", \"op\"],\n",
        );
        let _ = writeln!(out, "\"names\": [{}],", json_strings(names.iter().copied()));
        let _ = writeln!(
            out,
            "\"layers\": [{}],",
            json_strings(names.iter().map(|n| layer_of(n)))
        );
        let _ = writeln!(
            out,
            "\"ops\": [{}],",
            json_strings(self.ops.iter().map(String::as_str))
        );
        out.push_str("\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = names
                .iter()
                .position(|&n| n == s.name)
                .expect("every name is listed");
            let _ = write!(
                out,
                "[{name},{},{},{},{},{}]",
                s.start_ns,
                s.end_ns,
                self_ns[i],
                opt_json(s.parent),
                opt_json(s.op),
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_strings<'a>(v: impl Iterator<Item = &'a str>) -> String {
    v.map(|x| format!("\"{x}\"")).collect::<Vec<_>>().join(", ")
}

fn opt_json(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Self time of every span: its duration minus the time its children
/// cover. The benchmark is single-threaded, so children never overlap
/// and their durations simply add up.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

/// The workspace module a span's call belongs to. Spans the benchmark
/// opens around its own work (ops, digests, checks) belong to `bench`.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "SingleVmSim::new" | "SingleVmSim::step" | "SingleVmSim::report" => "engine",
        "SingleVmSim::save" | "SingleVmSim::restore" | "Cluster::save" | "Cluster::restore" => {
            "snap"
        }
        "SingleVmSim::recover" => "recovery",
        "audit_kernel" | "audit_residency" | "audit_cold_ledger" | "ShadowModel::audit" => "faults",
        "Cluster::new" | "Cluster::step_round" | "Cluster::finish" => "cluster",
        _ => "bench",
    }
}

/// The layers [`layer_of`] can return, in report order.
pub const LAYERS: [&str; 6] = ["engine", "snap", "recovery", "faults", "cluster", "bench"];

/// Summed self time per layer, in nanoseconds, over the spans in
/// `range`, given every span's self time from [`self_times`].
pub fn self_time_by_layer(
    spans: &[Span],
    self_ns: &[u64],
    range: std::ops::Range<usize>,
) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for i in range {
        *out.entry(layer_of(spans[i].name)).or_default() += self_ns[i];
    }
    out
}

/// Durations in nanoseconds of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}
