//! End-to-end and per-layer benchmark of the HeteroOS simulation stack.
//!
//! The benchmark drives the stack through its public API only. A run
//! repeats one workload's unit of work (an *iteration*) until its time
//! budget is spent. Every iteration does the same work in the same order,
//! timed in short *steps* (one epoch, one cluster round), so a run sees
//! each step many times; with tracing off it reports the end-to-end
//! metrics from each step's fastest time (see [`metrics::end_to_end`]).
//! With tracing on it alternates untraced and traced iterations, records
//! a span around every public call it makes, reads the program's public
//! counters, and reports the per-layer metrics. `perfbench/README.md` is
//! the glossary.
//!
//! Every op (one VM run, one checkpoint round trip, one recovery, one
//! cluster run) is digest-checked against the committed goldens, against
//! the first iteration of the same run (so traced and untraced digests
//! must agree), and by the checks its workload defines. A panicking op is
//! caught and counted as failed; the other ops still run.

pub mod golden;
pub mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use golden::Golden;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six Table-2 apps under three tracking setups (paper Figs 11-12).
    VmTiering,
    /// Two apps with NVM write-behind, checkpoint round trips, power
    /// losses and kernel audits.
    VmDurable,
    /// Rack-scale consolidation with live migration.
    Rack,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::VmTiering, Workload::VmDurable, Workload::Rack];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VmTiering => "vm-tiering",
            Workload::VmDurable => "vm-durable",
            Workload::Rack => "rack",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measurement budget: iterations repeat until it is spent.
    pub seconds: f64,
    /// Fewest iterations per run (per mode, when traced).
    pub min_iterations: usize,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Shortened variant of the workload (the self-tests use it).
    pub short: bool,
    /// Panic inside the op with this 0-based sequence number (self-tests).
    pub inject_panic_at: Option<u64>,
}

impl RunConfig {
    /// A full-size run.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            min_iterations: 3,
            trace,
            short: false,
            inject_panic_at: None,
        }
    }
}

/// What one iteration measured. Sums run over the iteration's legs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Iteration {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds of each timed step, in the order the iteration took
    /// them: together they cover every leg from its first step to its
    /// final report, checkpoint probes left out. Emptied into the run's
    /// fastest steps once the iteration ends.
    pub steps: Vec<f64>,
    /// Host seconds of the whole iteration: the sum of its steps.
    pub wall_s: f64,
    /// Host seconds of each constructor call, in order: every leg builds
    /// its engine or cluster [`SETUP_REPEATS`] times in a row.
    pub setup_s: Vec<f64>,
    /// Guest epochs simulated.
    pub epochs: u64,
    /// Host milliseconds of each checkpoint save, in iteration order.
    pub ckpt_ms: Vec<f64>,
    /// Host milliseconds of each checkpoint restore, in iteration order.
    pub resume_ms: Vec<f64>,
    /// Size of each checkpoint, in bytes.
    pub snap_bytes: Vec<f64>,
    /// Host milliseconds of each `SingleVmSim::recover`.
    pub recover_ms: Vec<f64>,
    /// Layer counters read from the program, summed over legs.
    pub counts: BTreeMap<&'static str, f64>,
    /// Index range of this iteration's spans in the tracer.
    pub spans: std::ops::Range<usize>,
}

impl Iteration {
    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Counter `name`, 0 when never counted.
    pub fn get(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Ends the step that began at `*mark`: records its host time and
    /// starts the next step now.
    pub fn lap(&mut self, mark: &mut Instant) {
        let now = Instant::now();
        self.steps.push((now - *mark).as_secs_f64());
        *mark = now;
    }
}

/// Times each leg builds its engine or cluster per iteration; only the
/// last one built is run. Each repetition yields one set-up sample.
pub(crate) const SETUP_REPEATS: usize = 5;

/// Shared state of one run: the tracer, the op ledger and the checks.
pub(crate) struct Ctx<'g> {
    /// Span recorder (off in untraced iterations).
    pub tracer: Tracer,
    golden: &'g Golden,
    workload: &'static str,
    seed: u64,
    inject_panic_at: Option<u64>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// First digest seen for each op label, and whether it was traced.
    reference: BTreeMap<String, (u64, bool)>,
    /// Every op label and digest, in order (for recording goldens).
    pub digests: Vec<(String, u64)>,
    /// Vacuity guards that did not hold.
    pub guard_failures: BTreeSet<String>,
    /// One line per failed op.
    pub errors: Vec<String>,
}

impl<'g> Ctx<'g> {
    /// A context for `cfg` checked against `golden`.
    pub fn new(cfg: &RunConfig, golden: &'g Golden) -> Self {
        Ctx {
            tracer: Tracer::new(false),
            golden,
            workload: cfg.workload.name(),
            seed: cfg.seed,
            inject_panic_at: cfg.inject_panic_at,
            attempted: 0,
            failed: 0,
            reference: BTreeMap::new(),
            digests: Vec::new(),
            guard_failures: BTreeSet::new(),
            errors: Vec::new(),
        }
    }

    /// Runs one op. `f` returns the digest of the op's output plus a value
    /// for the caller, or why the op failed. A panic inside `f` is caught
    /// and counted. Returns the value unless the op errored or panicked
    /// (a digest mismatch fails the op but still returns the value).
    pub fn op<T>(
        &mut self,
        label: &str,
        f: impl FnOnce(&mut Self) -> Result<(u64, T), String>,
    ) -> Option<T> {
        let seq = self.attempted;
        self.attempted += 1;
        let inject = self.inject_panic_at == Some(seq);
        let prev_op = self.tracer.begin_op(label);
        let span = self.tracer.is_on().then(|| self.tracer.open_span("op"));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                panic!("injected panic in op {seq} ({label})");
            }
            f(self)
        }));
        if let Some(span) = span {
            self.tracer.close_span(span);
        }
        self.tracer.end_op(prev_op);
        match result {
            Ok(Ok((digest, value))) => {
                if let Err(why) = self.check_digest(label, digest) {
                    self.fail(label, why);
                }
                Some(value)
            }
            Ok(Err(why)) => {
                self.fail(label, why);
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                self.fail(label, format!("panicked: {msg}"));
                None
            }
        }
    }

    fn fail(&mut self, label: &str, why: String) {
        self.failed += 1;
        self.errors.push(format!(
            "{} seed {}: op {label} failed: {why}",
            self.workload, self.seed
        ));
    }

    fn check_digest(&mut self, label: &str, digest: u64) -> Result<(), String> {
        self.digests.push((label.to_string(), digest));
        if self.golden.covers(self.workload, self.seed) {
            match self.golden.get(self.workload, self.seed, label) {
                Some(g) if g == digest => {}
                Some(g) => return Err(format!("digest {digest:016x} != golden {g:016x}")),
                None => return Err(format!("digest {digest:016x} has no golden entry")),
            }
        }
        let traced = self.tracer.is_on();
        match self.reference.get(label) {
            None => {
                self.reference.insert(label.to_string(), (digest, traced));
            }
            Some(&(first, first_traced)) if first != digest => {
                return Err(if first_traced != traced {
                    format!("traced and untraced digests differ ({first:016x} vs {digest:016x})")
                } else {
                    format!("digest {digest:016x} differs from the first iteration's {first:016x}")
                });
            }
            Some(_) => {}
        }
        Ok(())
    }

    /// Records a vacuity guard: the workload must keep exercising its
    /// layer, or the run is reported incorrect.
    pub fn guard(&mut self, name: String, holds: bool) {
        if !holds {
            self.guard_failures.insert(name);
        }
    }

    /// Seed of this run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Wraps `f` in a span named `name` (when tracing) and returns its
    /// result together with its host duration.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t = Instant::now();
        let out = self.tracer.span(name, f);
        (out, t.elapsed())
    }
}

/// Everything a run produced.
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Iterations run, and the median host seconds of one (checkpoint
    /// probes left out).
    pub iterations: (usize, f64),
    /// Whether every op passed and every vacuity guard held.
    pub correct: bool,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<metrics::Metric>,
    /// One line per failed op or broken guard.
    pub errors: Vec<String>,
    /// The span document of a traced run.
    pub spans_json: Option<String>,
    /// The first digest of every op label (for recording goldens).
    pub digests: Vec<(String, u64)>,
}

/// Runs one benchmark run.
pub fn run(cfg: &RunConfig, golden: &Golden) -> Outcome {
    let mut ctx = Ctx::new(cfg, golden);
    let budget = Duration::from_secs_f64(cfg.seconds.max(0.0));
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    // Each step's fastest sample so far; kept instead of every sample so
    // that the run's memory does not grow with its length.
    let mut fastest_steps: Vec<f64> = Vec::new();
    loop {
        // A traced run alternates untraced and traced iterations, so both
        // modes see the same share of the machine's fast and slow spells.
        let traced = cfg.trace && iters.len() % 2 == 1;
        ctx.tracer.set_on(traced);
        let began = Instant::now();
        let mark = ctx.tracer.mark();
        let mut it = Iteration {
            traced,
            ..Default::default()
        };
        workloads::iterate(&mut ctx, cfg, &mut it);
        it.spans = mark..ctx.tracer.mark();
        it.wall_s = it.steps.iter().sum();
        if !traced {
            stats::keep_fastest(&mut fastest_steps, &it.steps);
        }
        it.steps = Vec::new();
        iters.push(it);
        // Stop before an iteration that would end past the budget, taking
        // the next one to last as long as the mean iteration or the last
        // one, whichever is longer (a slow spell of the host lengthens
        // the later ones).
        let per_mode = if cfg.trace {
            iters.len() / 2
        } else {
            iters.len()
        };
        let elapsed = start.elapsed();
        let next_end = elapsed + (elapsed / iters.len() as u32).max(began.elapsed());
        if per_mode >= cfg.min_iterations.max(1) && next_end > budget {
            break;
        }
    }
    let peak_rss_kb = stats::peak_rss_kb();
    let metrics = if cfg.trace {
        metrics::per_layer(&iters, ctx.tracer.spans(), peak_rss_kb)
    } else {
        metrics::end_to_end(&iters, &fastest_steps, peak_rss_kb)
    };
    let mut errors = std::mem::take(&mut ctx.errors);
    for g in &ctx.guard_failures {
        errors.push(format!(
            "{} seed {}: vacuity guard failed: {g}",
            cfg.workload.name(),
            cfg.seed
        ));
    }
    Outcome {
        attempted: ctx.attempted,
        failed: ctx.failed,
        iterations: (
            iters.len(),
            stats::median(&iters.iter().map(|it| it.wall_s).collect::<Vec<_>>()),
        ),
        correct: ctx.failed == 0 && ctx.guard_failures.is_empty(),
        metrics,
        errors,
        spans_json: cfg.trace.then(|| ctx.tracer.to_json()),
        digests: first_digests(&ctx.digests),
    }
}

/// The first digest recorded for each op label, in order.
fn first_digests(all: &[(String, u64)]) -> Vec<(String, u64)> {
    let mut seen = BTreeSet::new();
    all.iter()
        .filter(|(label, _)| seen.insert(label.clone()))
        .cloned()
        .collect()
}

/// The result line the benchmark prints last.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit of `v` (non-finite becomes 0).
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}
