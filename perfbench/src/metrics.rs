//! Turns iterations and spans into the reported metrics.
//!
//! Every run reports the same metric names whatever its workload: a
//! layer a workload does not exercise reads 0 (ratios with a zero base
//! too). `perfbench/README.md` defines each metric.

use crate::stats::{fastest, median, percentile, ratio};
use crate::trace::{durations, self_time_by_layer, self_times, Span};
use crate::{Iteration, SETUP_REPEATS};

/// A reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// End-to-end metrics, in report order, with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("epochs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ckpt_ms", "ms"),
    ("resume_ms", "ms"),
];

/// Per-layer metrics, in report order, with their units.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("engine.boot_ms", "ms"),
    ("engine.step_s", "s"),
    ("engine.step_p50_us", "us"),
    ("engine.step_p99_us", "us"),
    ("engine.step_samples", "count"),
    ("engine.epochs", "count"),
    ("engine.events_fired", "count"),
    ("engine.skip_ratio", "ratio"),
    ("vmm.scan.passes", "count"),
    ("vmm.scan.frames", "count"),
    ("vmm.migrations", "count"),
    ("vmm.frames_per_migration", "ratio"),
    ("guest.alloc.requests", "count"),
    ("guest.alloc.fast_miss_ratio", "ratio"),
    ("guest.pcp.hit_ratio", "ratio"),
    ("guest.lru.deactivations", "count"),
    ("guest.swap.pages", "count"),
    ("persist.flushes", "count"),
    ("persist.fences", "count"),
    ("persist.torn_discards", "count"),
    ("recovery.recover_ms", "ms"),
    ("recovery.samples", "count"),
    ("recovery.recovered_frames", "count"),
    ("recovery.lost_frames", "count"),
    ("faults.audit_s", "s"),
    ("faults.audit_us_per_epoch", "us"),
    ("faults.violations", "count"),
    ("snap.bytes", "B"),
    ("snap.save_ns_per_byte", "ns/B"),
    ("snap.restore_ns_per_byte", "ns/B"),
    ("snap.save_p90_ms", "ms"),
    ("snap.restore_p90_ms", "ms"),
    ("snap.samples", "count"),
    ("cluster.rounds", "count"),
    ("cluster.round_p50_ms", "ms"),
    ("cluster.round_p99_ms", "ms"),
    ("cluster.round_samples", "count"),
    ("cluster.finish_ms", "ms"),
    ("cluster.deferrals", "count"),
    ("cluster.admit_ratio", "ratio"),
    ("cluster.migrations", "count"),
    ("cluster.precopy_rounds", "count"),
    ("cluster.pages_copied", "count"),
    ("cluster.peak_live_vms", "count"),
    ("cluster.rss_kb_per_live_vm", "KiB"),
    ("trace.overhead_pct", "%"),
    ("engine.self_s", "s"),
    ("snap.self_s", "s"),
    ("recovery.self_s", "s"),
    ("faults.self_s", "s"),
    ("cluster.self_s", "s"),
    ("bench.self_s", "s"),
];

fn pooled(iters: &[&Iteration], f: impl Fn(&Iteration) -> &Vec<f64>) -> Vec<f64> {
    iters.iter().flat_map(|it| f(it).iter().copied()).collect()
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn with_units(table: &[(&str, &'static str)], values: Vec<f64>) -> Vec<Metric> {
    assert_eq!(table.len(), values.len(), "one value per metric");
    table
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// End-to-end metrics of an untraced run.
///
/// Every iteration takes the same steps and checkpoints in the same
/// order, so step `k` of one iteration is the same work as step `k` of
/// any other. `fastest_steps` holds each step's fastest time over the
/// run's iterations, and `wall_s` is their sum: interference from other
/// tenants of the host only ever adds time, so the fastest sample is the
/// best estimate of what the step itself costs, and a step needs just one
/// undisturbed sample in the whole run. `ckpt_ms` and `resume_ms` are the
/// median over checkpoints of each checkpoint's fastest time. `setup_s` is
/// the median over the [`SETUP_REPEATS`] set-ups of an iteration, each the
/// sum over legs of its constructor calls' fastest times.
pub(crate) fn end_to_end(
    iters: &[Iteration],
    fastest_steps: &[f64],
    peak_rss_kb: u64,
) -> Vec<Metric> {
    let wall: f64 = fastest_steps.iter().sum();
    let mut setups = [0.0; SETUP_REPEATS];
    for (k, t) in fastest(iters.iter().map(|it| &it.setup_s))
        .iter()
        .enumerate()
    {
        setups[k % SETUP_REPEATS] += t;
    }
    let epochs = iters.first().map_or(0, |it| it.epochs);
    with_units(
        &END_TO_END,
        vec![
            wall,
            ratio(epochs as f64, wall),
            median(&setups),
            peak_rss_kb as f64 / 1024.0,
            median(&fastest(iters.iter().map(|it| &it.ckpt_ms))),
            median(&fastest(iters.iter().map(|it| &it.resume_ms))),
        ],
    )
}

/// Per-layer metrics of a traced run. Sums and counts are medians over
/// the traced iterations; distributions pool every traced sample, and
/// the `*_samples` metrics give their sample counts.
pub(crate) fn per_layer(iters: &[Iteration], spans: &[Span], peak_rss_kb: u64) -> Vec<Metric> {
    let traced: Vec<&Iteration> = iters.iter().filter(|it| it.traced).collect();
    let untraced: Vec<&Iteration> = iters.iter().filter(|it| !it.traced).collect();
    let spans_of = |it: &Iteration| &spans[it.spans.clone()];
    let traced_spans: Vec<Span> = traced
        .iter()
        .flat_map(|it| spans_of(it).iter().cloned())
        .collect();
    let med =
        |f: &dyn Fn(&Iteration) -> f64| median(&traced.iter().map(|it| f(it)).collect::<Vec<_>>());
    let count = |name: &'static str| med(&|it: &Iteration| it.get(name));
    let span_sum_s = |it: &Iteration, names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| durations(spans_of(it), n).iter().sum::<u64>() as f64 / 1e9)
            .sum()
    };

    let step_us: Vec<f64> = durations(&traced_spans, "SingleVmSim::step")
        .iter()
        .map(|&n| n as f64 / 1e3)
        .collect();
    let rounds_ms = ms(&durations(&traced_spans, "Cluster::step_round"));
    let epochs = count("engine.epochs");
    let audits = [
        "audit_kernel",
        "audit_residency",
        "audit_cold_ledger",
        "ShadowModel::audit",
    ];
    let audit_s = med(&|it: &Iteration| span_sum_s(it, &audits));

    let bytes = pooled(&traced, |it| &it.snap_bytes);
    let total_bytes: f64 = bytes.iter().sum();
    let save_ms = pooled(&traced, |it| &it.ckpt_ms);
    let restore_ms = pooled(&traced, |it| &it.resume_ms);

    let arrivals = count("cluster.arrivals");
    let deferrals = count("cluster.deferrals");
    let peak_live = count("cluster.peak_live_vms");
    let traced_wall = med(&|it: &Iteration| it.wall_s);
    let untraced_wall = median(&untraced.iter().map(|it| it.wall_s).collect::<Vec<_>>());
    let self_ns = self_times(spans);
    let self_s = |layer: &str| {
        med(&|it: &Iteration| {
            self_time_by_layer(spans, &self_ns, it.spans.clone())[layer] as f64 / 1e9
        })
    };

    with_units(
        &PER_LAYER,
        vec![
            median(&ms(&durations(&traced_spans, "SingleVmSim::new"))),
            med(&|it: &Iteration| span_sum_s(it, &["SingleVmSim::step"])),
            percentile(&step_us, 50.0),
            percentile(&step_us, 99.0),
            step_us.len() as f64,
            epochs,
            count("engine.events_fired"),
            ratio(count("engine.epochs_skipped"), epochs),
            count("vmm.scan.passes"),
            count("vmm.scan.frames"),
            count("vmm.migrations"),
            ratio(count("vmm.scan.frames"), count("vmm.migrations")),
            count("guest.alloc.requests"),
            ratio(
                count("guest.alloc.fast_misses"),
                count("guest.alloc.requests"),
            ),
            ratio(
                count("guest.pcp.fast_path_hits"),
                count("guest.pcp.fast_path_hits") + count("guest.pcp.refills"),
            ),
            count("guest.lru.deactivations"),
            count("guest.swap.pages"),
            count("persist.flushes"),
            count("persist.fences"),
            count("persist.torn_discards"),
            median(&pooled(&traced, |it| &it.recover_ms)),
            pooled(&traced, |it| &it.recover_ms).len() as f64,
            count("recovery.recovered_frames"),
            count("recovery.lost_frames"),
            audit_s,
            ratio(audit_s * 1e6, epochs),
            count("faults.violations"),
            median(&bytes),
            ratio(save_ms.iter().sum::<f64>() * 1e6, total_bytes),
            ratio(restore_ms.iter().sum::<f64>() * 1e6, total_bytes),
            percentile(&save_ms, 90.0),
            percentile(&restore_ms, 90.0),
            bytes.len() as f64,
            count("cluster.rounds"),
            percentile(&rounds_ms, 50.0),
            percentile(&rounds_ms, 99.0),
            rounds_ms.len() as f64,
            median(&ms(&durations(&traced_spans, "Cluster::finish"))),
            deferrals,
            ratio(arrivals, arrivals + deferrals),
            count("cluster.migrations"),
            count("cluster.precopy_rounds"),
            count("cluster.pages_copied"),
            peak_live,
            ratio(peak_rss_kb as f64, peak_live),
            ratio((traced_wall - untraced_wall) * 100.0, untraced_wall),
            self_s("engine"),
            self_s("snap"),
            self_s("recovery"),
            self_s("faults"),
            self_s("cluster"),
            self_s("bench"),
        ],
    )
}
