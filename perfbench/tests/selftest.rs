//! Self-tests of the benchmark's checks, on shortened workloads.

use perfbench::golden::Golden;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::{run, Outcome, RunConfig, Workload};

/// One iteration (one per mode when traced) of the shortened variant.
fn short(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        min_iterations: 1,
        short: true,
        ..RunConfig::new(workload, 5, 0.0, trace)
    }
}

fn metric_names(o: &Outcome) -> Vec<&str> {
    o.metrics.iter().map(|(n, _, _)| n.as_str()).collect()
}

#[test]
fn corrupted_golden_digest_is_a_failed_op_not_a_crash() {
    let cfg = short(Workload::VmTiering, false);
    let clean = run(&cfg, &Golden::default());
    assert_eq!(clean.failed, 0, "{:?}", clean.errors);

    let mut golden = Golden::default();
    for (op, d) in &clean.digests {
        golden.insert("vm-tiering", cfg.seed, op, *d);
    }
    let pinned = run(&cfg, &golden);
    assert_eq!(pinned.failed, 0, "{:?}", pinned.errors);

    let (victim, d) = clean.digests[4].clone();
    golden.insert("vm-tiering", cfg.seed, &victim, d ^ 1);
    let corrupted = run(&cfg, &golden);
    assert_eq!(corrupted.attempted, clean.attempted);
    assert_eq!(corrupted.failed, 1, "{:?}", corrupted.errors);
    assert!(!corrupted.correct);
    assert!(corrupted.errors[0].contains(&victim) && corrupted.errors[0].contains("golden"));
}

#[test]
fn injected_panic_is_counted_and_the_other_ops_still_run() {
    let cfg = short(Workload::VmDurable, false);
    let clean = run(&cfg, &Golden::default());
    assert_eq!(clean.failed, 0, "{:?}", clean.errors);
    // Op 1 is the first checkpoint round trip, nested inside the first VM
    // run; the run goes on with its live engine.
    let panicky = run(
        &RunConfig {
            inject_panic_at: Some(1),
            ..cfg.clone()
        },
        &Golden::default(),
    );
    assert_eq!(panicky.attempted, clean.attempted);
    assert_eq!(panicky.failed, 1, "{:?}", panicky.errors);
    assert!(panicky.errors[0].contains("injected panic"));
    // A panic in a whole VM run loses the ops nested in it, but the next
    // VM run still goes ahead.
    let nested = clean
        .digests
        .iter()
        .filter(|(op, _)| op.starts_with("redis/") && op != "redis/run")
        .count();
    let lost_run = run(
        &RunConfig {
            inject_panic_at: Some(0),
            ..cfg
        },
        &Golden::default(),
    );
    assert_eq!(lost_run.failed, 1, "{:?}", lost_run.errors);
    assert_eq!(lost_run.attempted, clean.attempted - nested as u64);
}

#[test]
fn traced_and_untraced_digests_agree_on_every_shortened_workload() {
    for w in Workload::ALL {
        let untraced = run(&short(w, false), &Golden::default());
        assert_eq!(untraced.failed, 0, "{}: {:?}", w.name(), untraced.errors);
        // A traced run checks its traced iteration against its untraced one.
        let traced = run(&short(w, true), &Golden::default());
        assert_eq!(traced.failed, 0, "{}: {:?}", w.name(), traced.errors);
        assert_eq!(traced.digests, untraced.digests, "{}", w.name());
        assert!(traced
            .spans_json
            .as_deref()
            .is_some_and(|s| s.contains("\"spans\"")));
    }
}

/// Every metric the benchmark's definition names.
const NAMED: [&str; 56] = [
    "wall_s",
    "epochs_per_s",
    "setup_s",
    "peak_rss_mb",
    "ckpt_ms",
    "resume_ms",
    "engine.boot_ms",
    "engine.step_s",
    "engine.step_p50_us",
    "engine.step_p99_us",
    "engine.epochs",
    "engine.events_fired",
    "engine.skip_ratio",
    "vmm.scan.passes",
    "vmm.scan.frames",
    "vmm.migrations",
    "vmm.frames_per_migration",
    "guest.alloc.requests",
    "guest.alloc.fast_miss_ratio",
    "guest.pcp.hit_ratio",
    "guest.lru.deactivations",
    "guest.swap.pages",
    "persist.flushes",
    "persist.fences",
    "persist.torn_discards",
    "recovery.recover_ms",
    "recovery.recovered_frames",
    "recovery.lost_frames",
    "faults.audit_s",
    "faults.audit_us_per_epoch",
    "faults.violations",
    "snap.bytes",
    "snap.save_ns_per_byte",
    "snap.restore_ns_per_byte",
    "snap.save_p90_ms",
    "snap.restore_p90_ms",
    "cluster.rounds",
    "cluster.round_p50_ms",
    "cluster.round_p99_ms",
    "cluster.finish_ms",
    "cluster.deferrals",
    "cluster.admit_ratio",
    "cluster.migrations",
    "cluster.precopy_rounds",
    "cluster.pages_copied",
    "cluster.peak_live_vms",
    "cluster.rss_kb_per_live_vm",
    "trace.overhead_pct",
    "engine.step_samples",
    "cluster.round_samples",
    "engine.self_s",
    "faults.self_s",
    "snap.self_s",
    "recovery.self_s",
    "cluster.self_s",
    "bench.self_s",
];

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[test]
fn every_named_metric_is_emitted_and_well_formed() {
    let w = Workload::Rack;
    let mut emitted: Vec<String> = Vec::new();
    for trace in [false, true] {
        let o = run(&short(w, trace), &Golden::default());
        let names = metric_names(&o);
        let table: Vec<&str> = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        }
        .iter()
        .map(|(n, _)| *n)
        .collect();
        assert_eq!(names, table, "a run reports exactly its mode's metrics");
        assert!(o.metrics.iter().all(|(_, v, _)| v.is_finite()));
        emitted.extend(names.iter().map(|n| n.to_string()));
    }
    for name in NAMED {
        assert!(emitted.iter().any(|e| e == name), "{name} is not emitted");
    }
    for name in &emitted {
        assert!(well_formed(name), "{name} is not a valid metric name");
    }
    let mut unique = emitted.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), emitted.len(), "metric names are unique");
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    // The two lists are the file's last keys, end-to-end first.
    let e2e = text.find("\"end_to_end\"").expect("end_to_end present");
    let layer = text.find("\"per_layer\"").expect("per_layer present");
    assert!(e2e < layer);
    for (sec, key, table) in [
        (&text[e2e..layer], "end_to_end", &END_TO_END[..]),
        (&text[layer..], "per_layer", &PER_LAYER[..]),
    ] {
        let listed = sec.matches("\"name\"").count();
        assert_eq!(listed, table.len(), "{key} lists every metric once");
        for (name, unit) in table {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(sec.contains(&entry), "{key} lacks {entry}");
        }
    }
}
