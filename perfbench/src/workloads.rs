//! The three workloads, one iteration each.
//!
//! Every leg runs single-threaded (`jobs = 1`) in this process, so the
//! host's cores measure the program and not the scheduler. An iteration
//! times its work in steps (see [`Iteration::lap`]): one per epoch or
//! cluster round, and one for the final report.
//!
//! `vm-tiering` and `rack` take no checkpoints of their own, so each of
//! their iterations also probes one checkpoint round trip per engine or
//! cluster, outside the timed steps: it gives them `ckpt_ms` and
//! `resume_ms`, and their runs go on with the live engine.

use hetero_core::experiments::{cluster as fleet, ExpOptions};
use hetero_core::{
    ArrivalProcess, Cluster, ClusterOutcome, ClusterSpec, Policy, RunReport, SimConfig,
    SingleVmSim, Tracking,
};
use hetero_faults::{audit_kernel, audit_residency, sanitize, FaultKind, ShadowModel};
use hetero_mem::{FlushPolicy, TierProfile};
use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, AppWorkload, WorkloadSpec};
use std::time::Instant;

use crate::stats::{digest, splitmix};
use crate::{Ctx, Iteration, RunConfig, Workload, SETUP_REPEATS};

/// `vm-durable` checkpoints (save, then restore in memory) every this
/// many epochs; the shortened variant every [`CKPT_EVERY_SHORT`].
const CKPT_EVERY: u64 = 40;
const CKPT_EVERY_SHORT: u64 = 10;

/// `vm-durable` runs the first 1/`DURABLE_DIVISOR` of each app's
/// instructions, so that a run holds about twice the iterations it would
/// with whole runs: more samples of each timed step.
const DURABLE_DIVISOR: u64 = 2;

const GB: u64 = 1 << 30;

/// One tracking setup of `vm-tiering`.
struct TieringSetup {
    name: &'static str,
    policy: Policy,
    tracking: Option<Tracking>,
    profile: Option<TierProfile>,
}

/// HeteroOS-coordinated (guided scans), VMM-exclusive (full-VM scans),
/// and HeteroOS-coordinated with page-table A/D harvests on Optane DC.
const TIERING_SETUPS: [TieringSetup; 3] = [
    TieringSetup {
        name: "coordinated",
        policy: Policy::HeteroCoordinated,
        tracking: None,
        profile: None,
    },
    TieringSetup {
        name: "vmm-exclusive",
        policy: Policy::VmmExclusive,
        tracking: None,
        profile: None,
    },
    TieringSetup {
        name: "access-bit-optane",
        policy: Policy::HeteroCoordinated,
        tracking: Some(Tracking::AccessBit),
        profile: Some(TierProfile::OptaneDc),
    },
];

/// Divisor applied to every app's instruction count in the shortened
/// variant.
const SHORT_DIVISOR: u64 = 16;

fn app(spec: WorkloadSpec, short: bool) -> WorkloadSpec {
    let mut s = spec;
    if short {
        s.total_instructions /= SHORT_DIVISOR;
    }
    s
}

fn app_label(spec: &WorkloadSpec) -> String {
    spec.name.to_lowercase()
}

/// The paper's two-tier machine at a 1:4 FastMem:SlowMem ratio.
fn paper_machine(seed: u64) -> SimConfig {
    SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
}

fn tiering_config(setup: &TieringSetup, seed: u64, traced: bool) -> SimConfig {
    paper_machine(seed)
        .with_tier_profile(setup.profile)
        .with_tracking(setup.tracking)
        .with_telemetry(traced)
}

/// NVM slow tier with epoch-batched write-behind.
fn durable_config(seed: u64, traced: bool) -> SimConfig {
    SimConfig {
        nvm_slow: true,
        ..paper_machine(seed)
            .with_persist(FlushPolicy::EpochBatched)
            .with_telemetry(traced)
    }
}

/// Runs one iteration of the configured workload.
pub fn iterate(ctx: &mut Ctx, cfg: &RunConfig, it: &mut Iteration) {
    match cfg.workload {
        Workload::VmTiering => vm_tiering(ctx, cfg, it),
        Workload::VmDurable => vm_durable(ctx, cfg, it),
        Workload::Rack => rack(ctx, cfg, it),
    }
}

/// Builds an engine [`SETUP_REPEATS`] times, recording each build's host
/// time, and returns the last one.
fn boot(
    ctx: &mut Ctx,
    it: &mut Iteration,
    cfg: &SimConfig,
    policy: Policy,
    spec: &WorkloadSpec,
) -> SingleVmSim {
    let mut sim = None;
    for _ in 0..SETUP_REPEATS {
        let wl = AppWorkload::new(spec.clone(), cfg.page_size, cfg.scale);
        let c = cfg.clone();
        let (s, t) = ctx.timed("SingleVmSim::new", || SingleVmSim::new(c, policy, wl));
        it.setup_s.push(t.as_secs_f64());
        sim = Some(s);
    }
    sim.expect("SETUP_REPEATS is positive")
}

/// Reads the counters a finished single-VM leg exposes.
fn count_leg(it: &mut Iteration, sim: &SingleVmSim, report: &RunReport) {
    it.epochs += report.epochs;
    it.count("engine.epochs", report.epochs as f64);
    it.count("engine.events_fired", sim.events_fired() as f64);
    it.count("engine.epochs_skipped", sim.epochs_skipped() as f64);
    it.count("vmm.migrations", report.migrations as f64);
    if let Some(t) = sim.telemetry() {
        let r = &t.registry;
        for name in [
            "vmm.scan.passes",
            "vmm.scan.frames",
            "guest.alloc.requests",
            "guest.alloc.fast_misses",
            "guest.pcp.fast_path_hits",
            "guest.pcp.refills",
            "guest.lru.deactivations",
            "guest.swap.pages",
        ] {
            it.count(name, r.counter(name) as f64);
        }
    }
    if let Some(p) = sim.persist_domain() {
        it.count("persist.flushes", p.flushes as f64);
        it.count("persist.fences", p.fences as f64);
        it.count("persist.torn_discards", p.torn_discards as f64);
    }
    it.count("recovery.recovered_frames", sim.recovered_frames() as f64);
    it.count("recovery.lost_frames", sim.lost_frames() as f64);
}

/// Steps `sim` to completion and returns its report. Each epoch is one
/// timed step; the report, with the step that found the run finished, is
/// the last. After epoch `probe.1`, app `probe.0` probes one checkpoint
/// round trip outside the timed steps.
fn run_to_end(
    ctx: &mut Ctx,
    it: &mut Iteration,
    sim: &mut SingleVmSim,
    probe: Option<(&str, u64)>,
) -> RunReport {
    let mut mark = Instant::now();
    let mut epoch = 0u64;
    while ctx.tracer.span("SingleVmSim::step", || sim.step()) {
        it.lap(&mut mark);
        epoch += 1;
        if let Some((app, at)) = probe.filter(|&(_, at)| at == epoch) {
            ctx.op(&format!("{app}/probe-ckpt@{at}"), |ctx| {
                round_trip(ctx, it, sim).map(|(d, _restored)| (d, ()))
            });
            mark = Instant::now();
        }
    }
    let report = ctx.tracer.span("SingleVmSim::report", || sim.report());
    it.lap(&mut mark);
    report
}

fn vm_tiering(ctx: &mut Ctx, cfg: &RunConfig, it: &mut Iteration) {
    let traced = ctx.tracer.is_on();
    for (i, setup) in TIERING_SETUPS.iter().enumerate() {
        let mut migrations = 0;
        for spec in apps::all() {
            let spec = app(spec, cfg.short);
            let name = app_label(&spec);
            let label = format!("{name}/{}", setup.name);
            let sim_cfg = tiering_config(setup, ctx.seed(), traced);
            // The HeteroOS-coordinated legs probe a checkpoint at half run.
            let probe = (i == 0).then(|| (name.as_str(), spec.epochs() / 2));
            let migrated = ctx.op(&label, |ctx| {
                let mut sim = boot(ctx, it, &sim_cfg, setup.policy, &spec);
                let report = run_to_end(ctx, it, &mut sim, probe);
                count_leg(it, &sim, &report);
                ctx.guard(format!("{label} scans"), report.scanned_pages > 0);
                Ok((digest(report.to_json().as_bytes()), report.migrations))
            });
            migrations += migrated.unwrap_or(0);
        }
        ctx.guard(format!("{} migrates pages", setup.name), migrations > 0);
    }
}

/// Runs the four hetero-faults kernel audits over `sim`'s guest kernel.
fn audit(ctx: &mut Ctx, it: &mut Iteration, sim: &SingleVmSim) -> Result<(), String> {
    let k = sim.kernel();
    let mut v = ctx.tracer.span("audit_kernel", || audit_kernel(k));
    ctx.tracer
        .span("audit_residency", || audit_residency(k, &mut v));
    ctx.tracer.span("audit_cold_ledger", || {
        sanitize::audit_cold_ledger(k, &mut v)
    });
    ctx.tracer
        .span("ShadowModel::audit", || ShadowModel::new().audit(k, &mut v));
    it.count("faults.violations", v.len() as f64);
    match v.first() {
        None => Ok(()),
        Some(first) => Err(format!("{} audit violation(s), first: {first}", v.len())),
    }
}

/// One checkpoint round trip: save, restore in memory, and check that the
/// restored engine reports exactly what the live one does. Returns the
/// report's digest and the restored engine.
fn round_trip(
    ctx: &mut Ctx,
    it: &mut Iteration,
    sim: &SingleVmSim,
) -> Result<(u64, SingleVmSim), String> {
    let before = ctx
        .tracer
        .span("SingleVmSim::report", || sim.report())
        .to_json();
    let (bytes, t_save) = ctx.timed("SingleVmSim::save", || sim.save());
    let (restored, t_restore) = ctx.timed("SingleVmSim::restore", || SingleVmSim::restore(&bytes));
    it.ckpt_ms.push(t_save.as_secs_f64() * 1e3);
    it.resume_ms.push(t_restore.as_secs_f64() * 1e3);
    it.snap_bytes.push(bytes.len() as f64);
    drop(bytes);
    let restored = restored.map_err(|e| format!("restore failed: {e}"))?;
    let after = ctx
        .tracer
        .span("SingleVmSim::report", || restored.report())
        .to_json();
    if after != before {
        return Err("the restored engine reports differently from the saved one".to_string());
    }
    Ok((digest(after.as_bytes()), restored))
}

/// `vm-durable`'s checkpoint: a round trip whose restored engine is
/// audited before the run goes on with it.
fn checkpoint(
    ctx: &mut Ctx,
    it: &mut Iteration,
    sim: &SingleVmSim,
) -> Result<(u64, SingleVmSim), String> {
    let (d, restored) = round_trip(ctx, it, sim)?;
    audit(ctx, it, &restored)?;
    Ok((d, restored))
}

/// One host power loss through `SingleVmSim::recover`, audited.
fn power_loss(
    ctx: &mut Ctx,
    it: &mut Iteration,
    sim: &mut SingleVmSim,
) -> Result<(u64, ()), String> {
    let ((), t) = ctx.timed("SingleVmSim::recover", || {
        sim.recover(FaultKind::HostPowerLoss)
    });
    it.recover_ms.push(t.as_secs_f64() * 1e3);
    audit(ctx, it, sim)?;
    let report = ctx.tracer.span("SingleVmSim::report", || sim.report());
    let out = format!(
        "{}\nrecovered_frames {}\nlost_frames {}",
        report.to_json(),
        sim.recovered_frames(),
        sim.lost_frames()
    );
    Ok((digest(out.as_bytes()), ()))
}

/// The epoch after which leg `leg` loses host power: uniform over the
/// middle tenth of its run, drawn from the seed. The later the crash, the
/// more a run costs, so a wider window would make `wall_s` track the seed
/// (±8 % over the middle half) rather than the program.
fn crash_epoch(seed: u64, leg: u64, epochs: u64) -> u64 {
    let span = (epochs / 10).max(1);
    epochs * 9 / 20 + splitmix(seed ^ 0xc4a5_11e9_u64.wrapping_mul(leg + 1)) % span
}

fn vm_durable(ctx: &mut Ctx, cfg: &RunConfig, it: &mut Iteration) {
    let traced = ctx.tracer.is_on();
    let every = if cfg.short {
        CKPT_EVERY_SHORT
    } else {
        CKPT_EVERY
    };
    let mut snapshots = 0u64;
    for (leg, spec) in [apps::redis(), apps::graphchi()].into_iter().enumerate() {
        let mut spec = app(spec, cfg.short);
        spec.total_instructions /= DURABLE_DIVISOR;
        let name = app_label(&spec);
        let crash_at = crash_epoch(ctx.seed(), leg as u64, spec.epochs());
        let sim_cfg = durable_config(ctx.seed(), traced);
        ctx.op(&format!("{name}/run"), |ctx| {
            let mut sim = boot(ctx, it, &sim_cfg, Policy::HeteroCoordinated, &spec);
            // One timed step per epoch: the step, its audit, and the
            // checkpoint or power loss due after it.
            let mut mark = Instant::now();
            let mut epoch = 0u64;
            while ctx.tracer.span("SingleVmSim::step", || sim.step()) {
                epoch += 1;
                audit(ctx, it, &sim)?;
                if epoch.is_multiple_of(every) {
                    let label = format!("{name}/ckpt@{epoch}");
                    // A failed round trip is counted; the run continues on
                    // the live engine.
                    if let Some(restored) = ctx.op(&label, |ctx| checkpoint(ctx, it, &sim)) {
                        sim = restored;
                        snapshots += 1;
                    }
                }
                if epoch == crash_at {
                    ctx.op(&format!("{name}/recover@{epoch}"), |ctx| {
                        power_loss(ctx, it, &mut sim)
                    });
                }
                it.lap(&mut mark);
            }
            let report = ctx.tracer.span("SingleVmSim::report", || sim.report());
            it.lap(&mut mark);
            count_leg(it, &sim, &report);
            Ok((digest(report.to_json().as_bytes()), ()))
        });
    }
    ctx.guard(
        "vm-durable takes snapshots".to_string(),
        snapshots > 0 && it.snap_bytes.iter().all(|&b| b > 0.0),
    );
    ctx.guard(
        "vm-durable flushes".to_string(),
        it.get("persist.flushes") > 0.0,
    );
    ctx.guard(
        "vm-durable recovers frames".to_string(),
        it.get("recovery.recovered_frames") > 0.0,
    );
}

/// Hosts of the full rack scenario.
const RACK_HOSTS: usize = 8;
/// VM arrivals of the full rack scenario.
const RACK_VMS: usize = 500;

/// The `repro cluster` scenario: Poisson arrivals over the four VM
/// templates onto DRF hosts, pre-copy live migration armed. The shortened
/// variant is `repro cluster --quick`.
fn rack_spec(cfg: &RunConfig) -> ClusterSpec {
    let base = if cfg.short {
        ExpOptions::quick()
    } else {
        ExpOptions::default()
    };
    let opts = ExpOptions {
        seed: cfg.seed,
        jobs: 1,
        ..base
    };
    let mut spec = fleet::fleet_spec(&opts);
    if !cfg.short {
        spec.hosts = RACK_HOSTS;
        if let ArrivalProcess::Poisson { count, .. } = &mut spec.arrivals {
            *count = RACK_VMS;
        }
    }
    spec
}

/// Builds the rack's cluster (single-threaded host stepping).
fn rack_cluster(host: SimConfig, spec: ClusterSpec) -> Cluster {
    Cluster::new(
        host,
        SharePolicy::paper_drf(),
        Policy::HeteroCoordinated,
        spec,
        1,
    )
}

/// The machine shape every rack host has.
fn host_config(cfg: &RunConfig) -> SimConfig {
    SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(cfg.seed)
}

/// Checks the conservation laws of a finished cluster run.
fn check_cluster(outcome: &ClusterOutcome) -> Result<(), String> {
    let r = &outcome.report;
    if r.departures != r.arrivals {
        return Err(format!(
            "{} arrivals but {} departures",
            r.arrivals, r.departures
        ));
    }
    if let Some(h) = r.per_host.iter().find(|h| h.final_consumed != 0) {
        return Err(format!(
            "host {} still grants {} pages at the end",
            h.host, h.final_consumed
        ));
    }
    Ok(())
}

fn rack(ctx: &mut Ctx, cfg: &RunConfig, it: &mut Iteration) {
    ctx.op("cluster", |ctx| {
        let mut cluster = None;
        for _ in 0..SETUP_REPEATS {
            let (host, spec) = (host_config(cfg), rack_spec(cfg));
            let (c, t) = ctx.timed("Cluster::new", || rack_cluster(host, spec));
            it.setup_s.push(t.as_secs_f64());
            cluster = Some(c);
        }
        let mut cluster = cluster.expect("SETUP_REPEATS is positive");
        // One timed step per round; the last is `finish`, with the round
        // that found the rack idle.
        let mut mark = Instant::now();
        let mut rounds = 0u64;
        while ctx
            .tracer
            .span("Cluster::step_round", || cluster.step_round())
        {
            it.lap(&mut mark);
            rounds += 1;
            if rounds == rack_probe_round(cfg) {
                ctx.op("cluster/probe-ckpt", |ctx| {
                    cluster_round_trip(ctx, it, &cluster)
                });
                mark = Instant::now();
            }
        }
        let (outcome, violations) = ctx.tracer.span("Cluster::finish", || cluster.finish());
        it.lap(&mut mark);
        let r = &outcome.report;
        it.epochs += r.epochs;
        it.count("engine.epochs", r.epochs as f64);
        it.count("faults.violations", violations.len() as f64);
        // Per-VM reports count scanned frames in real 4 KiB pages; the
        // single-VM registry counts simulated frames.
        let granule = host_config(cfg).granule() as f64;
        for (_, vm) in &outcome.vm_reports {
            it.count("vmm.scan.passes", vm.scans as f64);
            it.count("vmm.scan.frames", vm.scanned_pages as f64 / granule);
            it.count("vmm.migrations", vm.migrations as f64);
        }
        for (name, v) in [
            ("cluster.rounds", r.rounds),
            ("cluster.arrivals", r.arrivals),
            ("cluster.deferrals", r.deferrals),
            ("cluster.migrations", r.migrations),
            ("cluster.precopy_rounds", r.precopy_rounds),
            ("cluster.pages_copied", r.pages_copied),
            (
                "cluster.peak_live_vms",
                r.per_host.iter().map(|h| h.peak_live).sum(),
            ),
        ] {
            it.count(name, v as f64);
        }
        ctx.guard("rack defers arrivals".to_string(), r.deferrals > 0);
        ctx.guard("rack live-migrates".to_string(), r.migrations >= 1);
        if let Some(v) = violations.first() {
            return Err(format!(
                "{} cluster violation(s), first: {v}",
                violations.len()
            ));
        }
        check_cluster(&outcome)?;
        Ok((digest(outcome.to_json().as_bytes()), ()))
    });
}

/// The rack's checkpoint probe: save the cluster, restore it in memory,
/// and check that the copy saves the same bytes. The digest is the
/// snapshot's.
fn cluster_round_trip(
    ctx: &mut Ctx,
    it: &mut Iteration,
    cluster: &Cluster,
) -> Result<(u64, ()), String> {
    let (bytes, t_save) = ctx.timed("Cluster::save", || cluster.save());
    let (restored, t_restore) = ctx.timed("Cluster::restore", || Cluster::restore(&bytes, 1));
    it.ckpt_ms.push(t_save.as_secs_f64() * 1e3);
    it.resume_ms.push(t_restore.as_secs_f64() * 1e3);
    it.snap_bytes.push(bytes.len() as f64);
    let restored = restored.map_err(|e| format!("restore failed: {e}"))?;
    if restored.save() != bytes {
        return Err("the restored cluster saves different bytes".to_string());
    }
    Ok((digest(&bytes), ()))
}

/// The round after which the rack probes a checkpoint of its cluster,
/// once the hosts are saturated.
fn rack_probe_round(cfg: &RunConfig) -> u64 {
    if cfg.short {
        20
    } else {
        200
    }
}
