//! Rack-scale cluster consolidation (`repro cluster`).
//!
//! The paper evaluates HeteroOS on one host; §6 argues the design is meant
//! for datacenters, where VMs arrive, depart, and get consolidated across
//! racks. This driver runs the [`crate::cluster::Cluster`] layer at that
//! scale: a fleet of hosts (16 by default, §5.1-shaped), a seeded Poisson
//! or trace-driven arrival stream drawing from four VM templates, and the
//! consolidation balancer performing inter-host pre-copy live migrations
//! priced through the Table 6 cost model.
//!
//! The full-length run admits 1,000 VMs; quick mode shrinks the fleet to
//! 120 VMs on 4 hosts. Both are byte-identical across `--jobs` counts.

use hetero_sim::Nanos;
use hetero_vmm::SharePolicy;
use hetero_workloads::{apps, WorkloadSpec};

use crate::cluster::{
    mean_peak_live, ArrivalMode, ArrivalProcess, Cluster, ClusterOutcome, ClusterSpec,
    MigrationPolicy,
};
use crate::experiments::ExpOptions;
use crate::multivm::VmSetup;
use crate::{Policy, SimConfig};

const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

/// Default host count for the full-length run (`--hosts` overrides).
pub const DEFAULT_HOSTS: usize = 16;
/// Default host count in quick mode.
pub const DEFAULT_HOSTS_QUICK: usize = 4;
/// Arrivals in the full-length run.
pub const DEFAULT_VMS: usize = 1000;
/// Arrivals in quick mode.
pub const DEFAULT_VMS_QUICK: usize = 120;

/// Shrinks a workload so a thousand of them finish in seconds of
/// wall-clock: the cluster experiment studies placement and migration
/// dynamics, not per-VM epoch behaviour (the single-host experiments
/// already cover that).
fn fleet_app(base: WorkloadSpec, opts: &ExpOptions) -> WorkloadSpec {
    let mut s = opts.tune(base);
    s.total_instructions /= 64;
    s
}

/// The four VM templates the arrival process draws from: two cache-tier
/// services, a web frontend, and a periodic analytics job with a
/// footprint several times the others (the consolidation stressor).
pub fn fleet_templates(opts: &ExpOptions) -> Vec<VmSetup> {
    vec![
        VmSetup::new(
            fleet_app(apps::redis(), opts),
            64 * MB,
            128 * MB,
            256 * MB,
            512 * MB,
        ),
        VmSetup::new(
            fleet_app(apps::leveldb(), opts),
            64 * MB,
            128 * MB,
            256 * MB,
            512 * MB,
        ),
        VmSetup::new(
            fleet_app(apps::nginx(), opts),
            32 * MB,
            64 * MB,
            128 * MB,
            256 * MB,
        ),
        VmSetup::new(
            fleet_app(apps::graphchi(), opts),
            256 * MB,
            512 * MB,
            GB,
            2 * GB,
        ),
    ]
}

/// The §5.1 host shape every cluster host uses.
fn host_cfg(opts: &ExpOptions) -> SimConfig {
    SimConfig::paper_default()
        .with_fast_bytes(4 * GB)
        .with_slow_bytes(8 * GB)
        .with_seed(opts.seed)
        .with_audit(opts.audit)
        .with_sched(opts.sched)
}

/// The built-in deterministic trace: bursts of eight VMs every 40 ms,
/// cycling through the templates — a worst-case synchronized-arrival
/// pattern the Poisson stream never produces.
fn burst_trace(count: usize, templates: usize) -> Vec<(Nanos, usize)> {
    (0..count)
        .map(|i| {
            let burst = (i / 8) as u64;
            (Nanos::from_millis(burst * 40), i % templates)
        })
        .collect()
}

/// The cluster scenario `repro cluster` runs, honoring `--hosts`,
/// `--arrival`, `--quick`, and `--seed`.
pub fn fleet_spec(opts: &ExpOptions) -> ClusterSpec {
    let hosts = match (opts.hosts, opts.quick) {
        (0, false) => DEFAULT_HOSTS,
        (0, true) => DEFAULT_HOSTS_QUICK,
        (n, _) => n,
    };
    let count = if opts.quick {
        DEFAULT_VMS_QUICK
    } else {
        DEFAULT_VMS
    };
    let templates = fleet_templates(opts);
    let arrivals = match opts.arrival {
        ArrivalMode::Poisson => ArrivalProcess::Poisson {
            mean_interarrival: Nanos::from_millis(5),
            count,
        },
        ArrivalMode::Trace => ArrivalProcess::Trace(burst_trace(count, templates.len())),
    };
    ClusterSpec {
        hosts,
        templates,
        arrivals,
        quantum: Nanos::from_millis(50),
        migration: MigrationPolicy {
            imbalance_threshold: 0.20,
            cooldown_rounds: 8,
            ..MigrationPolicy::default()
        },
        fault_rate: 0.0,
    }
}

/// Runs the cluster scenario and returns the full outcome (report,
/// per-VM summaries, migration trace).
pub fn fleet_outcome(opts: &ExpOptions) -> ClusterOutcome {
    Cluster::new(
        host_cfg(opts),
        SharePolicy::paper_drf(),
        Policy::HeteroCoordinated,
        fleet_spec(opts),
        opts.jobs,
    )
    .run()
}

/// The rendered text summary the `repro` binary prints.
pub fn fleet_table(outcome: &ClusterOutcome) -> String {
    let r = &outcome.report;
    let mut out = String::new();
    out.push_str("Rack-scale cluster consolidation (DRF hosts, HeteroOS-coordinated guests)\n");
    out.push_str(&format!(
        "hosts {:>4}   rounds {:>6}   makespan {:>10.3}s\n",
        r.hosts,
        r.rounds,
        r.makespan.as_secs_f64()
    ));
    out.push_str(&format!(
        "arrivals {:>5}   departures {:>5}   deferrals {:>5}   rejected {:>3}\n",
        r.arrivals, r.departures, r.deferrals, r.rejected
    ));
    out.push_str(&format!(
        "migrations {:>4}   precopy rounds {:>5}   pages copied {:>9}\n",
        r.migrations, r.precopy_rounds, r.pages_copied
    ));
    out.push_str(&format!(
        "migration bandwidth cost {:>10.3}ms   guest downtime {:>8.3}ms\n",
        r.migration_cost.as_millis_f64(),
        r.migration_downtime.as_millis_f64()
    ));
    out.push_str(&format!(
        "guest epochs {:>8}   stranded pages {:>6}   mean peak live/host {:>6.1}\n",
        r.epochs,
        r.stranded_pages,
        mean_peak_live(r)
    ));
    out.push_str("host  admitted  peak-live     epochs\n");
    for h in &r.per_host {
        out.push_str(&format!(
            "{:>4}  {:>8}  {:>9}  {:>9}\n",
            h.host, h.vms_admitted, h.peak_live, h.epochs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fleet_completes_and_reports() {
        let opts = ExpOptions::quick();
        let outcome = fleet_outcome(&opts);
        assert_eq!(outcome.report.arrivals, DEFAULT_VMS_QUICK as u64);
        assert_eq!(outcome.report.departures, outcome.report.arrivals);
        assert_eq!(outcome.report.hosts, DEFAULT_HOSTS_QUICK as u32);
        let table = fleet_table(&outcome);
        assert!(table.contains("migrations"), "{table}");
    }

    #[test]
    fn quick_fleet_migrates_under_both_arrival_modes() {
        for arrival in [ArrivalMode::Poisson, ArrivalMode::Trace] {
            let opts = ExpOptions::quick().with_arrival(arrival);
            let outcome = fleet_outcome(&opts);
            assert!(
                outcome.report.migrations >= 1,
                "{arrival} fleet must live-migrate: {}",
                outcome.report.to_json()
            );
            assert!(!outcome.report.migration_cost.is_zero());
        }
    }

    #[test]
    fn hosts_override_is_honored() {
        let opts = ExpOptions::quick().with_hosts(2);
        let spec = fleet_spec(&opts);
        assert_eq!(spec.hosts, 2);
    }
}
