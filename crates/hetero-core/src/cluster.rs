//! Rack-scale cluster simulation: many hosts, dynamic VM arrivals, and
//! inter-host pre-copy live migration.
//!
//! HeteroOS argues heterogeneous-memory management has to be co-designed
//! up to the datacenter layer; this module is that layer. A [`Cluster`]
//! owns many hosts, each a complete single-machine fleet — its own
//! FastMem/SlowMem (and optionally Medium) pools and its own fair-share
//! ledger (`multivm::FleetCore`). Sharding the ledger per host is
//! what unlocks parallel stepping: within a scheduling round the hosts
//! share nothing, so they fan out across the deterministic [`Runner`]
//! (fixed pool, descriptor-order merge) and a 1,000-VM fleet steps
//! byte-identically at any `--jobs` count.
//!
//! Time advances in fixed *rounds* (a barrier-synchronous design): at each
//! round boundary the cluster admits due arrivals (consolidation: the
//! least-loaded feasible host wins), retires finished VMs, and runs the
//! migration policy; between boundaries every host steps its own VMs
//! event-driven up to the round deadline. Arrivals come from a seeded
//! Poisson process on a *dedicated* RNG stream (so the arrival pattern
//! never perturbs any guest's workload stream) or from an explicit trace.
//!
//! Live migration follows the classic pre-copy protocol: iterative rounds
//! copy the dirty set while the VM keeps running, the dirty set shrinking
//! by the workload's write intensity each round, then a final
//! stop-and-copy moves the remainder. Every round is priced through the
//! existing [`CostModel`](hetero_mem::CostModel) migration prices (Table 6 anchors) and charged
//! to the migrating VM's clock; the ledger transfer debits the source
//! host and credits the destination exactly, which the extended sanitizer
//! ([`hetero_faults::audit_cluster`]) re-proves every round.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use hetero_faults::{
    audit_cluster, AuditLevel, FaultInjector, FaultPlan, HostLedgerView, Violation,
};
use hetero_mem::cost::MigrationBatch;
use hetero_mem::kind::KindMap;
use hetero_sim::export::json_string;
use hetero_sim::runner::Runner;
use hetero_sim::{CostCategory, Nanos, SimRng};
use hetero_vmm::drf::{Grant, GuestId};
use hetero_vmm::SharePolicy;

use crate::config::SimConfig;
use crate::metrics::RunReport;
use crate::multivm::{grant_kinds, machine_totals, tier_pages, FleetCore, VmSetup, VmState};
use crate::policy::Policy;

/// Salt for the arrival process's dedicated RNG stream — arrivals must
/// never share a stream with any guest workload, or admitting one more VM
/// would perturb every other VM's behaviour.
const ARRIVAL_STREAM_SALT: u64 = 0xA881_57A1_1CC0_FFEE;

/// How VMs arrive at the cluster.
#[derive(Debug, Clone)]
pub enum ArrivalProcess {
    /// A Poisson process: `count` arrivals with exponential inter-arrival
    /// times of the given mean, each drawing its template uniformly from
    /// the spec's template list. Drawn from a dedicated seeded stream.
    Poisson {
        /// Mean inter-arrival time.
        mean_interarrival: Nanos,
        /// Total arrivals over the run.
        count: usize,
    },
    /// Trace-driven: explicit `(arrival time, template index)` pairs.
    /// Entries need not be sorted; the cluster sorts them (stably) by time.
    Trace(Vec<(Nanos, usize)>),
}

/// CLI-level selector between the arrival modes (`repro cluster
/// --arrival {poisson,trace}`); the experiment driver supplies the mean,
/// count, and trace content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArrivalMode {
    /// Seeded Poisson arrivals (the default).
    #[default]
    Poisson,
    /// The experiment's built-in deterministic trace.
    Trace,
}

impl fmt::Display for ArrivalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalMode::Poisson => write!(f, "poisson"),
            ArrivalMode::Trace => write!(f, "trace"),
        }
    }
}

impl FromStr for ArrivalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "poisson" => Ok(ArrivalMode::Poisson),
            "trace" => Ok(ArrivalMode::Trace),
            other => Err(format!(
                "unknown arrival mode '{other}' (expected poisson|trace)"
            )),
        }
    }
}

/// Knobs of the consolidation / live-migration policy.
#[derive(Debug, Clone, Copy)]
pub struct MigrationPolicy {
    /// Minimum fractional-occupancy gap between the most- and least-loaded
    /// host before a migration is attempted.
    pub imbalance_threshold: f64,
    /// Migrations attempted per scheduling round.
    pub max_per_round: usize,
    /// Pre-copy rounds before the protocol forces stop-and-copy.
    pub max_precopy_rounds: u32,
    /// Dirty-set size (simulated pages) at which pre-copy stops early and
    /// the final stop-and-copy transfers the remainder.
    pub stop_copy_pages: u64,
    /// Rounds a freshly migrated VM is pinned to its new host. Without a
    /// cooldown a VM whose move does not settle the imbalance would
    /// ping-pong every round, paying migration cost each time and never
    /// making forward progress.
    pub cooldown_rounds: u64,
}

impl Default for MigrationPolicy {
    fn default() -> Self {
        MigrationPolicy {
            imbalance_threshold: 0.15,
            max_per_round: 1,
            max_precopy_rounds: 8,
            stop_copy_pages: 64,
            cooldown_rounds: 4,
        }
    }
}

/// A whole-cluster scenario: the host count, the VM templates arrivals
/// draw from, the arrival process, the scheduling quantum, and the
/// migration policy.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Number of hosts; each gets the full `SimConfig` machine shape.
    pub hosts: usize,
    /// VM templates the arrival process instantiates.
    pub templates: Vec<VmSetup>,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Scheduling-round length: hosts step independently between
    /// boundaries; arrivals, departures, and migrations happen at them.
    pub quantum: Nanos,
    /// Consolidation / live-migration knobs.
    pub migration: MigrationPolicy,
    /// Per-epoch host-power-loss probability armed on every admitted
    /// guest (`0.0` = no fault injection). Each guest's injector is
    /// seeded from the config seed and its own guest id, so the chaos —
    /// like everything else — is byte-identical at any `jobs` count.
    pub fault_rate: f64,
}

/// One inter-host live migration, as exported in the migration trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationRecord {
    /// Cluster time of the round that performed the migration.
    pub at: Nanos,
    /// The migrated guest.
    pub vm: u32,
    /// Source host index.
    pub from: u32,
    /// Destination host index.
    pub to: u32,
    /// Pre-copy rounds performed (including the final stop-and-copy).
    pub precopy_rounds: u32,
    /// Simulated pages copied across all rounds.
    pub pages_copied: u64,
    /// Total copy cost across every round, at `CostModel` prices — the
    /// bandwidth the migration consumed.
    pub cost: Nanos,
    /// The final stop-and-copy round's cost — the only part the guest is
    /// paused for, charged to its clock as `PageCopy` time.
    pub downtime: Nanos,
}

impl MigrationRecord {
    /// Serde-free JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"at_ns\": {}, \"vm\": {}, \"from\": {}, \"to\": {}, \"precopy_rounds\": {}, \"pages_copied\": {}, \"cost_ns\": {}, \"downtime_ns\": {}}}",
            self.at.as_nanos(),
            self.vm,
            self.from,
            self.to,
            self.precopy_rounds,
            self.pages_copied,
            self.cost.as_nanos(),
            self.downtime.as_nanos()
        )
    }
}

/// Per-host occupancy telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostReport {
    /// Host index.
    pub host: u32,
    /// VMs admitted (placed or migrated in) over the run.
    pub vms_admitted: u64,
    /// Peak simultaneously-live VM count.
    pub peak_live: u64,
    /// Guest epochs stepped on this host.
    pub epochs: u64,
    /// Ledger pages granted at the end of the run (normally zero: every
    /// VM has departed).
    pub final_consumed: u64,
}

/// Cluster-wide telemetry: arrivals, departures, migrations, occupancy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReport {
    /// Host count.
    pub hosts: u32,
    /// Scheduling rounds executed.
    pub rounds: u64,
    /// VMs admitted.
    pub arrivals: u64,
    /// VMs retired after completing their workload.
    pub departures: u64,
    /// Admission attempts deferred to a later round (no feasible host).
    pub deferrals: u64,
    /// Arrivals rejected outright (reservation larger than an empty host).
    pub rejected: u64,
    /// Inter-host live migrations performed.
    pub migrations: u64,
    /// Pre-copy rounds summed over all migrations.
    pub precopy_rounds: u64,
    /// Simulated pages copied by migrations.
    pub pages_copied: u64,
    /// Total migration copy cost (bandwidth), at `CostModel` prices.
    pub migration_cost: Nanos,
    /// Total stop-and-copy downtime charged to migrated guests.
    pub migration_downtime: Nanos,
    /// Pages finished guests could not balloon back before departure.
    pub stranded_pages: u64,
    /// Guest epochs stepped across the cluster.
    pub epochs: u64,
    /// Cluster time when the last VM finished.
    pub makespan: Nanos,
    /// Per-host occupancy.
    pub per_host: Vec<HostReport>,
}

impl ClusterReport {
    /// Serde-free JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"hosts\": {},\n", self.hosts));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"arrivals\": {},\n", self.arrivals));
        out.push_str(&format!("  \"departures\": {},\n", self.departures));
        out.push_str(&format!("  \"deferrals\": {},\n", self.deferrals));
        out.push_str(&format!("  \"rejected\": {},\n", self.rejected));
        out.push_str(&format!("  \"migrations\": {},\n", self.migrations));
        out.push_str(&format!("  \"precopy_rounds\": {},\n", self.precopy_rounds));
        out.push_str(&format!("  \"pages_copied\": {},\n", self.pages_copied));
        out.push_str(&format!(
            "  \"migration_cost_ns\": {},\n",
            self.migration_cost.as_nanos()
        ));
        out.push_str(&format!(
            "  \"migration_downtime_ns\": {},\n",
            self.migration_downtime.as_nanos()
        ));
        out.push_str(&format!("  \"stranded_pages\": {},\n", self.stranded_pages));
        out.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        out.push_str(&format!(
            "  \"makespan_ns\": {},\n",
            self.makespan.as_nanos()
        ));
        out.push_str("  \"per_host\": [");
        for (i, h) in self.per_host.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"host\": {}, \"vms_admitted\": {}, \"peak_live\": {}, \"epochs\": {}, \"final_consumed\": {}}}",
                h.host, h.vms_admitted, h.peak_live, h.epochs, h.final_consumed
            ));
        }
        out.push_str("]\n}");
        out
    }
}

/// Everything a cluster run produces: the cluster-wide report, the
/// per-VM run reports (ascending guest id), and the migration trace.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Cluster-wide telemetry.
    pub report: ClusterReport,
    /// `(guest id, report)` for every VM that ran, ascending by id.
    pub vm_reports: Vec<(u32, RunReport)>,
    /// Every inter-host migration, in execution order.
    pub migrations: Vec<MigrationRecord>,
}

impl ClusterOutcome {
    /// Serde-free JSON document combining report, migration trace, and a
    /// per-VM summary — the byte-identity surface the determinism gates
    /// diff across `--jobs` counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"cluster\": ");
        out.push_str(&self.report.to_json());
        out.push_str(",\n\"migrations\": [");
        for (i, m) in self.migrations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&m.to_json());
        }
        out.push_str("],\n\"vms\": [");
        for (i, (id, r)) in self.vm_reports.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"vm\": {}, \"app\": {}, \"runtime_ns\": {}, \"epochs\": {}, \"migrations\": {}, \"breakdown_pagecopy_ns\": {}}}",
                id,
                json_string(r.app),
                r.runtime.as_nanos(),
                r.epochs,
                r.migrations,
                r.breakdown
                    .iter()
                    .find(|(c, _)| *c == CostCategory::PageCopy)
                    .map(|(_, t)| t.as_nanos())
                    .unwrap_or(0)
            ));
        }
        out.push_str("]\n}");
        out
    }
}

/// One host: a complete single-machine fleet plus its telemetry.
struct HostState {
    core: FleetCore,
    vms_admitted: u64,
    peak_live: u64,
    epochs: u64,
}

/// The rack-scale cluster engine. See the module docs for the design.
pub struct Cluster {
    cfg: SimConfig,
    policy: Policy,
    spec: ClusterSpec,
    jobs: usize,
    hosts: Vec<HostState>,
    /// Remaining arrivals, ascending by time.
    pending: VecDeque<(Nanos, usize)>,
    /// Host tier capacity, shared by every host.
    host_totals: KindMap<u64>,
    next_guest: u32,
    now: Nanos,
    rounds: u64,
    arrivals: u64,
    departures: u64,
    deferrals: u64,
    rejected: u64,
    makespan: Nanos,
    migrations: Vec<MigrationRecord>,
    finished: Vec<(u32, RunReport)>,
    /// Guest id → round of its last migration (cooldown bookkeeping).
    cooldowns: std::collections::BTreeMap<u32, u64>,
    /// Violations accumulated across rounds; drained by [`Cluster::finish`].
    violations: Vec<Violation>,
}

impl Cluster {
    /// Builds a cluster of `spec.hosts` identical hosts (each shaped by
    /// `cfg`'s machine parameters) sharing one arrival schedule. `share`
    /// picks each host's fair-share discipline; `policy` is the guest
    /// placement policy every VM runs; `jobs` is the Runner thread count
    /// for host stepping (0 = available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if the spec has no hosts, no templates, or a trace entry
    /// referencing a template that does not exist.
    pub fn new(
        cfg: SimConfig,
        share: SharePolicy,
        policy: Policy,
        spec: ClusterSpec,
        jobs: usize,
    ) -> Self {
        assert!(spec.hosts > 0, "a cluster needs at least one host");
        assert!(
            !spec.templates.is_empty(),
            "the arrival process needs at least one VM template"
        );
        let host_totals = machine_totals(&cfg);
        let hosts = (0..spec.hosts)
            .map(|_| HostState {
                core: FleetCore::new(share, host_totals),
                vms_admitted: 0,
                peak_live: 0,
                epochs: 0,
            })
            .collect();
        let pending = Self::schedule(&spec, cfg.seed);
        Cluster {
            cfg,
            policy,
            spec,
            jobs,
            hosts,
            pending,
            host_totals,
            next_guest: 0,
            now: Nanos::ZERO,
            rounds: 0,
            arrivals: 0,
            departures: 0,
            deferrals: 0,
            rejected: 0,
            makespan: Nanos::ZERO,
            migrations: Vec::new(),
            finished: Vec::new(),
            cooldowns: std::collections::BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// Materializes the arrival schedule. Poisson arrivals draw from a
    /// dedicated stream salted off the config seed; traces are sorted
    /// stably by time.
    fn schedule(spec: &ClusterSpec, seed: u64) -> VecDeque<(Nanos, usize)> {
        match &spec.arrivals {
            ArrivalProcess::Poisson {
                mean_interarrival,
                count,
            } => {
                let mut rng = SimRng::seed_from(seed ^ ARRIVAL_STREAM_SALT);
                let mean = mean_interarrival.as_nanos() as f64;
                // Accumulate in integer nanos, stochastically rounding
                // each gap. A running f64 sum loses ulp precision as it
                // grows — past 2^53 ns (~104 days) it can only represent
                // even nano counts, so long schedules quantized and
                // drifted. Per-gap rounding keeps every arrival exact at
                // any horizon, and `stochastic_round` keeps it
                // mean-preserving.
                let mut t = 0u64;
                (0..*count)
                    .map(|_| {
                        let gap = rng.next_exponential(mean);
                        t = t.saturating_add(rng.stochastic_round(gap));
                        let tmpl = rng.next_range(0, spec.templates.len() as u64) as usize;
                        (Nanos::from_nanos(t), tmpl)
                    })
                    .collect()
            }
            ArrivalProcess::Trace(entries) => {
                for &(_, tmpl) in entries {
                    assert!(
                        tmpl < spec.templates.len(),
                        "trace references template {tmpl} of {}",
                        spec.templates.len()
                    );
                }
                let mut sorted = entries.clone();
                sorted.sort_by_key(|&(t, _)| t);
                sorted.into()
            }
        }
    }

    /// Runs the cluster to completion (every admitted VM finished, every
    /// scheduled arrival handled).
    ///
    /// # Panics
    ///
    /// With an explicit `SimConfig::audit` level set, panics if the run
    /// produced any violation. Use [`Cluster::run_audited`] to inspect
    /// violations without panicking.
    pub fn run(self) -> ClusterOutcome {
        let audit = self.cfg.audit;
        let (outcome, violations) = self.run_audited();
        if audit != AuditLevel::Off && !violations.is_empty() {
            let mut msg = format!(
                "invariant sanitizer ({} level) found {} violation(s) in cluster run:",
                audit,
                violations.len(),
            );
            for v in &violations {
                msg.push_str("\n  - ");
                msg.push_str(&v.to_string());
            }
            panic!("{msg}");
        }
        outcome
    }

    /// As [`Cluster::run`], additionally returning every violation found
    /// (always empty when `SimConfig::audit` is `Off`): each host's
    /// per-epoch ledger audit, every guest's own sanitizer, and the
    /// cluster-boundary conservation audit after every round.
    pub fn run_audited(mut self) -> (ClusterOutcome, Vec<Violation>) {
        while self.step_round() {}
        self.finish()
    }

    /// Whether the cluster still has work: pending arrivals or live VMs.
    pub fn is_active(&self) -> bool {
        !self.pending.is_empty() || self.hosts.iter().any(|h| h.core.live() > 0)
    }

    /// Advances the cluster one scheduling round: admits due arrivals,
    /// steps every host to the round deadline, retires finished VMs,
    /// retries arrivals those retirements may have made feasible, and
    /// runs the migration policy. Returns `false` (without advancing
    /// time) once nothing is pending and no VM is live.
    ///
    /// This is the checkpointable driver: a loop over `step_round`
    /// produces the same cluster as [`Cluster::run`], and the cluster can
    /// be [saved](Cluster::save) between any two rounds. Violations
    /// accumulate internally and come back from [`Cluster::finish`].
    pub fn step_round(&mut self) -> bool {
        if !self.is_active() {
            return false;
        }
        let audited = self.cfg.audit.is_enabled();
        let mut violations = std::mem::take(&mut self.violations);
        let round_end = self.now + self.spec.quantum;
        self.rounds += 1;
        let deferred = self.admit_arrivals(round_end);
        self.step_hosts(round_end, audited, &mut violations);
        self.retire_departures(&mut violations);
        // Second admission pass: a retirement that just freed capacity
        // can place an arrival deferred earlier in this same round —
        // without it, such an arrival waited a full quantum next to an
        // idle host. Only the still-infeasible remainder counts as
        // deferred and re-queues for the next round, ahead of any
        // later-scheduled arrivals at the same instant.
        let still_deferred = self.admit_batch(deferred);
        self.deferrals += still_deferred.len() as u64;
        for &(_, tmpl) in still_deferred.iter().rev() {
            self.pending.push_front((round_end, tmpl));
        }
        self.balance();
        if audited {
            self.audit_cluster_boundary(&mut violations);
        }
        self.violations = violations;
        self.now = round_end;
        true
    }

    /// Collects the outcome of a finished (or abandoned) step-driven run:
    /// the cluster report, per-VM reports ascending by id, the migration
    /// trace, and every violation accumulated across rounds.
    pub fn finish(mut self) -> (ClusterOutcome, Vec<Violation>) {
        self.finished.sort_by_key(|&(id, _)| id);
        let report = self.report();
        let outcome = ClusterOutcome {
            report,
            vm_reports: std::mem::take(&mut self.finished),
            migrations: std::mem::take(&mut self.migrations),
        };
        (outcome, std::mem::take(&mut self.violations))
    }

    /// Pops every arrival due before `round_end` and runs one admission
    /// pass over them. Returns the arrivals that found no feasible host —
    /// the round loop retries them after retirements free capacity, and
    /// re-queues whatever still does not fit.
    fn admit_arrivals(&mut self, round_end: Nanos) -> Vec<(Nanos, usize)> {
        let mut due = Vec::new();
        while let Some(&(t, tmpl)) = self.pending.front() {
            if t >= round_end {
                break;
            }
            self.pending.pop_front();
            due.push((t, tmpl));
        }
        self.admit_batch(due)
    }

    /// One admission pass: places each arrival onto the least-loaded
    /// feasible host (ties break to the lower host index). Reservations
    /// larger than an empty host are rejected outright (they can never
    /// fit); arrivals with no feasible host right now are returned, in
    /// order, for the caller to retry or defer. Placement decisions are
    /// sequential — they touch the shared ledgers — but the booting of
    /// the admitted VMs is embarrassingly parallel and fans out across
    /// the Runner.
    fn admit_batch(&mut self, due: Vec<(Nanos, usize)>) -> Vec<(Nanos, usize)> {
        /// A placement decision handed to the parallel boot phase:
        /// `(host, template, id, seed, min reservation, arrival, bw share)`.
        type Placement = (usize, usize, GuestId, u64, KindMap<u64>, Nanos, f64);
        let mut boots: Vec<Placement> = Vec::new();
        let mut deferred: Vec<(Nanos, usize)> = Vec::new();
        for (t, tmpl) in due {
            let setup = &self.spec.templates[tmpl];
            let min = KindMap::from_fn(|k| tier_pages(&self.cfg, k, setup.min_bytes[k]));
            if grant_kinds()
                .into_iter()
                .any(|k| min[k] > self.host_totals[k])
            {
                // Larger than an empty host: will never fit anywhere.
                self.rejected += 1;
                continue;
            }
            let Some(host) = self.place(min) else {
                // Feasible in principle — the caller decides whether to
                // retry this round or defer to the next.
                deferred.push((t, tmpl));
                continue;
            };
            let id = GuestId(self.next_guest);
            self.next_guest += 1;
            self.arrivals += 1;
            self.hosts[host].core.fair.register(id, min);
            self.hosts[host].vms_admitted += 1;
            let live = self.hosts[host].core.live() as u64 + 1;
            self.hosts[host].peak_live = self.hosts[host].peak_live.max(live);
            let bw_share = 1.0 / live as f64;
            boots.push((host, tmpl, id, u64::from(id.0), min, t, bw_share));
        }
        let cfg = &self.cfg;
        let policy = self.policy;
        let templates = &self.spec.templates;
        let booted = Runner::new(self.jobs).run(boots, |(host, tmpl, id, seed, min, t, bw)| {
            (
                host,
                VmState::boot(cfg, policy, bw, id, seed, &templates[tmpl], min, t),
            )
        });
        for (host, mut vm) in booted {
            if self.spec.fault_rate > 0.0 {
                let plan_seed = self.cfg.seed ^ u64::from(vm.id.0).wrapping_mul(0x9E37);
                vm.sim
                    .set_fault_injector(FaultInjector::new(FaultPlan::power_loss(
                        plan_seed,
                        self.spec.fault_rate,
                    )));
            }
            self.hosts[host].core.vms.push(vm);
        }
        deferred
    }

    /// The least-loaded host with room for `min` on every tier, or `None`.
    fn place(&self, min: KindMap<u64>) -> Option<usize> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| {
                grant_kinds()
                    .into_iter()
                    .all(|k| h.core.fair.free(k) >= min[k])
            })
            .min_by(|(ai, a), (bi, b)| {
                Self::load_of(a)
                    .partial_cmp(&Self::load_of(b))
                    .expect("loads are finite")
                    .then(ai.cmp(bi))
            })
            .map(|(i, _)| i)
    }

    /// Fractional occupancy of a host: granted pages over capacity.
    fn load_of(h: &HostState) -> f64 {
        let total = h.core.totals.total();
        if total == 0 {
            0.0
        } else {
            h.core.fair.consumed().total() as f64 / total as f64
        }
    }

    /// Steps every host independently to the round deadline on the
    /// Runner. Hosts share nothing inside a round — per-host ledgers are
    /// the whole point — so descriptor-order merge keeps the result
    /// byte-identical for any thread count.
    fn step_hosts(&mut self, round_end: Nanos, audited: bool, violations: &mut Vec<Violation>) {
        let hosts = std::mem::take(&mut self.hosts);
        let stepped = Runner::new(self.jobs).run(hosts, |mut h| {
            let mut v = Vec::new();
            let epochs = h.core.step_until(round_end, audited, &mut v);
            h.epochs += epochs;
            (h, v)
        });
        for (h, v) in stepped {
            self.hosts.push(h);
            violations.extend(v);
        }
    }

    /// Retires every VM that finished its workload: collects its report,
    /// folds its sanitizer violations in, and unregisters it from its
    /// host's ledger (departure returns the full grant — reserved minimum
    /// and any stranded residue — to the free pool).
    fn retire_departures(&mut self, violations: &mut Vec<Violation>) {
        for host in &mut self.hosts {
            let mut i = 0;
            while i < host.core.vms.len() {
                if host.core.vms[i].done {
                    let vm = host.core.vms.remove(i);
                    let end = vm.offset + vm.sim.now();
                    self.makespan = self.makespan.max(end);
                    violations.extend_from_slice(vm.sim.violations());
                    self.finished.push((vm.id.0, vm.sim.report()));
                    host.core
                        .fair
                        .unregister(vm.id)
                        .expect("departing VM is registered");
                    self.departures += 1;
                } else {
                    i += 1;
                }
            }
        }
    }

    /// The consolidation policy: when the load gap between the most- and
    /// least-loaded hosts exceeds the threshold, live-migrate the largest
    /// movable VM from the former to the latter. At most
    /// `max_per_round` migrations per round, all sequential — migration
    /// transfers ledger state between hosts.
    fn balance(&mut self) {
        for _ in 0..self.spec.migration.max_per_round {
            let Some((src, dst)) = self.pick_imbalance() else {
                return;
            };
            let Some(vi) = self.pick_candidate(src, dst) else {
                return;
            };
            self.migrate(src, dst, vi);
        }
    }

    /// The `(most loaded, least loaded)` host pair, if the gap clears the
    /// imbalance threshold.
    fn pick_imbalance(&self) -> Option<(usize, usize)> {
        let loads: Vec<f64> = self.hosts.iter().map(Self::load_of).collect();
        let src = (0..loads.len()).max_by(|&a, &b| {
            loads[a]
                .partial_cmp(&loads[b])
                .expect("loads are finite")
                .then(b.cmp(&a)) // ties to the LOWER index
        })?;
        let dst = (0..loads.len()).min_by(|&a, &b| {
            loads[a]
                .partial_cmp(&loads[b])
                .expect("loads are finite")
                .then(a.cmp(&b))
        })?;
        if src == dst || loads[src] - loads[dst] < self.spec.migration.imbalance_threshold {
            return None;
        }
        Some((src, dst))
    }

    /// The largest live VM on `src` whose full allocation fits `dst`'s
    /// free pool (ties to the lower VM index), subject to two guards that
    /// keep the policy from thrashing:
    ///
    /// * **strict improvement** — after the move the destination must
    ///   still be less loaded than the source was before it (all hosts
    ///   share one capacity, so raw page counts compare directly); a
    ///   symmetric swap that merely relocates the imbalance is skipped,
    /// * **cooldown** — a VM migrated within the last
    ///   `cooldown_rounds` rounds is pinned to its host.
    fn pick_candidate(&self, src: usize, dst: usize) -> Option<usize> {
        let fair_src = &self.hosts[src].core.fair;
        let fair_dst = &self.hosts[dst].core.fair;
        let src_consumed = fair_src.consumed().total();
        let dst_consumed = fair_dst.consumed().total();
        self.hosts[src]
            .core
            .vms
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.done && !self.on_cooldown(v.id.0))
            .map(|(i, v)| (fair_src.allocated(v.id), i))
            .filter(|(alloc, _)| {
                grant_kinds()
                    .into_iter()
                    .all(|k| fair_dst.free(k) >= alloc[k])
                    && dst_consumed + alloc.total() < src_consumed
            })
            .max_by(|(a, ai), (b, bi)| a.total().cmp(&b.total()).then(bi.cmp(ai)))
            .map(|(_, i)| i)
    }

    /// Whether the guest migrated too recently to move again.
    fn on_cooldown(&self, vm: u32) -> bool {
        self.cooldowns
            .get(&vm)
            .is_some_and(|&r| self.rounds < r + self.spec.migration.cooldown_rounds)
    }

    /// Pre-copy live migration of `src`'s VM `vi` to `dst`.
    ///
    /// Iterative pre-copy: round 1 copies the full resident set; each
    /// later round copies what the still-running guest re-dirtied
    /// (`dirty_rate` of the previous round, from its write intensity),
    /// until the dirty set undershoots `stop_copy_pages` or the round
    /// budget runs out; the final round is the stop-and-copy. Every round
    /// is priced by [`CostModel::migration_cost`] on *real* (unscaled)
    /// pages; the summed price is the migration's bandwidth cost in the
    /// cluster telemetry, and the final round's price — the only phase
    /// the guest is paused for — is charged to the VM's clock as
    /// `PageCopy` downtime, showing up in its own runtime breakdown.
    ///
    /// The ledger transfer debits the source completely (`unregister`)
    /// and credits the destination exactly — reserved minimum via
    /// `register`, growth via `request` — so both host audits and the
    /// cluster-boundary audit stay conserved through the move.
    fn migrate(&mut self, src: usize, dst: usize, vi: usize) {
        let id = self.hosts[src].core.vms[vi].id;
        let min = self.hosts[src].core.vms[vi].min;
        let dirty_rate = self.hosts[src].core.vms[vi].dirty_rate;
        let alloc = self.hosts[src].core.fair.allocated(id);
        let resident = alloc.total();
        let policy = self.spec.migration;
        let mut dirty = resident;
        let mut rounds = 0u32;
        let mut copied = 0u64;
        let mut cost = Nanos::ZERO;
        let downtime;
        loop {
            rounds += 1;
            copied += dirty;
            let round_cost = self
                .cfg
                .costs
                .migration_cost(MigrationBatch::new(self.cfg.real_pages(dirty)));
            cost += round_cost;
            if dirty <= policy.stop_copy_pages || rounds >= policy.max_precopy_rounds {
                downtime = round_cost;
                break;
            }
            dirty = ((dirty as f64) * dirty_rate).ceil() as u64;
        }
        self.hosts[src].core.vms[vi]
            .sim
            .charge_external(CostCategory::PageCopy, downtime);
        // Ledger transfer: debit source fully, credit destination exactly.
        let freed = self.hosts[src]
            .core
            .fair
            .unregister(id)
            .expect("migrating VM is registered");
        debug_assert_eq!(freed, alloc, "source debit must match the allocation");
        self.hosts[dst].core.fair.register(id, min);
        let growth = KindMap::from_fn(|k| alloc[k] - min[k]);
        if growth.total() > 0 {
            let grant = self.hosts[dst].core.fair.request(id, growth);
            assert!(
                matches!(grant, Grant::Granted),
                "candidate fit was checked against the destination free pool"
            );
        }
        let vm = self.hosts[src].core.vms.remove(vi);
        self.hosts[dst].vms_admitted += 1;
        let live = self.hosts[dst].core.live() as u64 + 1;
        self.hosts[dst].peak_live = self.hosts[dst].peak_live.max(live);
        self.hosts[dst].core.vms.push(vm);
        self.cooldowns.insert(id.0, self.rounds);
        self.migrations.push(MigrationRecord {
            at: self.now,
            vm: id.0,
            from: src as u32,
            to: dst as u32,
            precopy_rounds: rounds,
            pages_copied: copied,
            cost,
            downtime,
        });
    }

    /// The cluster-boundary conservation audit over every host ledger.
    fn audit_cluster_boundary(&self, violations: &mut Vec<Violation>) {
        let views: Vec<HostLedgerView<'_>> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, h)| HostLedgerView {
                host: i as u32,
                fair: &h.core.fair,
                guests: h.core.vms.iter().map(|v| (v.id, v.sim.kernel())).collect(),
                totals: h.core.totals,
            })
            .collect();
        violations.extend(audit_cluster(&views));
    }

    fn report(&self) -> ClusterReport {
        ClusterReport {
            hosts: self.hosts.len() as u32,
            rounds: self.rounds,
            arrivals: self.arrivals,
            departures: self.departures,
            deferrals: self.deferrals,
            rejected: self.rejected,
            migrations: self.migrations.len() as u64,
            precopy_rounds: self
                .migrations
                .iter()
                .map(|m| u64::from(m.precopy_rounds))
                .sum(),
            pages_copied: self.migrations.iter().map(|m| m.pages_copied).sum(),
            migration_cost: self
                .migrations
                .iter()
                .fold(Nanos::ZERO, |acc, m| acc + m.cost),
            migration_downtime: self
                .migrations
                .iter()
                .fold(Nanos::ZERO, |acc, m| acc + m.downtime),
            stranded_pages: self.hosts.iter().map(|h| h.core.stranded).sum(),
            epochs: self.hosts.iter().map(|h| h.epochs).sum(),
            makespan: self.makespan,
            per_host: self
                .hosts
                .iter()
                .enumerate()
                .map(|(i, h)| HostReport {
                    host: i as u32,
                    vms_admitted: h.vms_admitted,
                    peak_live: h.peak_live,
                    epochs: h.epochs,
                    final_consumed: h.core.fair.consumed().total(),
                })
                .collect(),
        }
    }
}

/// Mean fractional host occupancy implied by a report — a convenience for
/// experiment tables.
pub fn mean_peak_live(report: &ClusterReport) -> f64 {
    if report.per_host.is_empty() {
        return 0.0;
    }
    let sum: u64 = report.per_host.iter().map(|h| h.peak_live).sum();
    sum as f64 / report.per_host.len() as f64
}

hetero_sim::impl_snap!(enum ArrivalProcess {
    0 => Poisson { mean_interarrival, count },
    1 => Trace(entries),
});

hetero_sim::impl_snap!(struct MigrationPolicy {
    imbalance_threshold,
    max_per_round,
    max_precopy_rounds,
    stop_copy_pages,
    cooldown_rounds,
});

hetero_sim::impl_snap!(struct ClusterSpec {
    hosts,
    templates,
    arrivals,
    quantum,
    migration,
    fault_rate,
});

hetero_sim::impl_snap!(struct MigrationRecord {
    at,
    vm,
    from,
    to,
    precopy_rounds,
    pages_copied,
    cost,
    downtime,
});

hetero_sim::impl_snap!(struct HostState { core, vms_admitted, peak_live, epochs });

impl Cluster {
    /// Serializes the complete cluster state — every host fleet (each VM
    /// engine included), the pending arrival queue, scheduler counters,
    /// migration trace, finished reports, cooldowns and accumulated
    /// violations — under a
    /// [`LAYER_CLUSTER`](crate::snapshot::LAYER_CLUSTER) header.
    ///
    /// `jobs` is a host resource, not simulation state: it is not
    /// captured, and [`Cluster::restore`] takes it as a parameter (the
    /// run is byte-identical at any thread count anyway).
    pub fn save(&self) -> Vec<u8> {
        use hetero_sim::snap::Snap;
        let mut w = hetero_sim::snap::SnapWriter::new();
        hetero_sim::snap::write_header(&mut w, crate::snapshot::LAYER_CLUSTER);
        self.cfg.snap(&mut w);
        self.policy.snap(&mut w);
        self.spec.snap(&mut w);
        self.hosts.snap(&mut w);
        self.pending.snap(&mut w);
        self.host_totals.snap(&mut w);
        self.next_guest.snap(&mut w);
        self.now.snap(&mut w);
        self.rounds.snap(&mut w);
        self.arrivals.snap(&mut w);
        self.departures.snap(&mut w);
        self.deferrals.snap(&mut w);
        self.rejected.snap(&mut w);
        self.makespan.snap(&mut w);
        self.migrations.snap(&mut w);
        self.finished.snap(&mut w);
        self.cooldowns.snap(&mut w);
        self.violations.snap(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a cluster from [`Cluster::save`] bytes; the resumed run
    /// continues byte-identically. Fails loudly on a bad magic, version
    /// or layer, on truncation, and on trailing bytes — never panics on
    /// malformed input.
    pub fn restore(bytes: &[u8], jobs: usize) -> Result<Self, hetero_sim::snap::SnapshotError> {
        use hetero_sim::snap::Snap;
        let mut r = hetero_sim::snap::SnapReader::new(bytes);
        hetero_sim::snap::read_header(&mut r, crate::snapshot::LAYER_CLUSTER)?;
        let cluster = Cluster {
            cfg: Snap::unsnap(&mut r)?,
            policy: Snap::unsnap(&mut r)?,
            spec: Snap::unsnap(&mut r)?,
            jobs,
            hosts: Snap::unsnap(&mut r)?,
            pending: Snap::unsnap(&mut r)?,
            host_totals: Snap::unsnap(&mut r)?,
            next_guest: Snap::unsnap(&mut r)?,
            now: Snap::unsnap(&mut r)?,
            rounds: Snap::unsnap(&mut r)?,
            arrivals: Snap::unsnap(&mut r)?,
            departures: Snap::unsnap(&mut r)?,
            deferrals: Snap::unsnap(&mut r)?,
            rejected: Snap::unsnap(&mut r)?,
            makespan: Snap::unsnap(&mut r)?,
            migrations: Snap::unsnap(&mut r)?,
            finished: Snap::unsnap(&mut r)?,
            cooldowns: Snap::unsnap(&mut r)?,
            violations: Snap::unsnap(&mut r)?,
        };
        r.finish()?;
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_workloads::{apps, WorkloadSpec};

    const GB: u64 = 1 << 30;
    const MB: u64 = 1 << 20;

    fn tiny(spec: WorkloadSpec) -> WorkloadSpec {
        let mut s = spec;
        s.total_instructions /= 200;
        s
    }

    fn host_cfg() -> SimConfig {
        SimConfig::paper_default()
            .with_fast_bytes(4 * GB)
            .with_slow_bytes(8 * GB)
            .with_seed(11)
    }

    fn templates() -> Vec<VmSetup> {
        vec![
            VmSetup::new(tiny(apps::graphchi()), GB, 2 * GB, 2 * GB, 4 * GB),
            VmSetup::new(tiny(apps::nginx()), 512 * MB, GB, GB, 2 * GB),
        ]
    }

    fn spec(hosts: usize, count: usize) -> ClusterSpec {
        ClusterSpec {
            hosts,
            templates: templates(),
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: Nanos::from_millis(50),
                count,
            },
            quantum: Nanos::from_millis(100),
            migration: MigrationPolicy::default(),
            fault_rate: 0.0,
        }
    }

    #[test]
    fn arrival_mode_parses_and_displays() {
        for mode in [ArrivalMode::Poisson, ArrivalMode::Trace] {
            assert_eq!(mode.to_string().parse::<ArrivalMode>(), Ok(mode));
        }
        assert!("burst".parse::<ArrivalMode>().is_err());
    }

    #[test]
    fn every_arrival_departs() {
        let cluster = Cluster::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            spec(3, 8),
            1,
        );
        let outcome = cluster.run();
        assert_eq!(outcome.report.arrivals, 8);
        assert_eq!(outcome.report.departures, 8);
        assert_eq!(outcome.report.rejected, 0);
        assert_eq!(outcome.vm_reports.len(), 8);
        assert!(outcome.report.epochs > 0);
        assert!(!outcome.report.makespan.is_zero());
        // Every ledger drained at the end.
        for h in &outcome.report.per_host {
            assert_eq!(h.final_consumed, 0, "host{} still holds grants", h.host);
        }
        // Guest ids are dense and ascending.
        let ids: Vec<u32> = outcome.vm_reports.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn placement_prefers_least_loaded_feasible_host() {
        // Two hosts; a trace admitting two VMs at t=0 must split them.
        let mut s = spec(2, 0);
        s.arrivals = ArrivalProcess::Trace(vec![(Nanos::ZERO, 0), (Nanos::ZERO, 0)]);
        let cluster = Cluster::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            s,
            1,
        );
        let outcome = cluster.run();
        assert_eq!(outcome.report.arrivals, 2);
        let admitted: Vec<u64> = outcome
            .report
            .per_host
            .iter()
            .map(|h| h.vms_admitted)
            .collect();
        assert_eq!(
            admitted,
            vec![1, 1],
            "consolidation must spread equal loads"
        );
    }

    #[test]
    fn oversized_reservations_are_rejected_and_counted() {
        let mut s = spec(2, 0);
        // A reservation larger than an entire host, plus a normal VM.
        s.templates.push(VmSetup::new(
            tiny(apps::nginx()),
            64 * GB,
            64 * GB,
            64 * GB,
            64 * GB,
        ));
        s.arrivals = ArrivalProcess::Trace(vec![(Nanos::ZERO, 2), (Nanos::ZERO, 1)]);
        let outcome = Cluster::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            s,
            1,
        )
        .run();
        assert_eq!(outcome.report.rejected, 1);
        assert_eq!(outcome.report.arrivals, 1);
        assert_eq!(outcome.report.departures, 1);
    }

    /// A trace engineered to need a live migration: a short-lived blocker
    /// reserves host 0 entirely, forcing both long-running VMs onto
    /// host 1; when the blocker departs, host 0 sits empty against a
    /// packed host 1 and the balancer must move one VM across.
    fn imbalanced_spec() -> ClusterSpec {
        ClusterSpec {
            hosts: 2,
            templates: vec![
                // Long-running, grows to most of a host.
                VmSetup::new(tiny(apps::graphchi()), GB, 3 * GB, 2 * GB, 6 * GB),
                // Short-lived blocker whose reservation fills a host.
                VmSetup::new(
                    {
                        let mut s = tiny(apps::nginx());
                        s.total_instructions /= 8;
                        s
                    },
                    4 * GB,
                    8 * GB,
                    4 * GB,
                    8 * GB,
                ),
            ],
            arrivals: ArrivalProcess::Trace(vec![
                (Nanos::ZERO, 1),
                (Nanos::ZERO, 0),
                (Nanos::ZERO, 0),
            ]),
            quantum: Nanos::from_millis(100),
            migration: MigrationPolicy {
                imbalance_threshold: 0.10,
                ..MigrationPolicy::default()
            },
            fault_rate: 0.0,
        }
    }

    #[test]
    fn imbalance_triggers_precopy_migration_with_cost() {
        let outcome = Cluster::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            imbalanced_spec(),
            1,
        )
        .run();
        assert!(
            outcome.report.migrations >= 1,
            "imbalanced trace must migrate: {}",
            outcome.report.to_json()
        );
        let m = &outcome.migrations[0];
        assert!(m.precopy_rounds >= 1);
        assert!(m.pages_copied > 0);
        assert!(!m.cost.is_zero(), "migration must be priced");
        assert_eq!(
            outcome.report.migration_cost.as_nanos(),
            outcome
                .migrations
                .iter()
                .map(|m| m.cost.as_nanos())
                .sum::<u64>()
        );
        // The migrated VM paid for its own move as PageCopy time.
        let (_, migrated) = outcome
            .vm_reports
            .iter()
            .find(|&&(id, _)| id == m.vm)
            .expect("migrated VM reported");
        assert!(!m.downtime.is_zero() && m.downtime <= m.cost);
        let pagecopy = migrated
            .breakdown
            .iter()
            .find(|(c, _)| *c == CostCategory::PageCopy)
            .map(|(_, t)| *t)
            .unwrap_or(Nanos::ZERO);
        assert!(
            pagecopy >= m.downtime,
            "VM breakdown {pagecopy} must include the stop-and-copy downtime {}",
            m.downtime
        );
    }

    #[test]
    fn audited_cluster_is_clean_and_byte_identical_to_unaudited() {
        let run = |audit: AuditLevel| {
            Cluster::new(
                host_cfg().with_audit(audit),
                SharePolicy::paper_drf(),
                Policy::HeteroCoordinated,
                imbalanced_spec(),
                1,
            )
            .run_audited()
        };
        let (plain, none) = run(AuditLevel::Off);
        assert_eq!(none, Vec::new());
        let (audited, violations) = run(AuditLevel::Epoch);
        assert_eq!(violations, Vec::new(), "cluster must audit clean");
        assert_eq!(
            plain.to_json(),
            audited.to_json(),
            "audit must not perturb the run"
        );
    }

    #[test]
    fn jobs_do_not_change_a_cluster_byte() {
        let run = |jobs: usize| {
            Cluster::new(
                host_cfg().with_audit(AuditLevel::Epoch),
                SharePolicy::paper_drf(),
                Policy::HeteroCoordinated,
                spec(4, 12),
                jobs,
            )
            .run()
            .to_json()
        };
        assert_eq!(
            run(1),
            run(4),
            "host sharding must be thread-count invariant"
        );
    }

    #[test]
    fn mean_peak_live_is_zero_for_empty_report() {
        let outcome = Cluster::new(
            host_cfg(),
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            spec(2, 0),
            1,
        )
        .run();
        assert_eq!(outcome.report.arrivals, 0);
        assert!(mean_peak_live(&outcome.report) >= 0.0);
        let empty = ClusterReport {
            per_host: Vec::new(),
            ..outcome.report
        };
        assert_eq!(mean_peak_live(&empty), 0.0);
    }
    #[test]
    fn poisson_schedule_accumulates_integer_nanos() {
        // Regression: the schedule used to accumulate arrival times in an
        // f64 running sum. Past 2^53 ns the ulp is 2 ns, so every arrival
        // landed on an even nanosecond and gaps quantized. 4096 arrivals
        // at a one-hour mean push the horizon to ~1.5e16 ns, well past
        // 2^53 (~9.0e15): integer accumulation must still produce odd
        // timestamps out there, and stay sorted.
        let spec = ClusterSpec {
            hosts: 1,
            templates: vec![VmSetup::new(
                apps::redis(),
                64 * MB,
                128 * MB,
                256 * MB,
                512 * MB,
            )],
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: Nanos::from_secs(3600),
                count: 4096,
            },
            quantum: Nanos::from_millis(50),
            migration: MigrationPolicy::default(),
            fault_rate: 0.0,
        };
        let schedule = Cluster::schedule(&spec, 42);
        assert!(
            schedule
                .iter()
                .zip(schedule.iter().skip(1))
                .all(|(a, b)| a.0 <= b.0),
            "arrival times must be nondecreasing"
        );
        let past_2_53: Vec<u64> = schedule
            .iter()
            .map(|&(t, _)| t.as_nanos())
            .filter(|&t| t > (1u64 << 53))
            .collect();
        assert!(
            past_2_53.len() > 1000,
            "schedule must cross 2^53 ns to exercise the regression \
             (got {} arrivals past it)",
            past_2_53.len()
        );
        assert!(
            past_2_53.iter().any(|t| t % 2 == 1),
            "f64 accumulation quantizes to even nanos past 2^53; integer \
             accumulation must keep odd timestamps"
        );
    }

    #[test]
    fn arrival_deferred_by_full_host_places_when_a_retirement_frees_room() {
        // One host, fully reserved by a short-lived blocker admitted at
        // t=0. A second VM arrives inside round 1, cannot fit, and the
        // blocker finishes within the same (generously long) round. The
        // second admission pass must place it in round 1 — before the fix
        // it waited a full quantum next to an idle host and was counted
        // as a deferral.
        let blocker = {
            let mut s = apps::redis();
            // A handful of epochs: finishes well inside the first round.
            s.total_instructions = s.instructions_per_epoch * 4;
            s
        };
        let follower = {
            let mut s = apps::nginx();
            s.total_instructions = s.instructions_per_epoch * 8;
            s
        };
        let cfg = SimConfig::paper_default()
            .with_fast_bytes(2 * GB)
            .with_slow_bytes(4 * GB)
            .with_seed(7);
        // The blocker reserves the entire host on every tier.
        let spec = ClusterSpec {
            hosts: 1,
            templates: vec![
                VmSetup::new(blocker, 2 * GB, 2 * GB, 4 * GB, 4 * GB),
                VmSetup::new(follower, 32 * MB, 64 * MB, 128 * MB, 256 * MB),
            ],
            arrivals: ArrivalProcess::Trace(vec![(Nanos::ZERO, 0), (Nanos::from_millis(1), 1)]),
            // Long enough that the blocker certainly retires in round 1.
            quantum: Nanos::from_secs(30),
            migration: MigrationPolicy::default(),
            fault_rate: 0.0,
        };
        let outcome = Cluster::new(
            cfg,
            SharePolicy::paper_drf(),
            Policy::HeteroCoordinated,
            spec,
            1,
        )
        .run();
        let r = &outcome.report;
        assert_eq!(r.arrivals, 2, "both VMs must be admitted");
        assert_eq!(r.departures, 2, "both VMs must finish");
        assert_eq!(r.rejected, 0);
        assert_eq!(
            r.deferrals, 0,
            "the retirement frees the host within round 1, so the same-round \
             second admission pass must place the follower without a deferral"
        );
    }
}
