//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--sched MODE] [--audit LEVEL]
//!       [--persist MODE] [--faults KIND] [--hosts N] [--arrival MODE]
//!       [--tier-profile NAME] [--tracking MODE] [--json-out DIR] <target>...
//! repro all                      # every table and figure
//! repro ablations                # the design-choice ablations
//! repro fig9 fig10               # specific targets
//! repro --json-out out/ all      # also write machine-readable exports
//! repro --jobs 8 all             # spread runs over 8 OS threads
//! repro --sched dense fig9       # force the dense per-epoch scheduler
//! repro --audit epoch fig9       # cross-check invariants every epoch
//! repro recovery                 # the crash-consistency experiments
//! repro --persist epoch --faults host-power-loss rec-ablation
//! repro cluster                  # 1,000-VM/16-host consolidation run
//! repro --hosts 8 --arrival trace cluster
//! repro tiers                    # device-profile topology × tracking matrix
//! repro --tier-profile optane-dc --tracking access-bit ckpt-single
//! repro --checkpoint-every 10 cluster        # snapshot every 10 rounds
//! repro --resume checkpoints/cluster-3.snap cluster   # resume one
//! ```
//!
//! `--jobs N` spreads the work over `N` OS threads (default: available
//! parallelism; `--jobs 1` forces sequential). Output is byte-identical
//! for every job count — parallelism only changes the wall-clock.
//!
//! `--sched MODE` (`event` or `dense`) selects the epoch scheduler: `event`
//! (the default) pops management work off a deterministic timer queue and
//! skips epochs with nothing due, `dense` re-checks every subsystem each
//! epoch. Exports are byte-identical either way — the mode is a pure
//! performance lever, and the equivalence is pinned by the scheduler
//! test matrix.
//!
//! `--audit LEVEL` (`off`, `epoch` or `paranoid`) runs the invariant
//! sanitizer and shadow reference model over every simulation. Auditing is
//! observational — exports stay byte-identical — but any violation makes
//! the offending run panic instead of silently reporting wrong numbers.
//!
//! `--persist MODE` (`off`, `eager`, `epoch` or `on-evict`) selects the
//! NVM write-behind flush policy for the `recovery` experiment family and
//! `ckpt-single`, and `--faults KIND` (`host-power-loss` or
//! `guest-crash-persist`) picks the crash the recovery family's
//! fault-arming drivers inject mid-run. Every other target ignores both
//! flags, so its exports are unchanged by them.
//!
//! `--hosts N` and `--arrival MODE` (`poisson` or `trace`) shape the
//! `cluster` target — the rack-scale consolidation run with inter-host
//! pre-copy live migration (`--hosts 0` keeps the experiment default of
//! 16 hosts, 4 in quick mode). Every other target ignores both flags.
//!
//! `--tier-profile NAME` (`table1-trio`, `optane-dc` or `cxl`) replaces
//! the throttle-derived node parameters of the checkpointable scenarios
//! with a named device profile — Optane DC carries asymmetric load/store
//! latency *and* separate read/write bandwidth — and `--tracking MODE`
//! (`none`, `full-vm`, `guided` or `access-bit`) overrides each policy's
//! hotness-tracking discipline (`access-bit` harvests real page-table A/D
//! bits). The `tiers` target sweeps the whole topology × policy ×
//! tracking matrix in one run.
//!
//! `--checkpoint-every N` snapshots the run every `N` steps (cluster
//! rounds for the `cluster` target) into `--checkpoint-dir DIR` (default
//! `checkpoints/`) as versioned binary snapshots named `<target>-<k>.snap`,
//! and `--resume FILE` restores a run from one such snapshot instead of
//! booting fresh. Both accept exactly one checkpointable target
//! (`ckpt-single`, `ckpt-fleet` or `cluster`) per invocation. A resumed
//! run finishes **byte-identically** to an uninterrupted one — same
//! rendered output, same JSON exports. A missing, truncated or
//! version-mismatched snapshot exits nonzero with a descriptive message.
//!
//! With `--json-out DIR`, every target additionally writes machine-readable
//! files into `DIR`: `<target>.json` for all targets, plus `<target>.csv`
//! for figures and `<target>.txt` for text tables. A `telemetry.json`
//! snapshot (metrics registry + span trace of an instrumented quick run)
//! is written alongside them.

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{
    run_artifacts, run_checkpointable, Artifact, ABLATIONS, CHECKPOINTABLE, CLUSTER, EXTENSIONS,
    RECOVERY, TARGETS, TIERS,
};
use hetero_core::experiments::ExpOptions;
use hetero_faults::FaultKind;
use hetero_mem::TierProfile;
use hetero_core::{Policy, SimConfig, SingleVmSim};
use hetero_workloads::{apps, AppWorkload};

/// Runs a short instrumented simulation and returns its telemetry
/// snapshot (metrics + spans) as a JSON document.
fn telemetry_snapshot(seed: u64) -> String {
    let mut spec = apps::redis();
    spec.total_instructions /= 20;
    let cfg = SimConfig {
        seed,
        ..SimConfig::paper_default().with_capacity_ratio(1, 8)
    }
    .with_telemetry(true);
    let workload = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, workload);
    while sim.step() {}
    sim.telemetry()
        .expect("telemetry was enabled in the config")
        .snapshot_json()
}

fn write_file(dir: &std::path::Path, name: &str, body: &str) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Is `target` one of the names `run_artifact` accepts?
fn is_known_target(target: &str) -> bool {
    TARGETS.contains(&target)
        || ABLATIONS.contains(&target)
        || EXTENSIONS.contains(&target)
        || RECOVERY.contains(&target)
        || CLUSTER.contains(&target)
        || TIERS.contains(&target)
        || CHECKPOINTABLE.contains(&target)
}

/// Prints one artifact and, with `--json-out`, writes the same export
/// set as a straight run (`<target>.json` + `.csv`/`.txt` +
/// `telemetry.json`) so determinism gates can `diff -r` a checkpointed
/// or resumed run against an uninterrupted one.
fn emit(
    target: &str,
    artifact: &Artifact,
    json_out: Option<&std::path::Path>,
    seed: u64,
) -> ExitCode {
    let rendered = artifact.render();
    println!("==================== {target} ====================");
    println!("{rendered}");
    if let Some(dir) = json_out {
        let result = write_file(dir, &format!("{target}.json"), &artifact.to_json())
            .and_then(|()| match artifact.to_csv() {
                Some(csv) => write_file(dir, &format!("{target}.csv"), &csv),
                None => write_file(dir, &format!("{target}.txt"), &rendered),
            })
            .and_then(|()| write_file(dir, "telemetry.json", &telemetry_snapshot(seed)));
        if let Err(e) = result {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("machine-readable exports written to {}", dir.display());
    }
    ExitCode::SUCCESS
}

/// Parses a `--faults` crash kind by its display name.
fn parse_crash_kind(s: &str) -> Result<FaultKind, String> {
    match s {
        "host-power-loss" | "power-loss" => Ok(FaultKind::HostPowerLoss),
        "guest-crash-persist" | "crash-persist" => Ok(FaultKind::GuestCrashPersist),
        other => Err(format!(
            "unknown crash kind '{other}' (expected host-power-loss or guest-crash-persist)"
        )),
    }
}

fn main() -> ExitCode {
    let mut opts = ExpOptions::default();
    // The CLI defaults to available parallelism; `--jobs 1` forces the
    // sequential path. Either way the output bytes are identical.
    let mut jobs: usize = 0;
    let mut targets: Vec<String> = Vec::new();
    let mut json_out: Option<PathBuf> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut checkpoint_dir = PathBuf::from("checkpoints");
    let mut resume: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => opts.seed = seed,
                None => {
                    eprintln!("--seed requires an integer");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("--jobs requires an integer (0 = available parallelism)");
                    return ExitCode::FAILURE;
                }
            },
            "--audit" => match args.next().map(|s| s.parse()) {
                Some(Ok(level)) => opts.audit = level,
                Some(Err(e)) => {
                    eprintln!("--audit: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--audit requires a level (off, epoch or paranoid)");
                    return ExitCode::FAILURE;
                }
            },
            "--sched" => match args.next().map(|s| s.parse()) {
                Some(Ok(mode)) => opts.sched = mode,
                Some(Err(e)) => {
                    eprintln!("--sched: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--sched requires a mode (event or dense)");
                    return ExitCode::FAILURE;
                }
            },
            "--json-out" => match args.next() {
                Some(dir) => json_out = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--json-out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--persist" => match args.next().map(|s| s.parse()) {
                Some(Ok(policy)) => opts.persist = policy,
                Some(Err(e)) => {
                    eprintln!("--persist: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--persist requires a mode (off, eager, epoch or on-evict)");
                    return ExitCode::FAILURE;
                }
            },
            "--faults" => match args.next().as_deref().map(parse_crash_kind) {
                Some(Ok(kind)) => opts.faults = Some(kind),
                Some(Err(e)) => {
                    eprintln!("--faults: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "--faults requires a crash kind \
                         (host-power-loss or guest-crash-persist)"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--hosts" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => opts.hosts = n,
                None => {
                    eprintln!("--hosts requires an integer (0 = experiment default)");
                    return ExitCode::FAILURE;
                }
            },
            "--arrival" => match args.next().map(|s| s.parse()) {
                Some(Ok(mode)) => opts.arrival = mode,
                Some(Err(e)) => {
                    eprintln!("--arrival: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--arrival requires a mode (poisson or trace)");
                    return ExitCode::FAILURE;
                }
            },
            "--tier-profile" => match args.next().map(|s| s.parse::<TierProfile>()) {
                Some(Ok(profile)) => opts.tier_profile = Some(profile),
                Some(Err(e)) => {
                    eprintln!("--tier-profile: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "--tier-profile requires a name ({})",
                        TierProfile::names().join(", ")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--tracking" => match args.next().map(|s| s.parse()) {
                Some(Ok(mode)) => opts.tracking = Some(mode),
                Some(Err(e)) => {
                    eprintln!("--tracking: {e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!(
                        "--tracking requires a mode (none, full-vm, guided or access-bit)"
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-every" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => checkpoint_every = Some(n),
                _ => {
                    eprintln!("--checkpoint-every requires a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--checkpoint-dir" => match args.next() {
                Some(dir) => checkpoint_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--checkpoint-dir requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--resume" => match args.next() {
                Some(file) => resume = Some(PathBuf::from(file)),
                None => {
                    eprintln!("--resume requires a snapshot file");
                    return ExitCode::FAILURE;
                }
            },
            "all" => targets.extend(TARGETS.iter().map(|s| s.to_string())),
            "ablations" => targets.extend(ABLATIONS.iter().map(|s| s.to_string())),
            "extensions" => targets.extend(EXTENSIONS.iter().map(|s| s.to_string())),
            "recovery" => targets.extend(RECOVERY.iter().map(|s| s.to_string())),
            "cluster" => targets.extend(CLUSTER.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick] [--seed N] [--jobs N] [--sched MODE] \
                     [--audit LEVEL] [--persist MODE] [--faults KIND] \
                     [--hosts N] [--arrival MODE] [--tier-profile NAME] \
                     [--tracking MODE] [--json-out DIR] \
                     [--checkpoint-every N] [--checkpoint-dir DIR] \
                     [--resume FILE] <target>..."
                );
                println!("sched modes: event dense");
                println!("audit levels: off epoch paranoid");
                println!("persist modes: off eager epoch on-evict");
                println!("fault kinds: host-power-loss guest-crash-persist");
                println!("arrival modes: poisson trace (cluster target only)");
                println!("tier profiles: {}", TierProfile::names().join(" "));
                println!("tracking modes: none full-vm guided access-bit");
                println!(
                    "checkpointable targets (--checkpoint-every/--resume): {}",
                    CHECKPOINTABLE.join(" ")
                );
                println!(
                    "targets: all ablations extensions recovery cluster tiers {}",
                    TARGETS.join(" ")
                );
                println!(
                    "         {} {} {}",
                    ABLATIONS.join(" "),
                    EXTENSIONS.join(" "),
                    RECOVERY.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => targets.push(other.to_string()),
        }
    }
    if targets.is_empty() {
        eprintln!("no targets; try `repro all` or `repro --help`");
        return ExitCode::FAILURE;
    }
    // Validate every target before running anything, so a typo at the end
    // of the list cannot waste minutes of completed experiments first.
    let unknown: Vec<&str> = targets
        .iter()
        .map(String::as_str)
        .filter(|t| !is_known_target(t))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment target(s): {}", unknown.join(", "));
        eprintln!(
            "valid targets: all ablations extensions recovery cluster tiers {}",
            TARGETS.join(" ")
        );
        eprintln!(
            "               {} {} {}",
            ABLATIONS.join(" "),
            EXTENSIONS.join(" "),
            RECOVERY.join(" ")
        );
        return ExitCode::FAILURE;
    }
    if let Some(dir) = &json_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if checkpoint_every.is_some() || resume.is_some() {
        // Checkpoint/resume mode drives exactly one run step by step; a
        // multi-target sweep has no single stream of snapshots to name.
        let target = match targets.as_slice() {
            [t] if CHECKPOINTABLE.contains(&t.as_str()) => t.clone(),
            [t] => {
                eprintln!(
                    "'{t}' is not checkpointable; --checkpoint-every/--resume \
                     accept one of: {}",
                    CHECKPOINTABLE.join(", ")
                );
                return ExitCode::FAILURE;
            }
            _ => {
                eprintln!(
                    "--checkpoint-every/--resume accept exactly one target \
                     (one of: {})",
                    CHECKPOINTABLE.join(", ")
                );
                return ExitCode::FAILURE;
            }
        };
        let resume_bytes = match &resume {
            Some(path) => match std::fs::read(path) {
                Ok(bytes) => Some(bytes),
                Err(e) => {
                    eprintln!("cannot read snapshot {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            },
            None => None,
        };
        if checkpoint_every.is_some() {
            if let Err(e) = std::fs::create_dir_all(&checkpoint_dir) {
                eprintln!("cannot create {}: {e}", checkpoint_dir.display());
                return ExitCode::FAILURE;
            }
        }
        let run_jobs = if jobs == 0 {
            hetero_sim::runner::available_jobs()
        } else {
            jobs
        };
        let run_opts = opts.with_jobs(run_jobs);
        let mut seq = 0u64;
        let result = run_checkpointable(
            &target,
            &run_opts,
            checkpoint_every,
            resume_bytes.as_deref(),
            &mut |step, bytes| {
                seq += 1;
                let path = checkpoint_dir.join(format!("{target}-{seq}.snap"));
                std::fs::write(&path, bytes)
                    .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
                println!("checkpoint {seq} at step {step} -> {}", path.display());
                Ok(())
            },
        );
        let artifact = match result {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        return emit(&target, &artifact, json_out.as_deref(), opts.seed);
    }
    for (target, result) in run_artifacts(&targets, &opts, jobs) {
        let artifact = match result {
            Ok(a) => a,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = artifact.render();
        println!("==================== {target} ====================");
        println!("{rendered}");
        if let Some(dir) = &json_out {
            let result = write_file(dir, &format!("{target}.json"), &artifact.to_json())
                .and_then(|()| match artifact.to_csv() {
                    Some(csv) => write_file(dir, &format!("{target}.csv"), &csv),
                    None => write_file(dir, &format!("{target}.txt"), &rendered),
                });
            if let Err(e) = result {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &json_out {
        if let Err(e) = write_file(dir, "telemetry.json", &telemetry_snapshot(opts.seed)) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        println!("machine-readable exports written to {}", dir.display());
    }
    ExitCode::SUCCESS
}
