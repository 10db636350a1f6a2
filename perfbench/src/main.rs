//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark run and prints its metrics, one per line with
//! units, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run also writes its spans
//! to `perfbench/out/`. `--record-golden` instead prints the golden-table
//! lines of one iteration of the workload at that seed.

use std::process::ExitCode;

use perfbench::golden::Golden;
use perfbench::{result_json, run, RunConfig, Workload};

const USAGE: &str = "usage: perfbench --workload vm-tiering|vm-durable|rack --seed N --seconds S --trace 0|1 [--record-golden]";

fn parse(args: &[String]) -> Result<(RunConfig, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-golden" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed '{value}'"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds '{value}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds '{value}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let mut cfg = RunConfig::new(workload, seed, seconds.unwrap_or(0.0), trace);
    if record {
        cfg.seconds = 0.0;
        cfg.min_iterations = 1;
        cfg.trace = false;
    } else if seconds.is_none() {
        return Err("--seconds is required".to_string());
    }
    Ok((cfg, record))
}

/// Keeps freed heap memory in the process instead of handing it back to
/// the kernel, so that iterations after the first reuse pages already
/// faulted in. In a virtual machine a fresh page can cost a fault in the
/// host too, whose price depends on the host's load, not the program.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets glibc allocator parameters, before this
    // program allocates anything it frees.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_heap() {}

fn main() -> ExitCode {
    keep_freed_heap();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, record) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let golden = if record {
        Golden::default()
    } else {
        Golden::committed()
    };
    let outcome = run(&cfg, &golden);
    for e in &outcome.errors {
        eprintln!("perfbench: {e}");
    }
    if record {
        let mut g = Golden::default();
        for (op, d) in &outcome.digests {
            g.insert(cfg.workload.name(), cfg.seed, op, *d);
        }
        print!("{}", g.to_tsv());
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(spans) = &outcome.spans_json {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "{}-seed{}.spans.json",
            cfg.workload.name(),
            cfg.seed
        ));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "{} seed {} ({}): {} ops, {} failed; {} iterations, median {:.4} s each",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "untraced" },
        outcome.attempted,
        outcome.failed,
        outcome.iterations.0,
        outcome.iterations.1
    );
    for (name, value, unit) in &outcome.metrics {
        println!("  {name:<32} {value:>24} {unit}");
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}
