//! `repro --resume` failure modes must exit nonzero with a descriptive
//! message on stderr — never panic, never succeed on bad bytes.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A scratch file path unique to this test binary run.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-resume-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn run_expect_failure(args: &[&str], needle: &str) {
    let out = repro().args(args).output().expect("repro spawns");
    assert!(
        !out.status.success(),
        "`repro {}` unexpectedly succeeded",
        args.join(" ")
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "`repro {}` stderr missing '{needle}':\n{stderr}",
        args.join(" ")
    );
    assert!(
        !stderr.contains("panicked"),
        "`repro {}` panicked instead of failing cleanly:\n{stderr}",
        args.join(" ")
    );
}

#[test]
fn missing_snapshot_file_fails_cleanly() {
    run_expect_failure(
        &[
            "--quick",
            "--resume",
            "/nonexistent/no-such.snap",
            "cluster",
        ],
        "cannot read snapshot",
    );
}

#[test]
fn garbage_snapshot_fails_cleanly() {
    let path = scratch("garbage.snap");
    std::fs::write(&path, b"definitely not a snapshot").unwrap();
    run_expect_failure(
        &["--quick", "--resume", path.to_str().unwrap(), "cluster"],
        "magic",
    );
}

#[test]
fn truncated_and_version_flipped_snapshots_fail_cleanly() {
    // Forge a tiny but real snapshot through the library, then corrupt it
    // the two ways the acceptance gate cares about.
    let opts = hetero_core::experiments::ExpOptions::quick();
    let mut sim = hetero_core::experiments::checkpoint::single_sim(
        &opts,
        hetero_core::Policy::HeteroCoordinated,
    );
    assert!(sim.step());
    let bytes = sim.save();

    let trunc = scratch("truncated.snap");
    std::fs::write(&trunc, &bytes[..bytes.len() / 2]).unwrap();
    run_expect_failure(
        &[
            "--quick",
            "--resume",
            trunc.to_str().unwrap(),
            "ckpt-single",
        ],
        "truncated",
    );

    let mut flipped = bytes;
    flipped[4] ^= 0xFF; // the version byte right after the 4-byte magic
    let vflip = scratch("version-flip.snap");
    std::fs::write(&vflip, &flipped).unwrap();
    run_expect_failure(
        &[
            "--quick",
            "--resume",
            vflip.to_str().unwrap(),
            "ckpt-single",
        ],
        "version mismatch",
    );
}

#[test]
fn wrong_layer_snapshot_fails_cleanly() {
    let opts = hetero_core::experiments::ExpOptions::quick();
    let mut sim = hetero_core::experiments::checkpoint::single_sim(
        &opts,
        hetero_core::Policy::HeteroCoordinated,
    );
    assert!(sim.step());
    let path = scratch("single.snap");
    std::fs::write(&path, sim.save()).unwrap();
    run_expect_failure(
        &["--quick", "--resume", path.to_str().unwrap(), "cluster"],
        "layer mismatch",
    );
}

#[test]
fn checkpoint_flags_reject_bad_usage() {
    run_expect_failure(
        &["--quick", "--checkpoint-every", "5", "fig9"],
        "not checkpointable",
    );
    run_expect_failure(
        &[
            "--quick",
            "--checkpoint-every",
            "5",
            "ckpt-single",
            "cluster",
        ],
        "exactly one target",
    );
    run_expect_failure(
        &["--quick", "--checkpoint-every", "0", "cluster"],
        "positive",
    );
    run_expect_failure(&["--quick", "--resume"], "requires a snapshot file");
}
