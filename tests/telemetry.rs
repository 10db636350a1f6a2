//! Telemetry is an exact observational no-op.
//!
//! The `SimConfig::telemetry` switch wires a metrics registry and a span
//! tracer through every engine hot path. Instrumentation must never change
//! a run: it draws no randomness and charges no simulated time, so a
//! telemetry-on run must produce **byte-identical** `RunReport`s and event
//! logs to a telemetry-off run, across seeds and policies. This suite pins
//! that contract, plus the determinism and JSON validity of the snapshots
//! themselves.

use heteroos::core::{Policy, SimConfig, SingleVmSim};
use heteroos::sim::Runner;
use heteroos::workloads::{apps, AppWorkload};

const SEEDS: [u64; 4] = [7, 42, 555, 9001];

/// Policies spanning every management discipline the instrumentation
/// touches: none, guest-LRU, VMM-exclusive scans, coordinated scans.
const POLICIES: [Policy; 4] = [
    Policy::SlowMemOnly,
    Policy::HeteroLru,
    Policy::VmmExclusive,
    Policy::HeteroCoordinated,
];

fn run_once(policy: Policy, seed: u64, telemetry: bool) -> (String, String, Option<String>) {
    let mut cfg = SimConfig::paper_default()
        .with_capacity_ratio(1, 4)
        .with_seed(seed)
        .with_telemetry(telemetry);
    cfg.trace_events = 100_000;
    let mut spec = apps::graphchi();
    spec.total_instructions /= 25;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, policy, wl);
    while sim.step() {}
    let events: String = sim
        .events()
        .expect("tracing enabled")
        .iter()
        .map(|e| format!("{e}\n"))
        .collect();
    let report = format!("{:?}", sim.report());
    let snapshot = sim.telemetry().map(|t| t.snapshot_json());
    (report, events, snapshot)
}

#[test]
fn telemetry_on_and_off_are_byte_identical() {
    // Independent 4×4 policy × seed matrix — spread it over the
    // deterministic runner; results come back in descriptor order.
    let cells: Vec<(Policy, u64)> = POLICIES
        .iter()
        .flat_map(|&p| SEEDS.iter().map(move |&s| (p, s)))
        .collect();
    let results = Runner::new(0).run(cells.clone(), |(policy, seed)| {
        (run_once(policy, seed, false), run_once(policy, seed, true))
    });
    for (&(policy, seed), ((off_report, off_events, off_snap), (on_report, on_events, on_snap))) in
        cells.iter().zip(&results)
    {
        assert!(off_snap.is_none(), "telemetry-off run produced a snapshot");
        assert!(on_snap.is_some(), "telemetry-on run produced no snapshot");
        assert_eq!(
            off_report, on_report,
            "{policy:?} seed {seed}: RunReport diverged"
        );
        assert_eq!(
            off_events, on_events,
            "{policy:?} seed {seed}: event log diverged"
        );
    }
}

#[test]
fn snapshots_are_deterministic_across_reruns() {
    let (r1, _, s1) = run_once(Policy::HeteroCoordinated, 42, true);
    let (r2, _, s2) = run_once(Policy::HeteroCoordinated, 42, true);
    assert_eq!(r1, r2);
    assert_eq!(s1.expect("snapshot"), s2.expect("snapshot"));
}

#[test]
fn instrumented_run_populates_every_layer() {
    let (_, _, snap) = run_once(Policy::HeteroCoordinated, 42, true);
    let snap = snap.expect("snapshot");
    // One representative metric per instrumented layer.
    for needle in [
        "\"engine.epoch_ns\"",
        "\"engine.epochs\"",
        "\"guest.lru.activations\"",
        "\"guest.pcp.fast_path_hits\"",
        "\"guest.slab.skbuff.allocs\"",
        "\"vmm.scan.passes\"",
        "\"vmm.scan.frames_per_pass\"",
    ] {
        assert!(snap.contains(needle), "snapshot missing {needle}:\n{snap}");
    }
    // Every span label of the hierarchy shows up.
    for label in [
        "\"epoch\"",
        "\"guest-ops\"",
        "\"guest-lru\"",
        "\"vmm-decision\"",
    ] {
        assert!(snap.contains(label), "snapshot missing span {label}");
    }
}

#[test]
fn snapshot_json_is_structurally_valid() {
    let (_, _, snap) = run_once(Policy::HeteroCoordinated, 7, true);
    let snap = snap.expect("snapshot");
    assert_json(&snap);
}

#[test]
fn run_report_json_is_structurally_valid() {
    let mut cfg = SimConfig::paper_default().with_capacity_ratio(1, 4);
    cfg.seed = 7;
    let mut spec = apps::redis();
    spec.total_instructions /= 25;
    let wl = AppWorkload::new(spec, cfg.page_size, cfg.scale);
    let mut sim = SingleVmSim::new(cfg, Policy::HeteroCoordinated, wl);
    while sim.step() {}
    assert_json(&sim.report().to_json());
}

// ------------------------------------------------------------------------
// Minimal recursive-descent JSON validator — enough to catch malformed
// escapes, trailing commas, bare NaN/inf and unbalanced brackets in the
// hand-rolled writers without an external parser dependency.

fn assert_json(s: &str) {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, s);
    skip_ws(bytes, &mut pos);
    assert_eq!(
        pos,
        bytes.len(),
        "trailing garbage after JSON value in: {s}"
    );
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize, src: &str) {
    skip_ws(b, pos);
    assert!(*pos < b.len(), "unexpected end of JSON in: {src}");
    match b[*pos] {
        b'{' => parse_object(b, pos, src),
        b'[' => parse_array(b, pos, src),
        b'"' => parse_string(b, pos, src),
        b't' => expect_lit(b, pos, "true", src),
        b'f' => expect_lit(b, pos, "false", src),
        b'n' => expect_lit(b, pos, "null", src),
        b'-' | b'0'..=b'9' => parse_number(b, pos, src),
        c => panic!("unexpected byte {:?} at {} in: {src}", c as char, *pos),
    }
}

fn parse_object(b: &[u8], pos: &mut usize, src: &str) {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b'}' {
        *pos += 1;
        return;
    }
    loop {
        skip_ws(b, pos);
        assert!(
            *pos < b.len() && b[*pos] == b'"',
            "object key must be a string at {} in: {src}",
            *pos
        );
        parse_string(b, pos, src);
        skip_ws(b, pos);
        assert!(
            *pos < b.len() && b[*pos] == b':',
            "expected ':' at {} in: {src}",
            *pos
        );
        *pos += 1;
        parse_value(b, pos, src);
        skip_ws(b, pos);
        assert!(*pos < b.len(), "unterminated object in: {src}");
        match b[*pos] {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return;
            }
            c => panic!("expected ',' or '}}', got {:?} in: {src}", c as char),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, src: &str) {
    *pos += 1; // '['
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == b']' {
        *pos += 1;
        return;
    }
    loop {
        parse_value(b, pos, src);
        skip_ws(b, pos);
        assert!(*pos < b.len(), "unterminated array in: {src}");
        match b[*pos] {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return;
            }
            c => panic!("expected ',' or ']', got {:?} in: {src}", c as char),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize, src: &str) {
    *pos += 1; // opening quote
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return;
            }
            b'\\' => {
                *pos += 1;
                assert!(*pos < b.len(), "dangling escape in: {src}");
                match b[*pos] {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => *pos += 1,
                    b'u' => {
                        assert!(*pos + 4 < b.len(), "short \\u escape in: {src}");
                        for i in 1..=4 {
                            assert!(b[*pos + i].is_ascii_hexdigit(), "bad \\u escape in: {src}");
                        }
                        *pos += 5;
                    }
                    c => panic!("invalid escape \\{} in: {src}", c as char),
                }
            }
            0x00..=0x1f => panic!("raw control byte in string in: {src}"),
            _ => *pos += 1,
        }
    }
    panic!("unterminated string in: {src}");
}

fn parse_number(b: &[u8], pos: &mut usize, src: &str) {
    let start = *pos;
    if b[*pos] == b'-' {
        *pos += 1;
    }
    let digits = |pos: &mut usize| {
        let s = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        assert!(*pos > s, "expected digits at {} in: {src}", *pos);
    };
    digits(pos);
    if *pos < b.len() && b[*pos] == b'.' {
        *pos += 1;
        digits(pos);
    }
    if *pos < b.len() && (b[*pos] == b'e' || b[*pos] == b'E') {
        *pos += 1;
        if *pos < b.len() && (b[*pos] == b'+' || b[*pos] == b'-') {
            *pos += 1;
        }
        digits(pos);
    }
    assert!(*pos > start, "empty number in: {src}");
}

fn expect_lit(b: &[u8], pos: &mut usize, lit: &str, src: &str) {
    assert!(
        b[*pos..].starts_with(lit.as_bytes()),
        "expected literal '{lit}' at {} in: {src}",
        *pos
    );
    *pos += lit.len();
}
