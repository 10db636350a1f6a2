//! Workload trace recording and replay.
//!
//! A [`WorkloadTrace`] captures the exact epoch-demand stream a workload
//! produced (including its stochastic churn), so a run can be replayed
//! bit-for-bit, archived, diffed, or authored externally and fed to the
//! engine in place of the built-in models. The on-disk format is a simple
//! line-oriented text format — one header line, one line per epoch — so
//! traces can be generated from real application instrumentation with a
//! shell script.

use std::fmt::Write as _;
use std::str::FromStr;

use hetero_sim::SimRng;

use crate::spec::{EpochDemand, Workload, WorkloadSpec};

/// A recorded epoch-demand stream plus the spec it was produced under.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadTrace {
    /// The workload description the demands were generated from (timing
    /// parameters still come from here at replay).
    pub spec: WorkloadSpec,
    /// One entry per epoch, in order.
    pub demands: Vec<EpochDemand>,
}

impl WorkloadTrace {
    /// Records a workload to completion.
    ///
    /// The `rng` drives the workload's stochastic churn exactly as a live
    /// run would; recording with the same seed as a live run captures that
    /// run's demand stream.
    pub fn record<W: Workload>(mut workload: W, rng: &mut SimRng) -> Self {
        let spec = workload.spec().clone();
        let mut demands = Vec::new();
        while let Some(d) = workload.next_epoch(rng) {
            demands.push(d);
        }
        WorkloadTrace { spec, demands }
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// True when no epochs were recorded.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Serialises to the line-oriented text format.
    ///
    /// ```text
    /// heteroos-trace v1 <name> <epochs>
    /// <instructions> <heap_alloc> <heap_free> <cache_reads> <cache_releases> \
    ///   <buffer_allocs> <buffer_releases> <slab_allocs> <slab_frees> \
    ///   <netbuf_allocs> <netbuf_frees>
    /// ...
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "heteroos-trace v1 {} {}",
            self.spec.name.replace(' ', "_"),
            self.demands.len()
        )
        .expect("write to string");
        for d in &self.demands {
            writeln!(
                out,
                "{} {} {} {} {} {} {} {} {} {} {}",
                d.instructions,
                d.heap_alloc,
                d.heap_free,
                d.cache_reads,
                d.cache_releases,
                d.buffer_allocs,
                d.buffer_releases,
                d.slab_allocs,
                d.slab_frees,
                d.netbuf_allocs,
                d.netbuf_frees,
            )
            .expect("write to string");
        }
        out
    }

    /// Parses the text format produced by [`WorkloadTrace::to_text`],
    /// attaching `spec` for the replay's timing parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str, spec: WorkloadSpec) -> Result<Self, TraceParseError> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| TraceParseError {
            line: 1,
            message: "empty trace".into(),
        })?;
        let mut fields = header.split_whitespace();
        if fields.next() != Some("heteroos-trace") || fields.next() != Some("v1") {
            return Err(TraceParseError {
                line: 1,
                message: "missing 'heteroos-trace v1' header".into(),
            });
        }
        let _name = fields.next();
        let declared: usize =
            fields
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| TraceParseError {
                    line: 1,
                    message: "header missing epoch count".into(),
                })?;
        let mut demands = Vec::with_capacity(declared);
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let nums: Result<Vec<u64>, _> = line.split_whitespace().map(u64::from_str).collect();
            let nums = nums.map_err(|e| TraceParseError {
                line: i + 2,
                message: format!("bad number: {e}"),
            })?;
            if nums.len() != 11 {
                return Err(TraceParseError {
                    line: i + 2,
                    message: format!("expected 11 fields, found {}", nums.len()),
                });
            }
            demands.push(EpochDemand {
                instructions: nums[0],
                heap_alloc: nums[1],
                heap_free: nums[2],
                cache_reads: nums[3],
                cache_releases: nums[4],
                buffer_allocs: nums[5],
                buffer_releases: nums[6],
                slab_allocs: nums[7],
                slab_frees: nums[8],
                netbuf_allocs: nums[9],
                netbuf_frees: nums[10],
            });
        }
        if demands.len() != declared {
            return Err(TraceParseError {
                line: 1,
                message: format!(
                    "header declares {declared} epochs but {} were found",
                    demands.len()
                ),
            });
        }
        Ok(WorkloadTrace { spec, demands })
    }

    /// Consumes the trace into a replayable [`Workload`].
    pub fn into_workload(self) -> TraceWorkload {
        TraceWorkload {
            trace: self,
            cursor: 0,
        }
    }
}

/// Error from [`WorkloadTrace::from_text`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for TraceParseError {}

/// A [`Workload`] that replays a recorded trace verbatim.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    trace: WorkloadTrace,
    cursor: usize,
}

impl Workload for TraceWorkload {
    fn spec(&self) -> &WorkloadSpec {
        &self.trace.spec
    }

    fn progress(&self) -> f64 {
        if self.trace.demands.is_empty() {
            1.0
        } else {
            self.cursor as f64 / self.trace.demands.len() as f64
        }
    }

    fn next_epoch(&mut self, _rng: &mut SimRng) -> Option<EpochDemand> {
        let d = self.trace.demands.get(self.cursor).copied();
        if d.is_some() {
            self.cursor += 1;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app_model::AppWorkload;
    use crate::apps;

    fn small_trace() -> WorkloadTrace {
        let mut spec = apps::redis();
        spec.total_instructions /= 40;
        let wl = AppWorkload::new(spec, 4096, 64);
        let mut rng = SimRng::seed_from(5);
        WorkloadTrace::record(wl, &mut rng)
    }

    #[test]
    fn recording_captures_every_epoch() {
        let t = small_trace();
        assert!(!t.is_empty());
        assert_eq!(t.len() as u64, t.spec.epochs());
    }

    #[test]
    fn replay_reproduces_the_stream_exactly() {
        let t = small_trace();
        let mut replay = t.clone().into_workload();
        let mut rng = SimRng::seed_from(999); // replay ignores the rng
        assert_eq!(replay.progress(), 0.0);
        for (i, expected) in t.demands.iter().enumerate() {
            assert_eq!(
                replay.next_epoch(&mut rng).as_ref(),
                Some(expected),
                "epoch {i}"
            );
        }
        assert_eq!(replay.next_epoch(&mut rng), None);
        assert!((replay.progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let t = small_trace();
        let text = t.to_text();
        let parsed = WorkloadTrace::from_text(&text, t.spec.clone()).expect("roundtrip parses");
        assert_eq!(parsed.demands, t.demands);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        let spec = apps::redis();
        let err = WorkloadTrace::from_text("", spec.clone()).unwrap_err();
        assert_eq!(err.line, 1);
        let err = WorkloadTrace::from_text("bogus header\n", spec.clone()).unwrap_err();
        assert!(err.message.contains("header"));
        let err =
            WorkloadTrace::from_text("heteroos-trace v1 x 1\n1 2 3\n", spec.clone()).unwrap_err();
        assert!(err.message.contains("11 fields"), "{err}");
        let err = WorkloadTrace::from_text("heteroos-trace v1 x 2\n1 0 0 0 0 0 0 0 0 0 0\n", spec)
            .unwrap_err();
        assert!(err.message.contains("declares 2"), "{err}");
    }

    #[test]
    fn parser_accepts_blank_lines() {
        let t = small_trace();
        let mut text = t.to_text();
        text.push('\n');
        let parsed = WorkloadTrace::from_text(&text, t.spec.clone()).expect("trailing blank ok");
        assert_eq!(parsed.len(), t.len());
    }

    #[test]
    fn same_seed_recordings_are_identical() {
        let make = || {
            let mut spec = apps::graphchi();
            spec.total_instructions /= 40;
            let wl = AppWorkload::new(spec, 4096, 64);
            let mut rng = SimRng::seed_from(7);
            WorkloadTrace::record(wl, &mut rng)
        };
        assert_eq!(make().demands, make().demands);
    }
}
