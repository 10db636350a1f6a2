//! Run results and derived figures-of-merit.

use hetero_sim::export::{json_f64, json_string};
use hetero_sim::{Clock, CostCategory, Nanos};

/// The result of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Policy and application names (for table rendering).
    pub policy: &'static str,
    /// Application name.
    pub app: &'static str,
    /// End-to-end runtime.
    pub runtime: Nanos,
    /// Time attribution (compute, stalls, management categories).
    pub breakdown: Vec<(CostCategory, Nanos)>,
    /// Total LLC misses served by memory.
    pub misses: f64,
    /// Completed page migrations (promotions + demotions), simulated pages.
    pub migrations: u64,
    /// Hotness scans performed.
    pub scans: u64,
    /// Real (4 KiB) pages examined by scans.
    pub scanned_pages: u64,
    /// Cumulative FastMem allocation miss ratio (Fig 10 metric).
    pub fast_alloc_miss_ratio: f64,
    /// Average memory stall per miss, in nanoseconds.
    pub avg_miss_latency_ns: f64,
    /// Achieved memory bandwidth in GB/s (Fig 7 metric).
    pub achieved_bandwidth_gbps: f64,
    /// Store misses served by the slow tier — the §4.3 endurance proxy
    /// (each is one cache-line write into NVM).
    pub slow_writes: f64,
    /// Epochs executed.
    pub epochs: u64,
    /// Trace events evicted from the bounded event log (0 when tracing was
    /// off or the log never overflowed) — a non-zero value warns that the
    /// retained trace is a suffix, not the whole story.
    pub events_dropped: u64,
}

impl RunReport {
    /// Assembles a report from engine state.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        policy: &'static str,
        app: &'static str,
        clock: &Clock,
        misses: f64,
        migrations: u64,
        scans: u64,
        scanned_pages: u64,
        fast_alloc_miss_ratio: f64,
        slow_writes: f64,
        epochs: u64,
        events_dropped: u64,
    ) -> Self {
        let runtime = clock.now();
        let stall = clock.spent(CostCategory::MemoryStall);
        let avg_miss_latency_ns = if misses > 0.0 {
            stall.as_nanos() as f64 / misses
        } else {
            0.0
        };
        let achieved_bandwidth_gbps = if runtime.is_zero() {
            0.0
        } else {
            misses * 64.0 / runtime.as_nanos() as f64
        };
        RunReport {
            policy,
            app,
            runtime,
            breakdown: clock.breakdown().collect(),
            misses,
            migrations,
            scans,
            scanned_pages,
            fast_alloc_miss_ratio,
            avg_miss_latency_ns,
            achieved_bandwidth_gbps,
            slow_writes,
            epochs,
            events_dropped,
        }
    }

    /// Time spent in one category.
    pub fn spent(&self, category: CostCategory) -> Nanos {
        self.breakdown
            .iter()
            .find(|(c, _)| *c == category)
            .map(|&(_, t)| t)
            .unwrap_or(Nanos::ZERO)
    }

    /// Total tiering-management overhead.
    pub fn overhead(&self) -> Nanos {
        self.breakdown
            .iter()
            .filter(|(c, _)| c.is_overhead())
            .map(|&(_, t)| t)
            .sum()
    }

    /// Management overhead as a percentage of runtime (Fig 8 y-axis).
    ///
    /// A zero-runtime report (an experiment that never stepped) yields
    /// `0.0` rather than a NaN/degenerate ratio.
    pub fn overhead_percent(&self) -> f64 {
        if self.runtime.is_zero() {
            return 0.0;
        }
        self.overhead().ratio(self.runtime) * 100.0
    }

    /// Performance gain over a baseline, in percent (Fig 9/11/13 y-axis):
    /// `(T_base / T_self − 1) × 100`.
    ///
    /// Degenerate comparisons — either runtime zero — yield `0.0` (no
    /// measurable gain), not `-100%` or an infinity.
    pub fn gain_percent_vs(&self, baseline: &RunReport) -> f64 {
        if self.runtime.is_zero() || baseline.runtime.is_zero() {
            return 0.0;
        }
        (baseline.runtime.ratio(self.runtime) - 1.0) * 100.0
    }

    /// Slowdown factor relative to a baseline (Fig 1/2/3 y-axis):
    /// `T_self / T_base`.
    ///
    /// Degenerate comparisons — either runtime zero — yield `0.0` so a
    /// broken baseline is visible in a table rather than poisoning it
    /// with NaN/inf.
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        if self.runtime.is_zero() || baseline.runtime.is_zero() {
            return 0.0;
        }
        self.runtime.ratio(baseline.runtime)
    }

    /// Average miss latency converted to core cycles (Fig 6 y-axis).
    pub fn avg_miss_latency_cycles(&self, clock_ghz: f64) -> f64 {
        self.avg_miss_latency_ns * clock_ghz
    }

    /// Renders the report as a JSON object (serde-free; see
    /// [`hetero_sim::export`]).
    ///
    /// Times are raw nanosecond integers; the cost breakdown becomes an
    /// object keyed by category display name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"policy\": {},\n", json_string(self.policy)));
        out.push_str(&format!("  \"app\": {},\n", json_string(self.app)));
        out.push_str(&format!("  \"runtime_ns\": {},\n", self.runtime.as_nanos()));
        out.push_str("  \"breakdown_ns\": {");
        for (i, (cat, t)) in self.breakdown.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {}",
                json_string(&cat.to_string()),
                t.as_nanos()
            ));
        }
        out.push_str("},\n");
        out.push_str(&format!("  \"misses\": {},\n", json_f64(self.misses)));
        out.push_str(&format!("  \"migrations\": {},\n", self.migrations));
        out.push_str(&format!("  \"scans\": {},\n", self.scans));
        out.push_str(&format!("  \"scanned_pages\": {},\n", self.scanned_pages));
        out.push_str(&format!(
            "  \"fast_alloc_miss_ratio\": {},\n",
            json_f64(self.fast_alloc_miss_ratio)
        ));
        out.push_str(&format!(
            "  \"avg_miss_latency_ns\": {},\n",
            json_f64(self.avg_miss_latency_ns)
        ));
        out.push_str(&format!(
            "  \"achieved_bandwidth_gbps\": {},\n",
            json_f64(self.achieved_bandwidth_gbps)
        ));
        out.push_str(&format!(
            "  \"slow_writes\": {},\n",
            json_f64(self.slow_writes)
        ));
        out.push_str(&format!(
            "  \"overhead_percent\": {},\n",
            json_f64(self.overhead_percent())
        ));
        out.push_str(&format!("  \"epochs\": {},\n", self.epochs));
        out.push_str(&format!("  \"events_dropped\": {}\n", self.events_dropped));
        out.push('}');
        out
    }
}

hetero_sim::impl_snap!(struct RunReport {
    policy,
    app,
    runtime,
    breakdown,
    misses,
    migrations,
    scans,
    scanned_pages,
    fast_alloc_miss_ratio,
    avg_miss_latency_ns,
    achieved_bandwidth_gbps,
    slow_writes,
    epochs,
    events_dropped,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn report(runtime_ms: u64, stall_ms: u64, misses: f64) -> RunReport {
        let mut clock = Clock::new();
        clock.charge(
            CostCategory::Compute,
            Nanos::from_millis(runtime_ms - stall_ms),
        );
        clock.charge(CostCategory::MemoryStall, Nanos::from_millis(stall_ms));
        RunReport::from_parts("p", "a", &clock, misses, 0, 0, 0, 0.0, 0.0, 10, 0)
    }

    #[test]
    fn gain_and_slowdown_are_inverse_views() {
        let fast = report(100, 20, 1e6);
        let slow = report(300, 200, 1e6);
        assert!((slow.slowdown_vs(&fast) - 3.0).abs() < 1e-9);
        assert!((fast.gain_percent_vs(&slow) - 200.0).abs() < 1e-9);
        assert!((slow.gain_percent_vs(&slow)).abs() < 1e-9);
    }

    #[test]
    fn avg_latency_derives_from_stall() {
        let r = report(100, 50, 1e6);
        // 50 ms stall over 1e6 misses = 50 ns/miss.
        assert!((r.avg_miss_latency_ns - 50.0).abs() < 1e-9);
        assert!((r.avg_miss_latency_cycles(2.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_derives_from_misses() {
        let r = report(100, 50, 1e6);
        // 64 MB over 100 ms = 0.64 GB/s.
        assert!((r.achieved_bandwidth_gbps - 0.64).abs() < 1e-9);
    }

    #[test]
    fn zero_runtime_ratios_are_guarded_both_directions() {
        let zero = {
            let clock = Clock::new();
            RunReport::from_parts("p", "a", &clock, 0.0, 0, 0, 0, 0.0, 0.0, 0, 0)
        };
        let normal = report(100, 20, 1e6);

        // Zero self-runtime: the raw formula would report -100% gain and a
        // 0/T "speedup"; both directions must degrade to 0.0 instead.
        assert_eq!(zero.gain_percent_vs(&normal), 0.0);
        assert_eq!(normal.gain_percent_vs(&zero), 0.0);
        assert_eq!(zero.slowdown_vs(&normal), 0.0);
        assert_eq!(normal.slowdown_vs(&zero), 0.0);
        assert_eq!(zero.overhead_percent(), 0.0);
        assert!(zero.gain_percent_vs(&zero).is_finite());
        assert!(zero.slowdown_vs(&zero).is_finite());
    }

    #[test]
    fn report_json_is_valid_and_carries_key_figures() {
        let r = report(100, 50, 1e6);
        let json = r.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"policy\": \"p\""));
        assert!(json.contains("\"runtime_ns\": 100000000"));
        assert!(json.contains("\"misses\": 1000000"));
        assert!(json.contains("\"memory-stall\": 50000000"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn overhead_percent_with_management_time() {
        let mut clock = Clock::new();
        clock.charge(CostCategory::Compute, Nanos::from_millis(80));
        clock.charge(CostCategory::HotnessScan, Nanos::from_millis(15));
        clock.charge(CostCategory::PageCopy, Nanos::from_millis(5));
        let r = RunReport::from_parts("p", "a", &clock, 0.0, 0, 0, 0, 0.0, 0.0, 1, 0);
        assert!((r.overhead_percent() - 20.0).abs() < 1e-9);
        assert_eq!(r.spent(CostCategory::HotnessScan), Nanos::from_millis(15));
        assert_eq!(r.avg_miss_latency_ns, 0.0, "no misses, no latency");
    }
}
