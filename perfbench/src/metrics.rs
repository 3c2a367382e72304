//! The declared metrics, the failure ledger, and the result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names,
//! units and directions; the self-test (`tests/selftest.rs`) holds the two
//! in step.

use std::collections::BTreeMap;

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by an untraced run (`--trace 0`) on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("points_per_s", "points/s", Higher),
    spec("job_cold_s", "s", Lower),
    spec("whatif_ms", "ms", Lower),
    spec("within_10pct", "fraction", Higher),
    spec("mean_gap", "fraction", Lower),
    spec("peak_rss_mb", "MiB", Lower),
];

/// Reported by a traced run (`--trace 1`) on every workload; a layer a
/// workload does not run reports 0.
pub const PER_LAYER: &[Spec] = &[
    spec("dse.sweep_s", "s", Lower),
    spec("dse.self_s", "s", Lower),
    spec("dse.first_point_ms", "ms", Lower),
    spec("dse.lattice_ms", "ms", Lower),
    spec("dse.cache_hit_ratio", "ratio", Higher),
    spec("dse.early_level_ratio", "ratio", Higher),
    spec("dse.inherited_level_ratio", "ratio", Higher),
    spec("dse.jobs_executed_ratio", "ratio", Lower),
    spec("dse.point_ms_p50", "ms", Lower),
    spec("dse.point_ms_tail", "ms", Lower),
    spec("dse.fronts_complete", "fraction", Higher),
    spec("core.evaluate_ms", "ms", Lower),
    spec("core.levels", "count", Lower),
    spec("core.encode_ms", "ms", Lower),
    spec("core.self_ms", "ms", Lower),
    spec("core.exact_ms", "ms", Lower),
    spec("core.pareto_ms", "ms", Lower),
    spec("core.delta_ms", "ms", Lower),
    spec("core.delta_identity", "fraction", Higher),
    spec("core.delta_certified", "fraction", Higher),
    spec("core.delta_scratch", "fraction", Lower),
    spec("sched.bound_ms", "ms", Lower),
    spec("sched.heuristic_ms", "ms", Lower),
    spec("sched.heuristic_jobs_ratio", "ratio", Lower),
    spec("sched.bnb_ms_1w", "ms", Lower),
    spec("sched.bnb_ms_2w", "ms", Lower),
    spec("sched.bnb_nodes", "count", Lower),
    spec("sched.bnb_nodes_per_s", "1/s", Higher),
    spec("baselines.gables_ms", "ms", Lower),
    spec("baselines.ma_ms", "ms", Lower),
    spec("server.accept_ms", "ms", Lower),
    spec("server.first_point_ms", "ms", Lower),
    spec("server.prepoint_ms", "ms", Lower),
    spec("server.job_warm_ms", "ms", Lower),
    spec("server.record_gap_us", "us", Lower),
    spec("server.records", "count", Lower),
    spec("server.bytes", "bytes", Lower),
    spec("server.replay_ratio", "ratio", Higher),
    spec("server.whatif_tail_ms", "ms", Lower),
    spec("server.spec_overhead_ms", "ms", Lower),
    spec("server.request_us", "us", Lower),
    spec("telemetry.parse_us", "us", Lower),
    spec("trace.overhead_frac", "fraction", Lower),
    spec("trace.unattributed_frac", "fraction", Lower),
    spec("trace.negative_self_spans", "count", Lower),
];

/// Metric values of one run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Every per-layer metric at 0, for a traced run to fill in.
    pub fn per_layer() -> Metrics {
        Metrics(PER_LAYER.iter().map(|s| (s.name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line; every declared metric
    /// must be present.
    pub fn render(&self, specs: &[Spec]) -> String {
        let mut out = String::from("{");
        for (i, s) in specs.iter().enumerate() {
            let v = self
                .get(s.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", s.name));
            if i > 0 {
                out.push_str(", ");
            }
            json::push_str(&mut out, s.name);
            out.push_str(": {\"value\": ");
            out.push_str(&json::num(v));
            out.push_str(", \"unit\": ");
            json::push_str(&mut out, s.unit);
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Name, value, unit and direction of each declared metric, one JSON
    /// object per metric (printed above the result line).
    pub fn render_detail(&self, specs: &[Spec]) -> String {
        let mut out = String::from("[");
        for (i, s) in specs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"name\": ");
            json::push_str(&mut out, s.name);
            out.push_str(", \"value\": ");
            out.push_str(&json::num(self.get(s.name).unwrap_or(f64::NAN)));
            out.push_str(", \"unit\": ");
            json::push_str(&mut out, s.unit);
            out.push_str(", \"better\": ");
            json::push_str(&mut out, s.better.as_str());
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// Operations attempted and failed. An operation is one design point,
/// one wire job, or one code-path check; it fails when it errors, is
/// refused, or its output check fails.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Records one operation; `what` describes a failure.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Records an operation that returned an error.
    pub fn error(&mut self, what: impl std::fmt::Display) {
        self.op(false, || what.to_string());
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it (the
/// maximum when there are fewer than eleven samples).
pub fn tail(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 11 {
        s[n - 1]
    } else {
        s[n - 11]
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), 10.0);
        assert_eq!(tail(&[1.0, 5.0]), 5.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
