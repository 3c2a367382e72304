//! The committed reference results in `BENCH_sweep.json`: per-point
//! makespans and energies of the Fig. 7 sweep (all three models) and the
//! energy-Pareto fronts of every 37th SoC.

use std::collections::HashMap;

use hilp_dse::{DesignPoint, ModelKind};

use crate::json::Json;

/// Relative tolerance of every comparison against committed values (the
/// harness that wrote them rounds to 12 significant digits).
pub const TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy)]
pub struct RefPoint {
    pub makespan_seconds: f64,
    pub energy_joules: f64,
    pub gap: f64,
}

#[derive(Debug, Clone)]
pub struct RefFront {
    pub soc: String,
    /// `(makespan_seconds, energy_joules)` in front order.
    pub points: Vec<(f64, f64)>,
    pub complete: bool,
}

pub struct Reference {
    points: HashMap<(&'static str, String), RefPoint>,
    pub fronts: Vec<RefFront>,
}

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

impl Reference {
    /// Reads and indexes `BENCH_sweep.json`.
    pub fn load(path: &str) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let mut points = HashMap::new();
        for run in doc.get("per_model").map(Json::arr).unwrap_or_default() {
            let model = match run.get("model").and_then(Json::str) {
                Some("MA") => ModelKind::MultiAmdahl,
                Some("Gables") => ModelKind::Gables,
                Some("HILP") => ModelKind::Hilp,
                other => return Err(format!("{path}: unknown model {other:?}")),
            };
            for p in run.get("sweep").map(Json::arr).unwrap_or_default() {
                let field = |k: &str| {
                    p.get(k)
                        .and_then(Json::num)
                        .ok_or_else(|| format!("{path}: sweep point without {k}"))
                };
                let label = p
                    .get("label")
                    .and_then(Json::str)
                    .ok_or("unlabelled point")?;
                let point = RefPoint {
                    makespan_seconds: field("makespan_seconds")?,
                    energy_joules: field("energy_joules")?,
                    gap: field("gap")?,
                };
                points.insert((model.name(), label.to_string()), point);
            }
        }
        let mut fronts: Vec<RefFront> = Vec::new();
        let entries = doc
            .get("pareto")
            .and_then(|p| p.get("fronts"))
            .map(Json::arr)
            .unwrap_or_default();
        for e in entries {
            let soc = e
                .get("soc")
                .and_then(Json::str)
                .ok_or("front without soc")?;
            let m = e.get("makespan_seconds").and_then(Json::num);
            let en = e.get("energy_joules").and_then(Json::num);
            let (Some(m), Some(en)) = (m, en) else {
                return Err(format!("{path}: malformed front entry for {soc}"));
            };
            let complete = e.get("complete").and_then(Json::bool).unwrap_or(false);
            match fronts.last_mut() {
                Some(f) if f.soc == soc => f.points.push((m, en)),
                _ => fronts.push(RefFront {
                    soc: soc.to_string(),
                    points: vec![(m, en)],
                    complete,
                }),
            }
        }
        if points.is_empty() || fronts.is_empty() {
            return Err(format!("{path}: no committed sweep points or fronts"));
        }
        Ok(Reference { points, fronts })
    }

    pub fn point(&self, model: ModelKind, label: &str) -> Option<RefPoint> {
        self.points.get(&(model.name(), label.to_string())).copied()
    }

    /// Whether `p` reproduces the committed point of `model` bit for bit
    /// (within [`TOLERANCE`]).
    pub fn matches(&self, model: ModelKind, p: &DesignPoint) -> bool {
        self.point(model, &p.label).is_some_and(|r| {
            close(r.makespan_seconds, p.makespan_seconds)
                && close(r.energy_joules, p.energy_joules)
                && close(r.gap, p.gap)
        })
    }
}
