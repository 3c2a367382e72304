//! Regression test pinning per-point energies and the energy-Pareto
//! fronts against `BENCH_sweep.json`.
//!
//! The timing harness (`cargo run --release -p hilp-bench --bin
//! sweep_timing`) commits an `energy_joules` value with every sweep point
//! (all 372 SoCs x 3 models) and the makespan×energy Pareto fronts of
//! every 37th SoC (its `"pareto"` object, one trade-off per line). This
//! test re-evaluates the same deterministic subsample with the same
//! configuration and requires the recomputed energies and fronts to match
//! the committed ones to 1e-9, so any change that silently shifts the
//! energy model or the cap-ladder — a power-annotation edit, a bound
//! regression, a ladder-stride change — fails CI instead of skewing the
//! committed trade-off data.
//!
//! If the shift is *intentional* (e.g. a recalibrated power table),
//! regenerate the baseline by re-running the harness and commit the new
//! `BENCH_sweep.json` alongside the change.

use std::collections::HashMap;

use hilp_core::SolverConfig;
use hilp_dse::{design_space, evaluate_space, evaluate_space_pareto, ModelKind, SweepConfig};
use hilp_sched::TimetableKind;
use hilp_soc::Constraints;
use hilp_workloads::{Workload, WorkloadVariant};

/// Every Nth SoC of the 372-point space carries a committed Pareto front
/// and is re-evaluated here. Must match `sweep_timing`'s `PARETO_STEP`
/// (and the Fig. 7 regression subsample): 37 is coprime to the space's
/// generator strides, so the subsample crosses CPU counts, GPU sizes, and
/// DSA allocations while keeping debug-mode runtime small.
const SUBSAMPLE_STEP: usize = 37;

const MODELS: [ModelKind; 3] = [ModelKind::MultiAmdahl, ModelKind::Gables, ModelKind::Hilp];

/// Maximum relative disagreement between a recomputed value and its
/// committed counterpart. The harness rounds to 12 significant digits
/// before serialization, ~1000x finer than this gate.
const TOLERANCE: f64 = 1e-9;

/// The exact configuration `sweep_timing` used for the committed run (its
/// `optimized_config`): event timetable, serial multi-start, memoization,
/// and bound termination.
fn committed_config() -> SweepConfig {
    SweepConfig {
        solver: SolverConfig {
            timetable: TimetableKind::Event,
            heuristic_threads: 1,
            ..SolverConfig::sweep()
        },
        memoize: true,
        ..SweepConfig::default()
    }
}

/// One committed trade-off: `(makespan_seconds, energy_joules, proved)`.
type Tradeoff = (f64, f64, bool);

struct Baseline {
    /// `(model name, SoC label)` -> committed `energy_joules`.
    energies: HashMap<(String, String), f64>,
    /// Committed fronts in file order: `(soc label, trade-offs, complete)`.
    fronts: Vec<(String, Vec<Tradeoff>, bool)>,
}

/// Extracts the value of `"key": "..."` (string) from a JSON line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the value of `"key": <number>` from a JSON line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| i + start);
    line[start..end].trim().parse().ok()
}

/// Extracts the value of `"key": true|false` from a JSON line.
fn bool_field(line: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\": ");
    let start = line.find(&needle)? + needle.len();
    line[start..]
        .trim_start()
        .strip_prefix("true")
        .map(|_| true)
        .or_else(|| {
            line[start..]
                .trim_start()
                .strip_prefix("false")
                .map(|_| false)
        })
}

/// Line-based parse of `BENCH_sweep.json`, the same idiom as the Fig. 7
/// regression test: sweep points are the lines with `"label"` and
/// `"energy_joules"`, Pareto trade-offs the lines with `"soc"` and
/// `"energy_joules"` (consecutive same-`soc` lines are one front,
/// makespan ascending). A full JSON parser is unnecessary, and the repo
/// deliberately has no JSON dep.
fn load_baseline() -> Baseline {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run the sweep_timing bench to create it)"));
    let mut energies = HashMap::new();
    let mut fronts: Vec<(String, Vec<Tradeoff>, bool)> = Vec::new();
    let mut model = String::new();
    for line in text.lines() {
        if let Some(m) = str_field(line, "model") {
            model = m;
        }
        if let Some(label) = str_field(line, "label") {
            let energy = num_field(line, "energy_joules")
                .unwrap_or_else(|| panic!("energy missing on: {line}"));
            assert!(!model.is_empty(), "point before any model entry: {line}");
            let key = (model.clone(), label);
            assert!(
                energies.insert(key.clone(), energy).is_none(),
                "duplicate baseline point {key:?}"
            );
        } else if let Some(soc) = str_field(line, "soc") {
            // `slowest_points` entries also use `"soc"` but carry no
            // energy; only Pareto trade-off lines have both.
            let Some(energy) = num_field(line, "energy_joules") else {
                continue;
            };
            let makespan = num_field(line, "makespan_seconds")
                .unwrap_or_else(|| panic!("makespan missing on: {line}"));
            let proved =
                bool_field(line, "proved").unwrap_or_else(|| panic!("proved missing on: {line}"));
            let complete = bool_field(line, "complete")
                .unwrap_or_else(|| panic!("complete missing on: {line}"));
            match fronts.last_mut() {
                Some((last_soc, points, last_complete)) if *last_soc == soc => {
                    assert_eq!(
                        *last_complete, complete,
                        "{soc}: inconsistent committed complete flag"
                    );
                    points.push((makespan, energy, proved));
                }
                _ => fronts.push((soc, vec![(makespan, energy, proved)], complete)),
            }
        }
    }
    Baseline { energies, fronts }
}

fn rel_diff(recomputed: f64, committed: f64) -> f64 {
    (recomputed - committed).abs() / committed.abs().max(1e-12)
}

#[test]
fn committed_energies_cover_the_design_space() {
    let baseline = load_baseline();
    let space = design_space(4.0);
    assert_eq!(
        baseline.energies.len(),
        space.len() * MODELS.len(),
        "one committed energy per SoC per model"
    );
    assert!(
        baseline.energies.values().all(|&e| e > 0.0),
        "every committed energy is positive"
    );
    // The committed fronts cover exactly the subsample, in order, each
    // well-shaped: makespan strictly ascending, energy strictly
    // descending (a committed dominated point would be a harness bug).
    let subsample: Vec<_> = space.iter().step_by(SUBSAMPLE_STEP).collect();
    assert_eq!(
        baseline.fronts.len(),
        subsample.len(),
        "one front per subsampled SoC"
    );
    for ((soc, points, _), expected) in baseline.fronts.iter().zip(&subsample) {
        assert_eq!(soc, &expected.label(), "front order matches the subsample");
        assert!(!points.is_empty());
        for w in points.windows(2) {
            assert!(
                w[0].0 < w[1].0 && w[0].1 > w[1].1,
                "{soc}: committed front is not strictly \
                 makespan-ascending / energy-descending"
            );
        }
    }
}

#[test]
fn subsampled_sweep_matches_the_committed_energies() {
    let baseline = load_baseline();
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let config = committed_config();
    let socs: Vec<_> = design_space(4.0)
        .into_iter()
        .step_by(SUBSAMPLE_STEP)
        .collect();

    for model in MODELS {
        let points = evaluate_space(&workload, &socs, &constraints, model, &config)
            .unwrap_or_else(|e| panic!("{} sweep: {e}", model.name()));
        for point in points {
            let key = (model.name().to_string(), point.label.clone());
            let &committed = baseline
                .energies
                .get(&key)
                .unwrap_or_else(|| panic!("no committed energy for {key:?}"));
            let rel = rel_diff(point.energy_joules, committed);
            assert!(
                rel <= TOLERANCE,
                "{} {}: recomputed energy {} vs committed {} (rel {rel:.3e})",
                model.name(),
                point.label,
                point.energy_joules,
                committed,
            );
        }
    }
}

#[test]
fn recomputed_pareto_fronts_match_the_committed_baseline() {
    let baseline = load_baseline();
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let mut config = committed_config();
    // The CI determinism matrix re-runs this test at 1, 2, and 8 sweep
    // workers: every leg must reproduce the committed fronts, so the
    // per-worker-count fronts are transitively bit-identical — worker
    // count is a pure wall-clock knob for the energy-cap ladder too.
    if let Ok(threads) = std::env::var("HILP_PARETO_SWEEP_THREADS") {
        config.threads = threads.parse().expect("HILP_PARETO_SWEEP_THREADS: integer");
    }
    let socs: Vec<_> = design_space(4.0)
        .into_iter()
        .step_by(SUBSAMPLE_STEP)
        .collect();
    assert!(socs.len() >= 10, "subsample too thin: {}", socs.len());

    let points = evaluate_space_pareto(&workload, &socs, &constraints, &config)
        .expect("pareto sweep succeeds");
    assert_eq!(points.len(), baseline.fronts.len());
    for (recomputed, (soc, committed, complete)) in points.iter().zip(&baseline.fronts) {
        assert_eq!(&recomputed.point.label, soc, "subsample order");
        assert_eq!(
            recomputed.complete, *complete,
            "{soc}: ladder completeness flipped"
        );
        assert_eq!(
            recomputed.front.len(),
            committed.len(),
            "{soc}: recomputed front has {} trade-offs vs committed {}",
            recomputed.front.len(),
            committed.len(),
        );
        for (r, &(makespan, energy, proved)) in recomputed.front.iter().zip(committed) {
            let rel_m = rel_diff(r.makespan_seconds, makespan);
            let rel_e = rel_diff(r.energy_joules, energy);
            assert!(
                rel_m <= TOLERANCE && rel_e <= TOLERANCE,
                "{soc}: recomputed trade-off ({}, {}) vs committed ({makespan}, {energy}) \
                 (rel {rel_m:.3e}, {rel_e:.3e})",
                r.makespan_seconds,
                r.energy_joules,
            );
            assert_eq!(
                r.proved_optimal, proved,
                "{soc}: proved-optimal flag flipped at makespan {makespan}"
            );
        }
    }
}
