//! Per-point replays for the traced run: each design point is evaluated
//! again on its own, one layer call at a time, so every public entry
//! point of `core`, `sched` and `baselines` gets its own span and time.

use std::sync::Mutex;
use std::time::Instant;

use hilp_core::{
    encode, Constraints, EvaluatePolicy, Hilp, LevelReport, RefinementObserver, SocSpec,
    SolveTelemetry, SolverConfig, Workload,
};
use hilp_dse::SweepConfig;
use hilp_sched::{lower_bound, solve_with_hints, Instance, SolveHints, SolveOutcome};

use crate::trace::Tracer;

/// One refinement level as the evaluator solved it.
struct Captured {
    time_step_seconds: f64,
    instance: Instance,
    external: Option<u32>,
}

/// Captures every level an evaluation solves.
#[derive(Default)]
struct Capture {
    levels: Mutex<Vec<Captured>>,
}

impl RefinementObserver for Capture {
    fn level_solved(&self, report: &LevelReport<'_>) {
        self.levels
            .lock()
            .expect("level capture poisoned")
            .push(Captured {
                time_step_seconds: report.time_step_seconds,
                instance: report.instance.clone(),
                external: report.external_bound_steps,
            });
    }
}

impl Capture {
    fn take(self) -> Vec<Captured> {
        self.levels.into_inner().expect("level capture poisoned")
    }
}

pub fn evaluator(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Hilp {
    Hilp::new(workload.clone(), soc.clone())
        .with_constraints(*constraints)
        .with_policy(config.policy)
        .with_evaluate_policy(config.evaluate)
        .with_solver(config.solver.clone())
}

/// Per-level times of one replayed HILP evaluation, in seconds.
#[derive(Debug, Default, Clone)]
pub struct LevelTimes {
    pub encode: f64,
    pub bound: f64,
    pub heuristic: f64,
    pub telemetry: SolveTelemetry,
}

#[derive(Debug, Default, Clone)]
pub struct PointReplay {
    pub evaluate: f64,
    pub levels: Vec<LevelTimes>,
}

impl PointReplay {
    /// Evaluate time not spent in encode, bound or heuristic replays.
    pub fn self_seconds(&self) -> f64 {
        self.evaluate
            - self
                .levels
                .iter()
                .map(|l| l.encode + l.bound + l.heuristic)
                .sum::<f64>()
    }
}

/// Evaluates one point under `config` (grid policy), then re-runs each
/// of its levels' `encode`, `lower_bound` and `solve_with_hints` alone.
pub fn replay_hilp(
    tracer: &Tracer,
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<PointReplay, String> {
    let hilp = evaluator(workload, soc, constraints, config);
    let capture = Capture::default();
    let (eval, evaluate) = tracer.time("core.evaluate", || hilp.evaluate_with_observer(&capture));
    eval.map_err(|e| format!("{}: {e}", soc.label()))?;
    let mut levels = Vec::new();
    for level in capture.take() {
        let (encoded, encode_s) = tracer.time("core.encode", || {
            encode(workload, soc, constraints, level.time_step_seconds)
        });
        encoded.map_err(|e| e.to_string())?;
        let (_, bound_s) = tracer.time("sched.bound", || {
            std::hint::black_box(lower_bound(&level.instance))
        });
        let hints = SolveHints {
            external_lower_bound: level.external,
            ..SolveHints::default()
        };
        let (solved, heuristic_s) = tracer.time("sched.heuristic", || {
            solve_with_hints(&level.instance, &config.solver, &hints)
        });
        let (_, telemetry) = solved.map_err(|e| e.to_string())?;
        levels.push(LevelTimes {
            encode: encode_s,
            bound: bound_s,
            heuristic: heuristic_s,
            telemetry,
        });
    }
    Ok(PointReplay { evaluate, levels })
}

/// Times one `Hilp::evaluate` of `hilp` under `name`.
pub fn time_evaluate(tracer: &Tracer, name: &'static str, hilp: &Hilp) -> Result<f64, String> {
    let (eval, seconds) = tracer.time(name, || hilp.evaluate());
    eval.map(|_| seconds).map_err(|e| e.to_string())
}

/// Grid and exact-policy evaluation times of one point, in seconds.
pub fn replay_exact(
    tracer: &Tracer,
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<(f64, f64), String> {
    let grid =
        evaluator(workload, soc, constraints, config).with_evaluate_policy(EvaluatePolicy::grid());
    let grid_s = time_evaluate(tracer, "core.evaluate", &grid)?;
    let exact = grid.with_evaluate_policy(EvaluatePolicy::exact());
    let exact_s = time_evaluate(tracer, "core.exact", &exact)?;
    Ok((grid_s, exact_s))
}

/// `Hilp::evaluate_pareto` time of one point, in seconds.
pub fn replay_pareto(
    tracer: &Tracer,
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<f64, String> {
    let hilp = evaluator(workload, soc, constraints, config);
    let (front, seconds) = tracer.time("core.pareto", || hilp.evaluate_pareto());
    front.map(|_| seconds).map_err(|e| e.to_string())
}

/// Every level instance a point's evaluation solves under `config`, and
/// the evaluation's time in seconds.
pub fn level_instances(
    tracer: &Tracer,
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<(Vec<Instance>, f64), String> {
    let capture = Capture::default();
    let hilp = evaluator(workload, soc, constraints, config);
    let (eval, seconds) = tracer.time("core.evaluate", || hilp.evaluate_with_observer(&capture));
    eval.map_err(|e| format!("{}: {e}", soc.label()))?;
    let levels = capture.take().into_iter().map(|l| l.instance).collect();
    Ok((levels, seconds))
}

/// Solves `instance` with branch and bound on `workers` threads.
pub fn solve_bnb(
    tracer: &Tracer,
    instance: &Instance,
    solver: &SolverConfig,
    workers: usize,
) -> Result<(SolveOutcome, f64), String> {
    let config = SolverConfig {
        bnb_threads: workers,
        ..solver.clone()
    };
    let t0 = Instant::now();
    let _span = tracer.span("sched.bnb");
    let (outcome, _) =
        solve_with_hints(instance, &config, &SolveHints::default()).map_err(|e| e.to_string())?;
    Ok((outcome, t0.elapsed().as_secs_f64()))
}

/// Gables and MultiAmdahl evaluation times of one point, in seconds.
pub fn replay_baselines(
    tracer: &Tracer,
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<(f64, f64), String> {
    let (gables, gables_s) = tracer.time("baselines.gables", || {
        hilp_baselines::gables_parallel(workload, soc, constraints, &config.policy, &config.solver)
    });
    gables.map_err(|e| e.to_string())?;
    let (ma, ma_s) = tracer.time("baselines.ma", || {
        hilp_baselines::multi_amdahl(workload, soc, constraints, &config.policy)
    });
    ma.map_err(|e| e.to_string())?;
    Ok((gables_s, ma_s))
}
