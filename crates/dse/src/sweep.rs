//! Parallel evaluation of design spaces under the three models.
//!
//! Every design point is evaluated on its own; workers claim points in
//! input order and results are slotted by index, so every reported value
//! is bit-identical for any thread count. Work is shared across points in
//! two result-invariant ways only: a memo cache keyed by the encoded
//! instance trajectory, and a recorded [`SweepBaseline`] of a related
//! sweep (identity replay and tightening certificates, see
//! [`SweepConfig::baseline`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hilp_baselines::{gables_constraints, gables_parallel, multi_amdahl, without_dependencies};
use hilp_core::{
    encode, Budget, BudgetKind, CancelToken, EvaluatePolicy, Hilp, HilpError, LevelReport,
    Objective, RefinementObserver, SolverConfig, TimeStepPolicy, TimetableKind,
};
use hilp_parallel::{ThreadBudget, WorkQueue};
use hilp_sched::{Instance, InstanceDelta};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{BudgetLayer, Counter, Telemetry};
use hilp_workloads::Workload;

use crate::pareto::ParetoPoint;

/// Which evaluation model a sweep uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// HILP: near-optimal scheduling, full WLP awareness.
    Hilp,
    /// MultiAmdahl: fixed sequential order (WLP = 1).
    MultiAmdahl,
    /// Parallel-mode Gables: dependencies discarded (maximal WLP).
    Gables,
}

impl ModelKind {
    /// Display name matching the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Hilp => "HILP",
            ModelKind::MultiAmdahl => "MA",
            ModelKind::Gables => "Gables",
        }
    }
}

/// Budget controls for a whole sweep (all optional; the default is
/// fully unbudgeted and changes nothing about how a sweep runs).
///
/// A budgeted sweep still evaluates *every* design point: expiry
/// degrades each point's solve gracefully (the deterministic heuristic
/// base pass always runs, so every point reports a feasible schedule)
/// rather than dropping points. Truncated points are marked in
/// [`SweepStats::point_truncations`].
#[derive(Debug, Clone, Default)]
pub struct SweepBudgets {
    /// Deterministic node budget handed to each design point's solver as
    /// a *fresh* meter (`None` = unlimited). Because no point draws from
    /// another's pool, results are bit-identical for any worker count
    /// and claim order.
    pub per_point_nodes: Option<u64>,
    /// Wall-clock deadline for the whole sweep, measured from the
    /// `evaluate_space*` call. The remaining time is redistributed
    /// fairly at each point claim: a point may use
    /// `threads * remaining_time / unclaimed_points` (workers run
    /// concurrently, so each wall-clock second advances ~`threads`
    /// points), capped by the sweep deadline itself so the sweep always
    /// lands by the cutoff. Inherently non-deterministic.
    pub sweep_deadline: Option<Duration>,
    /// External kill switch observed by every point's solver. After
    /// cancellation each remaining point degrades to its heuristic base
    /// pass, so the sweep drains quickly but completely.
    pub cancel: Option<CancelToken>,
}

impl SweepBudgets {
    /// Whether any budget constraint is configured.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.per_point_nodes.is_some() || self.sweep_deadline.is_some() || self.cancel.is_some()
    }

    /// Whether memoization and baseline recording/replay stay sound under
    /// these budgets: no per-point node meter and no sweep deadline. A
    /// cancel token *alone* is allowed — until it trips, cancel checks
    /// are read-only and every solve is bit-identical to an unbudgeted
    /// one. Consumers that record or cache results remain responsible
    /// for discarding anything produced after the token actually trips
    /// (see the sweep memo cache and [`evaluate_space_recorded`]); this
    /// predicate only says the budget *shape* cannot silently perturb
    /// untripped runs. Long-running servers rely on this: every job
    /// carries a disconnect cancel token, and without the carve-out no
    /// server sweep could ever reuse a baseline or the memo cache.
    #[must_use]
    pub fn replay_safe(&self) -> bool {
        self.per_point_nodes.is_none() && self.sweep_deadline.is_none()
    }
}

/// Whether a solver-level [`Budget`] is replay-safe in the same sense as
/// [`SweepBudgets::replay_safe`]: unlimited, or expirable only through a
/// cancel token.
fn solver_budget_replay_safe(budget: &Budget) -> bool {
    budget.is_unlimited() || budget.cancel_only()
}

/// Configuration of a design-space sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Time-step policy per evaluation.
    pub policy: TimeStepPolicy,
    /// How HILP evaluations consume the time-step policy: the paper's
    /// adaptive grid-refinement loop (the default), or a pilot replay of
    /// that loop followed by one solve at the policy's finest tick on the
    /// horizon-independent event backend ([`EvaluatePolicy::Exact`]) — no
    /// residual coarse-grid rounding, and per-point makespans guaranteed
    /// at most the grid loop's. The other models have no refinement loop
    /// and ignore this.
    pub evaluate: EvaluatePolicy,
    /// Scheduler configuration per evaluation.
    pub solver: SolverConfig,
    /// Number of worker threads (`0` = all available cores; when the core
    /// count cannot be determined the sweep falls back to 4 workers and
    /// reports it via [`SweepStats::parallelism_fallback`]).
    pub threads: usize,
    /// Memoize solves across design points whose *effective* scheduling
    /// instances coincide (e.g. SoCs differing only in components the
    /// workload cannot exploit at the sweep's discretization). Keys hash
    /// the encoded instance at every discretization level the adaptive
    /// policy can visit, so a hit implies the whole refinement trajectory
    /// — and therefore the result — is identical. Applies to the HILP and
    /// Gables models (MultiAmdahl is too cheap to be worth caching).
    pub memoize: bool,
    /// Structured telemetry sink for the whole sweep. When enabled it is
    /// propagated into every per-point solver at sweep start, so spans and
    /// counters from all layers (sweep, evaluator, scheduler) land in one
    /// ring. Observational only: enabling it never changes any reported
    /// value. Disabled by default.
    pub telemetry: Telemetry,
    /// Solve budgets for the sweep (per-point node budgets, a whole-sweep
    /// deadline, external cancellation). Inactive by default. When a node
    /// or deadline constraint is set, memoization is disabled for the
    /// sweep: a truncated result depends on the budget, not just the
    /// instance, so instance-fingerprint cache keys would no longer be
    /// sound. A cancel token alone keeps the cache on (see
    /// [`SweepBudgets::replay_safe`]); results produced after the token
    /// trips are simply never inserted.
    pub budgets: SweepBudgets,
    /// A previously recorded sweep (see [`evaluate_space_recorded`]) of a
    /// *related* scenario — typically the same design space before a
    /// what-if edit. Two delta tiers reuse it, both provably
    /// result-invariant:
    ///
    /// * **Identity replay** — a design point whose workload, SoC, and
    ///   constraints equal the recorded ones (under a matching
    ///   configuration) returns the recorded result verbatim; the
    ///   evaluation pipeline is deterministic, so re-running it would
    ///   reproduce the recording bit for bit.
    /// * **Bound certificates** — for every refinement level, the
    ///   recorded parent instance (captured from the recording solve
    ///   itself) is diffed against the level's current instance
    ///   ([`InstanceDelta`]); when the edit is a pure tightening (caps
    ///   down, durations/lags up, modes removed — child feasible set ⊆
    ///   parent's) the parent's proven bound is injected as a
    ///   *transparent* external bound, cutting heuristic work without
    ///   changing any reported value.
    ///
    /// Both tiers are skipped for node- or deadline-budgeted sweeps and
    /// non-heuristic-only solver configurations, where the invariance
    /// argument does not hold; a cancel token alone is fine (see
    /// [`SweepBudgets::replay_safe`]). `None` (the default) disables
    /// them.
    pub baseline: Option<Arc<SweepBaseline>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            // The paper's DSE refines towards a 40-step makespan
            // (TimeStepPolicy::sweep()), which is fine when the metric is a
            // parallel schedule. MultiAmdahl's makespan, however, is a sum
            // over all ~30 phases, so at 40 steps its per-phase ceiling
            // rounding dominates the result. Our solver is fast enough to
            // afford the validation-grade 200-step target for everything,
            // keeping the three models' discretization error comparable.
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 200,
                refine_factor: 5.0,
                max_refinements: 4,
            },
            evaluate: EvaluatePolicy::default(),
            solver: SolverConfig::sweep(),
            threads: 0,
            memoize: true,
            telemetry: Telemetry::disabled(),
            budgets: SweepBudgets::default(),
            baseline: None,
        }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The SoC.
    pub soc: SocSpec,
    /// Its `(c,g,d)` label.
    pub label: String,
    /// Die area (mm²).
    pub area_mm2: f64,
    /// Predicted speedup over sequential single-core execution.
    pub speedup: f64,
    /// Predicted workload execution time (s).
    pub makespan_seconds: f64,
    /// Energy of the predicted schedule (J).
    pub energy_joules: f64,
    /// Average WLP of the predicted schedule.
    pub avg_wlp: f64,
    /// Optimality gap of the underlying solve (0 for MA, which is exact
    /// given its sequential-order assumption).
    pub gap: f64,
    /// Fraction of accelerator area on the GPU (Figure 7 color coding).
    pub gpu_area_fraction: Option<f64>,
}

impl ParetoPoint for DesignPoint {
    fn cost(&self) -> f64 {
        self.area_mm2
    }
    fn benefit(&self) -> f64 {
        self.speedup
    }
}

/// One makespan×energy trade-off on a design point's schedule-level
/// Pareto front, in physical units.
#[derive(Debug, Clone, PartialEq)]
pub struct TradeoffPoint {
    /// Workload execution time at this trade-off (s).
    pub makespan_seconds: f64,
    /// Schedule energy at this trade-off (J).
    pub energy_joules: f64,
    /// Whether the solver proved this makespan optimal under its energy
    /// cap (the front is exact here, not just non-dominated incumbents).
    pub proved_optimal: bool,
}

impl TradeoffPoint {
    /// Energy-delay product (J·s).
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.makespan_seconds * self.energy_joules
    }
}

/// One design point of an energy-aware sweep: the scalar evaluation under
/// the configured objective plus the full makespan×energy Pareto front of
/// its schedules (makespan ascending, energy strictly descending).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoDesignPoint {
    /// The scalar design point (same fields as [`evaluate_space`]'s).
    pub point: DesignPoint,
    /// The non-dominated makespan×energy trade-offs at the final tick.
    pub front: Vec<TradeoffPoint>,
    /// Whether every rung of the cap ladder closed its gap, making the
    /// front provably exact (its EDP minimum is then the global minimum).
    pub complete: bool,
    /// Which budget constraint (if any) cut the ladder short.
    pub truncated: Option<BudgetKind>,
}

impl ParetoDesignPoint {
    /// The front's minimum energy-delay product, if any point exists.
    #[must_use]
    pub fn min_edp(&self) -> Option<f64> {
        self.front
            .iter()
            .map(TradeoffPoint::edp)
            .min_by(f64::total_cmp)
    }
}

/// One completed design point, as delivered to a [`SweepObserver`] the
/// moment its result is known (claim order, not input order).
#[derive(Debug, Clone)]
pub struct PointUpdate {
    /// Index in the input SoC order.
    pub index: usize,
    /// The evaluated point.
    pub point: DesignPoint,
    /// Wall-clock seconds spent on it (~0 for replays and cache hits).
    pub seconds: f64,
    /// Which budget constraint cut the solve short, if any.
    pub truncated: Option<BudgetKind>,
    /// Answered verbatim by baseline identity replay.
    pub replayed: bool,
    /// Answered from the memoization cache.
    pub cached: bool,
}

/// A streaming callback for sweeps: [`evaluate_space_streamed`] invokes
/// it from worker threads as each design point lands, so a caller (e.g.
/// a serving frontend) can forward incremental results while the sweep
/// is still running. Purely observational — implementations cannot
/// change any reported value — and called concurrently, so they must be
/// `Sync`.
pub trait SweepObserver: Sync {
    /// Called exactly once per design point, as soon as its result is
    /// known. Points arrive in claim order; `update.index` recovers the
    /// input position.
    fn point_done(&self, update: &PointUpdate);
}

/// Evaluates one SoC under one model.
///
/// # Errors
///
/// Propagates encoding and scheduling failures.
pub fn evaluate_soc(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<DesignPoint, HilpError> {
    evaluate_soc_observed(workload, soc, constraints, model, config, None).map(|(p, _)| p)
}

/// [`evaluate_soc`] with an optional refinement observer threaded into HILP
/// evaluations (the other models have no refinement loop to observe).
/// Additionally reports whether the underlying solve was cut short by a
/// budget (always `None` for MultiAmdahl, which has no search to budget).
fn evaluate_soc_observed(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: Option<&dyn RefinementObserver>,
) -> Result<(DesignPoint, Option<BudgetKind>), HilpError> {
    let (scalars, truncated) = match model {
        ModelKind::Hilp => {
            let hilp = Hilp::new(workload.clone(), soc.clone())
                .with_constraints(*constraints)
                .with_policy(config.policy)
                .with_evaluate_policy(config.evaluate)
                .with_solver(config.solver.clone());
            let eval = match observer {
                Some(observer) => hilp.evaluate_with_observer(observer)?,
                None => hilp.evaluate()?,
            };
            (
                PointScalars {
                    speedup: eval.speedup,
                    makespan_seconds: eval.makespan_seconds,
                    energy_joules: eval.energy_joules,
                    avg_wlp: eval.avg_wlp,
                    gap: eval.gap,
                },
                eval.truncated,
            )
        }
        ModelKind::MultiAmdahl => {
            let r = multi_amdahl(workload, soc, constraints, &config.policy)?;
            (PointScalars::from_baseline(&r), r.truncated)
        }
        ModelKind::Gables => {
            // Gables solves a scheduling problem too; surface its real
            // optimality gap rather than pretending the prediction is
            // exact.
            let r = gables_parallel(workload, soc, constraints, &config.policy, &config.solver)?;
            (PointScalars::from_baseline(&r), r.truncated)
        }
    };
    Ok((design_point(soc, &scalars), truncated))
}

/// The model-reported scalars of one design point, independent of the SoC
/// identity fields (`label`, area) that [`design_point`] recomputes.
#[derive(Debug, Clone, Copy)]
struct PointScalars {
    speedup: f64,
    makespan_seconds: f64,
    energy_joules: f64,
    avg_wlp: f64,
    gap: f64,
}

impl PointScalars {
    fn from_baseline(r: &hilp_baselines::BaselineResult) -> PointScalars {
        PointScalars {
            speedup: r.speedup,
            makespan_seconds: r.makespan_seconds,
            energy_joules: r.energy_joules,
            avg_wlp: r.avg_wlp,
            gap: r.gap,
        }
    }
}

fn design_point(soc: &SocSpec, scalars: &PointScalars) -> DesignPoint {
    DesignPoint {
        soc: soc.clone(),
        label: soc.label(),
        area_mm2: soc.area_mm2(),
        speedup: scalars.speedup,
        makespan_seconds: scalars.makespan_seconds,
        energy_joules: scalars.energy_joules,
        avg_wlp: scalars.avg_wlp,
        gap: scalars.gap,
        gpu_area_fraction: soc.gpu_area_fraction(),
    }
}

/// Sweep-wide statistics: cache and baseline effectiveness, bound
/// termination, and per-point solve-time attribution.
///
/// The timing and work-count fields describe *how* the sweep ran, not what
/// it computed; they vary with thread interleaving while the returned
/// design points do not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepStats {
    /// Design points that ran a full evaluation.
    pub solves: usize,
    /// Design points answered from the memoization cache.
    pub cache_hits: usize,
    /// Worker threads the sweep actually used.
    pub threads_used: usize,
    /// `threads: 0` was requested but the core count could not be
    /// determined, so the sweep fell back to 4 workers.
    pub parallelism_fallback: bool,
    /// Refinement levels solved across all HILP evaluations.
    pub levels_solved: usize,
    /// Levels that took a proven bound certificate from
    /// [`SweepConfig::baseline`] (a delta-checked tightening of the
    /// recorded level's instance).
    pub bound_inherited_levels: usize,
    /// Histogram of how much each certificate tightened the level's own
    /// combinatorial bound, in steps: `[0, 1, 2-3, 4-7, >=8]`.
    pub bound_tightening_histogram: [usize; 5],
    /// Levels whose heuristic stopped early because its incumbent reached
    /// a proven bound.
    pub early_terminated_levels: usize,
    /// Heuristic SGS evaluations requested across all levels.
    pub heuristic_jobs_total: u64,
    /// Heuristic SGS evaluations actually executed; the rest were cut by
    /// bound termination.
    pub heuristic_jobs_executed: u64,
    /// Wall-clock seconds spent on each design point, aligned with the
    /// input SoC order (cache hits cost ~0).
    pub point_seconds: Vec<f64>,
    /// Design points whose solve was cut short by a budget (the point
    /// still reports its best incumbent — see [`SweepBudgets`]).
    pub truncated_points: usize,
    /// Which budget constraint (if any) truncated each design point,
    /// aligned with the input SoC order. All `None` for unbudgeted
    /// sweeps.
    pub point_truncations: Vec<Option<BudgetKind>>,
    /// Design points answered verbatim from [`SweepConfig::baseline`]
    /// because their inputs were unchanged since the recording.
    pub delta_identity_points: usize,
}

impl SweepStats {
    /// Fraction of solved levels that took a baseline bound certificate.
    #[must_use]
    pub fn inheritance_hit_rate(&self) -> f64 {
        if self.levels_solved == 0 {
            return 0.0;
        }
        self.bound_inherited_levels as f64 / self.levels_solved as f64
    }
}

/// One recorded refinement level of a baseline sweep point: the instance
/// the level actually solved (the `Arc` makes re-recording on identity
/// replay a pointer bump) and the bound proven for exactly that instance.
/// Storing the instance rather than a fingerprint lets the certificate
/// tier diff against it directly instead of re-encoding the parent from
/// the baseline's inputs on every consuming level.
#[derive(Debug, Clone)]
struct BaselineLevel {
    level: u32,
    time_step_seconds: f64,
    instance: Arc<Instance>,
    /// The tightest bound proven for the recorded instance (the solver's
    /// own, raised by any sound external bound it was handed), in steps.
    /// Zero carries no information.
    bound: u32,
}

/// One recorded design point of a baseline sweep: the inputs that
/// produced it, every solved level, and the scalar results.
#[derive(Debug, Clone)]
struct BaselinePoint {
    soc: SocSpec,
    levels: Vec<BaselineLevel>,
    scalars: PointScalars,
}

/// A recorded design-space sweep, produced by [`evaluate_space_recorded`]
/// and consumed by [`SweepConfig::baseline`] on a later sweep of an edited
/// scenario. See [`SweepConfig::baseline`] for the two reuse tiers and
/// their soundness conditions; everything here is advisory — a baseline
/// that no longer matches (different SoCs, drifted configuration, edits
/// that are not tightenings) degrades to a normal from-scratch sweep.
#[derive(Debug, Clone)]
pub struct SweepBaseline {
    workload: Workload,
    constraints: Constraints,
    /// Snapshot of every result-relevant policy/solver knob at record
    /// time. Identity replay requires the consuming sweep's key to match
    /// (determinism is an argument about *identical runs*); certificates
    /// do not — a bound proven for a recorded instance is a bound under
    /// any configuration *with a compatible objective* (see
    /// [`bounds_transfer_between`]).
    config_key: u64,
    /// The objective the recording sweep solved under. Certificates only
    /// transfer to objectives whose feasible set is no larger.
    objective: Objective,
    points: Vec<BaselinePoint>,
}

impl SweepBaseline {
    /// Number of recorded design points (zero when the recording sweep
    /// was budgeted, which makes the baseline inert).
    #[must_use]
    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// Identity tier: when the point's inputs and the sweep configuration
    /// are exactly what the baseline recorded, the recorded result *is*
    /// the result (the pipeline is deterministic), rebuilt around the
    /// caller's SoC value. Returns the recorded point alongside so a
    /// recording caller can re-record its levels.
    fn replay(
        &self,
        index: usize,
        soc: &SocSpec,
        workload: &Workload,
        constraints: &Constraints,
        config_key: u64,
    ) -> Option<(DesignPoint, &BaselinePoint)> {
        if config_key != self.config_key {
            return None;
        }
        let rec = self.points.get(index)?;
        // An empty level list means the recording never observed this
        // point's solves (non-HILP model); nothing certifies the replay.
        if rec.levels.is_empty()
            || rec.soc != *soc
            || self.workload != *workload
            || self.constraints != *constraints
        {
            return None;
        }
        Some((design_point(soc, &rec.scalars), rec))
    }

    /// Certificate tier: a proven lower bound for `child` (the consuming
    /// sweep's instance at this level), or `None`. The recorded parent
    /// instance is exactly the one the bound was proven for (it was
    /// captured from the solve itself), so the bound transfers iff the
    /// delta from parent to child is a pure tightening (child feasible
    /// set ⊆ parent's, so `optimum(child) >= optimum(parent) >= bound`).
    /// `index` must address the same design point as at record time —
    /// identity of the inputs is the caller's gate (same SoC list,
    /// workload, and constraints), and the delta diff itself rejects
    /// unrelated instances. `consuming` is the objective of the consuming
    /// sweep; the transfer is refused outright when the recorded bound's
    /// objective does not cover it.
    fn certificate(
        &self,
        index: usize,
        level: u32,
        time_step_seconds: f64,
        child: &Instance,
        consuming: Objective,
    ) -> Option<u32> {
        if !bounds_transfer_between(self.objective, consuming) {
            return None;
        }
        let parent = self.points.get(index)?;
        let rec = parent
            .levels
            .iter()
            .find(|l| l.level == level && same_tick(l.time_step_seconds, time_step_seconds))?;
        if rec.bound == 0 {
            return None;
        }
        InstanceDelta::between(&rec.instance, child)
            .bounds_transfer()
            .then_some(rec.bound)
    }
}

/// Relative tick equality: ticks come from identical policy arithmetic,
/// so anything beyond float noise is a genuine mismatch.
fn same_tick(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Hash of every sweep knob that can change a design point's result given
/// the same encoded instances (mirrors the per-evaluator key in
/// `hilp-core`). Thread counts, memoization, and telemetry are excluded —
/// all proven result-invariant; budgets are handled
/// separately (both baseline tiers require them inactive).
fn sweep_config_key(config: &SweepConfig) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(config.policy.initial_seconds.to_bits());
    eat(u64::from(config.policy.target_steps));
    eat(config.policy.refine_factor.to_bits());
    eat(u64::from(config.policy.max_refinements));
    eat(match config.evaluate {
        EvaluatePolicy::GridRefinement => 0,
        EvaluatePolicy::Exact => 1,
    });
    eat(config.solver.heuristic_starts as u64);
    eat(config.solver.local_search_passes as u64);
    eat(config.solver.exact_node_budget);
    eat(config.solver.exact_task_threshold as u64);
    eat(config.solver.seed);
    eat(u64::from(config.solver.bound_termination));
    eat(match config.solver.timetable {
        TimetableKind::Event => 0,
        TimetableKind::Dense => 1,
    });
    // The objective (and any energy cap riding on it) changes which
    // schedule — and so which scalars — a point reports; a baseline
    // recorded under one objective must never identity-replay under
    // another.
    eat(match config.solver.objective {
        Objective::Makespan => 0,
        Objective::Energy => 1,
        Objective::Edp => 2,
        Objective::MakespanUnderEnergyCap(_) => 3,
    });
    eat(match config.solver.objective {
        Objective::MakespanUnderEnergyCap(cap) => cap.to_bits(),
        _ => 0,
    });
    h
}

/// Whether a makespan lower bound proven under the `recorded` objective is
/// still a lower bound under the `consuming` objective (same or tightened
/// instance). True only within the makespan family with a cap that does
/// not loosen: tightening the energy cap shrinks the feasible set, so the
/// optimum can only rise and the bound stays sound. `Energy`/`Edp` solves
/// bound a *different* quantity (the makespan of an energy-restricted
/// mode set, which instance edits reshape non-monotonically), so nothing
/// transfers in or out of them.
fn bounds_transfer_between(recorded: Objective, consuming: Objective) -> bool {
    let cap = |objective: Objective| match objective {
        Objective::Makespan => Some(f64::INFINITY),
        Objective::MakespanUnderEnergyCap(c) => Some(c),
        Objective::Energy | Objective::Edp => None,
    };
    match (cap(recorded), cap(consuming)) {
        (Some(recorded), Some(consuming)) => consuming <= recorded,
        _ => false,
    }
}

/// Per-point level accumulator behind [`evaluate_space_recorded`]; indexed
/// by design-point position, filled lock-free-ish by the point oracles
/// (each point's levels arrive from exactly one worker).
struct BaselineRecorder {
    points: Vec<Mutex<Vec<BaselineLevel>>>,
}

impl BaselineRecorder {
    fn new(points: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(points, || Mutex::new(Vec::new()));
        BaselineRecorder { points: slots }
    }

    fn record(&self, point: usize, level: BaselineLevel) {
        if let Ok(mut levels) = self.points[point].lock() {
            levels.push(level);
        }
    }

    fn finish(self, socs: &[SocSpec], points: &[DesignPoint]) -> Vec<BaselinePoint> {
        self.points
            .into_iter()
            .zip(socs)
            .zip(points)
            .map(|((levels, soc), p)| BaselinePoint {
                soc: soc.clone(),
                levels: levels.into_inner().unwrap_or_default(),
                scalars: PointScalars {
                    speedup: p.speedup,
                    makespan_seconds: p.makespan_seconds,
                    energy_joules: p.energy_joules,
                    avg_wlp: p.avg_wlp,
                    gap: p.gap,
                },
            })
            .collect()
    }
}

/// Shards of the solve memo. Sixteen shards keep lock contention negligible
/// for any realistic worker count while the power-of-two mask makes shard
/// selection branch-free; keys are fingerprint hashes, so their low bits
/// are uniformly distributed.
const CACHE_SHARDS: usize = 16;

/// The per-sweep solve memo: maps an instance-trajectory fingerprint to
/// the scalar results of the evaluation. The schedule itself is not
/// cached — `DesignPoint` only carries scalars, and the SoC-specific
/// fields (label, area) are recomputed per point. Sharded by key so
/// concurrent workers do not serialize on one global lock.
struct SolveCache {
    /// The *effective* workload the model schedules (dependency-stripped
    /// for Gables).
    key_workload: Workload,
    /// The *effective* constraints (power budget dropped for Gables).
    key_constraints: Constraints,
    shards: Vec<Mutex<HashMap<u64, PointScalars>>>,
    hits: AtomicUsize,
}

impl SolveCache {
    fn for_model(
        workload: &Workload,
        constraints: &Constraints,
        model: ModelKind,
        config: &SweepConfig,
    ) -> Option<SolveCache> {
        // A node/deadline budget makes a point's result depend on how
        // much budget was left, not just on the encoded instance, so
        // instance-fingerprint keys no longer imply identical results:
        // skip the cache entirely for such sweeps (per-point or
        // caller-supplied). Cancel-only budgets are replay-safe —
        // untripped solves are bit-identical to unbudgeted ones — and
        // the insert path refuses results produced after a trip.
        if !config.memoize
            || !config.budgets.replay_safe()
            || !solver_budget_replay_safe(&config.solver.budget)
        {
            return None;
        }
        let (key_workload, key_constraints) = match model {
            ModelKind::Hilp => (workload.clone(), *constraints),
            ModelKind::Gables => (
                without_dependencies(workload),
                gables_constraints(constraints),
            ),
            // MultiAmdahl evaluations are a closed-form sum over one
            // encode per level — caching would cost as much as solving.
            ModelKind::MultiAmdahl => return None,
        };
        let mut shards = Vec::with_capacity(CACHE_SHARDS);
        shards.resize_with(CACHE_SHARDS, || Mutex::new(HashMap::new()));
        Some(SolveCache {
            key_workload,
            key_constraints,
            shards,
            hits: AtomicUsize::new(0),
        })
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, PointScalars>> {
        &self.shards[(key as usize) & (CACHE_SHARDS - 1)]
    }

    fn get(&self, key: u64) -> Option<PointScalars> {
        let hit = self
            .shard(key)
            .lock()
            .expect("cache shard")
            .get(&key)
            .copied();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn insert(&self, key: u64, scalars: PointScalars) {
        // Two workers may race on the same key; both solves are
        // deterministic and identical, so last-write-wins is benign.
        self.shard(key)
            .lock()
            .expect("cache shard")
            .insert(key, scalars);
    }

    /// Fingerprints the instance at *every* discretization level the
    /// adaptive policy can visit. Equal keys therefore imply the two
    /// design points present the solver with bit-identical instances along
    /// the whole refinement trajectory, so (the solver being
    /// deterministic) their results are identical. Hashing only the
    /// initial level would be unsound: durations that round together at a
    /// coarse step can diverge at a finer one. The same trajectory covers
    /// [`EvaluatePolicy::Exact`], whose pilot cascade replays the grid
    /// levels before the finest-tick solve — hashing only the finest
    /// instance would be unsound there for the converse reason.
    fn key(&self, soc: &SocSpec, config: &SweepConfig) -> Result<u64, HilpError> {
        let mut combined: u64 = 0xcbf2_9ce4_8422_2325;
        let mut step = config.policy.initial_seconds;
        for _ in 0..=config.policy.max_refinements {
            let (instance, _) = encode(&self.key_workload, soc, &self.key_constraints, step)?;
            combined = combined.rotate_left(13) ^ instance.fingerprint();
            step /= config.policy.refine_factor;
        }
        Ok(combined)
    }
}

/// Mints one fresh [`Budget`] per design point at claim time,
/// implementing the [`SweepBudgets`] policy: a per-point node meter,
/// fair redistribution of the remaining sweep time, and a shared cancel
/// token.
struct SweepBudgeter {
    per_point_nodes: Option<u64>,
    /// The whole-sweep cutoff, resolved at sweep start.
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    threads: usize,
    /// Points not yet claimed, decremented per deadline-carrying claim.
    unclaimed: AtomicUsize,
}

impl SweepBudgeter {
    fn new(budgets: &SweepBudgets, threads: usize, points: usize) -> Option<SweepBudgeter> {
        budgets.is_active().then(|| SweepBudgeter {
            per_point_nodes: budgets.per_point_nodes,
            deadline: budgets.sweep_deadline.map(|after| Instant::now() + after),
            cancel: budgets.cancel.clone(),
            threads: threads.max(1),
            unclaimed: AtomicUsize::new(points),
        })
    }

    /// The budget for the next claimed point. Fair redistribution: the
    /// point's deadline is `now + threads * remaining_time / unclaimed`
    /// (workers run concurrently, so each wall-clock second advances
    /// ~`threads` points), capped by the sweep deadline. Points that
    /// finish early donate their slack to later claims automatically,
    /// because later slices are computed from the *actual* remaining
    /// time.
    fn point_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(nodes) = self.per_point_nodes {
            budget = budget.with_node_limit(nodes);
        }
        if let Some(deadline) = self.deadline {
            let left = self.unclaimed.fetch_sub(1, Ordering::Relaxed).max(1);
            let now = Instant::now();
            let remaining = deadline.saturating_duration_since(now);
            let slice = remaining.mul_f64(self.threads as f64 / left as f64);
            budget = budget.with_deadline_at(deadline.min(now + slice));
        }
        if let Some(token) = &self.cancel {
            budget = budget.with_cancel(token.clone());
        }
        budget
    }
}

/// Sweep-wide work counters, updated lock-free by the per-point oracles.
#[derive(Default)]
struct SweepCounters {
    levels_solved: AtomicUsize,
    inherited_levels: AtomicUsize,
    tightening: [AtomicUsize; 5],
    early_terminated: AtomicUsize,
    jobs_total: AtomicU64,
    jobs_executed: AtomicU64,
    delta_identity: AtomicUsize,
}

/// Per-point refinement observer: pulls tightening certificates from a
/// cross-sweep baseline before each level's solve, counts what the level
/// did, and records levels for [`evaluate_space_recorded`].
struct PointOracle<'a> {
    baseline: Option<&'a SweepBaseline>,
    recorder: Option<&'a BaselineRecorder>,
    counters: &'a SweepCounters,
    tel: &'a Telemetry,
    point: usize,
    /// The consuming sweep's objective, gating certificate transfer.
    objective: Objective,
}

impl RefinementObserver for PointOracle<'_> {
    fn external_lower_bound(
        &self,
        level: u32,
        time_step_seconds: f64,
        instance: &Instance,
    ) -> Option<u32> {
        self.baseline?.certificate(
            self.point,
            level,
            time_step_seconds,
            instance,
            self.objective,
        )
    }

    fn level_solved(&self, report: &LevelReport<'_>) {
        if let Some(recorder) = self.recorder {
            recorder.record(
                self.point,
                BaselineLevel {
                    level: report.level,
                    time_step_seconds: report.time_step_seconds,
                    instance: Arc::new(report.instance.clone()),
                    bound: report
                        .lower_bound_steps
                        .max(report.external_bound_steps.unwrap_or(0)),
                },
            );
        }
        self.tel.level(
            self.point as u64,
            u64::from(report.level),
            u64::from(report.makespan_steps),
        );
        let c = self.counters;
        c.levels_solved.fetch_add(1, Ordering::Relaxed);
        c.jobs_total.fetch_add(
            report.telemetry.heuristic_jobs_total as u64,
            Ordering::Relaxed,
        );
        c.jobs_executed.fetch_add(
            report.telemetry.heuristic_jobs_executed as u64,
            Ordering::Relaxed,
        );
        if report.telemetry.bound_termination_hit {
            c.early_terminated.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(external) = report.external_bound_steps {
            c.inherited_levels.fetch_add(1, Ordering::Relaxed);
            let tightened = external.saturating_sub(report.lower_bound_steps);
            let bin = match tightened {
                0 => 0,
                1 => 1,
                2..=3 => 2,
                4..=7 => 3,
                _ => 4,
            };
            c.tightening[bin].fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn evaluate_soc_cached(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    cache: Option<&SolveCache>,
    oracle: &PointOracle<'_>,
) -> Result<(DesignPoint, Option<BudgetKind>, bool), HilpError> {
    let key = match cache {
        Some(c) => Some(c.key(soc, config)?),
        None => None,
    };
    if let (Some(c), Some(k)) = (cache, key) {
        if let Some(scalars) = c.get(k) {
            // Truncated results are never inserted, so a hit is never
            // truncated.
            return Ok((design_point(soc, &scalars), None, true));
        }
    }
    let (point, truncated) =
        evaluate_soc_observed(workload, soc, constraints, model, config, Some(oracle))?;
    // A result produced after a cancel trip (the only budget the cache
    // tolerates) depends on when the trip landed, not just on the
    // instance: it must not be memoized. The sticky `exhausted` check
    // also catches a trip that arrived between the solve finishing and
    // this insert — conservative, but cancellation means the sweep's
    // remaining results are being discarded anyway.
    if truncated.is_none() && config.solver.budget.exhausted().is_none() {
        if let (Some(c), Some(k)) = (cache, key) {
            c.insert(
                k,
                PointScalars {
                    speedup: point.speedup,
                    makespan_seconds: point.makespan_seconds,
                    energy_joules: point.energy_joules,
                    avg_wlp: point.avg_wlp,
                    gap: point.gap,
                },
            );
        }
    }
    Ok((point, truncated, false))
}

/// Evaluates a whole design space in parallel, preserving input order.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<Vec<DesignPoint>, HilpError> {
    evaluate_space_with_stats(workload, socs, constraints, model, config).map(|(points, _)| points)
}

/// Like [`evaluate_space`], additionally reporting how much work the
/// memoization cache, bound termination and baseline reuse saved, and
/// where the sweep's wall clock went.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_with_stats(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    sweep_inner(workload, socs, constraints, model, config, None, None)
}

/// Like [`evaluate_space_with_stats`], additionally invoking `observer`
/// from worker threads as each design point lands, so callers can stream
/// incremental results while the sweep runs. The observer is purely
/// observational: the returned points and stats are bit-identical to an
/// unobserved sweep.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_streamed(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: &dyn SweepObserver,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    sweep_inner(
        workload,
        socs,
        constraints,
        model,
        config,
        None,
        Some(observer),
    )
}

/// Like [`evaluate_space_with_stats`], additionally recording every design
/// point's per-level instance fingerprints and proven bounds into a
/// [`SweepBaseline`], so a later sweep of an edited scenario can reuse
/// them through [`SweepConfig::baseline`]. The design points themselves
/// are identical to [`evaluate_space`]'s (recording is observational); the
/// memoization cache is bypassed so every point's levels are actually
/// observed. A budgeted recording sweep yields an inert (empty) baseline —
/// truncated solves do not certify anything.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_recorded(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
) -> Result<(Vec<DesignPoint>, SweepStats, SweepBaseline), HilpError> {
    evaluate_space_recorded_streamed(workload, socs, constraints, model, config, None)
}

/// [`evaluate_space_recorded`] with an optional streaming observer (see
/// [`evaluate_space_streamed`]); the serving frontend uses this to both
/// stream results and refresh its persisted baseline in one sweep.
///
/// # Errors
///
/// Returns the first evaluation error encountered.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_recorded_streamed(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    observer: Option<&dyn SweepObserver>,
) -> Result<(Vec<DesignPoint>, SweepStats, SweepBaseline), HilpError> {
    // A cancel token alone still records (see SweepBudgets::replay_safe);
    // when it actually tripped, the recording is discarded below.
    let replay_safe =
        config.budgets.replay_safe() && solver_budget_replay_safe(&config.solver.budget);
    let recorder = replay_safe.then(|| BaselineRecorder::new(socs.len()));
    let (points, stats) = sweep_inner(
        workload,
        socs,
        constraints,
        model,
        config,
        recorder.as_ref(),
        observer,
    )?;
    // Any truncation means some recorded level (or scalar result) is
    // budget-dependent rather than instance-determined; an inert baseline
    // is the only sound outcome.
    let recorder = recorder.filter(|_| stats.truncated_points == 0);
    let baseline = SweepBaseline {
        workload: workload.clone(),
        constraints: *constraints,
        config_key: sweep_config_key(config),
        objective: config.solver.objective,
        points: match recorder {
            Some(recorder) => recorder.finish(socs, &points),
            None => Vec::new(),
        },
    };
    Ok((points, stats, baseline))
}

/// Fronts memoized by [`evaluate_space_pareto`], keyed by the same
/// instance-trajectory fingerprint as [`SolveCache`] (the final tick — and
/// with it the ladder — is a pure function of the trajectory and the
/// configuration).
struct ParetoCacheEntry {
    scalars: PointScalars,
    front: Vec<TradeoffPoint>,
    complete: bool,
}

/// Evaluates a whole design space into per-point makespan×energy Pareto
/// fronts, in parallel, preserving input order (HILP model only — the
/// baseline models have no energy dial to trade against).
///
/// Each point runs the configured evaluation to fix its final tick, then
/// sweeps a descending energy-cap ladder at that tick (see
/// [`hilp_sched::solve_pareto`]). Results are bit-identical for any
/// `threads` setting: points are independent, each ladder is
/// deterministic, and results are slotted by input index. Memoization
/// composes exactly as in [`evaluate_space`] (instance-trajectory keys,
/// disabled by non-replay-safe budgets), and [`SweepBudgets`] mints the
/// same per-point budgets.
///
/// # Errors
///
/// Returns the first evaluation error encountered (in input order).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn evaluate_space_pareto(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<Vec<ParetoDesignPoint>, HilpError> {
    let mut effective = config.clone();
    if effective.telemetry.is_enabled() {
        effective.solver.telemetry = effective.telemetry.clone();
    }
    let total_threads = if effective.threads == 0 {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    } else {
        effective.threads
    };
    let split = ThreadBudget::split(total_threads, socs.len());
    if split.inner > 1 {
        effective.solver.heuristic_threads = split.inner;
        effective.solver.bnb_threads = split.inner;
    }
    let threads = split.outer;
    let config = &effective;

    // The scalar cache's trajectory key covers the Pareto ladder too (the
    // ladder is a deterministic function of the final-tick instance and
    // the solver configuration, both key inputs); the fronts themselves
    // live in a map of their own.
    let cache = SolveCache::for_model(workload, constraints, ModelKind::Hilp, config);
    let fronts: Mutex<HashMap<u64, Arc<ParetoCacheEntry>>> = Mutex::new(HashMap::new());
    let budgeter = SweepBudgeter::new(&config.budgets, threads, socs.len());
    let queue = WorkQueue::new((0..socs.len()).collect(), threads);

    type Slot = Option<Result<ParetoDesignPoint, HilpError>>;
    let results: Mutex<Vec<Slot>> = Mutex::new((0..socs.len()).map(|_| None).collect());

    crossbeam::thread::scope(|scope| {
        for worker in 0..threads {
            let queue = &queue;
            let results = &results;
            let cache = cache.as_ref();
            let fronts = &fronts;
            let budgeter = budgeter.as_ref();
            scope.spawn(move |_| {
                while let Some((i, _)) = queue.take(worker) {
                    let slot = evaluate_soc_pareto_cached(
                        workload,
                        &socs[i],
                        constraints,
                        config,
                        cache,
                        fronts,
                        budgeter,
                    );
                    results.lock().expect("no poisoned workers")[i] = Some(slot);
                }
            });
        }
    })
    .expect("worker threads do not panic");

    results
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| slot.expect("every index was evaluated"))
        .collect()
}

/// One design point of [`evaluate_space_pareto`]: memo lookup, evaluation
/// plus cap-ladder sweep, memo insert.
fn evaluate_soc_pareto_cached(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
    cache: Option<&SolveCache>,
    fronts: &Mutex<HashMap<u64, Arc<ParetoCacheEntry>>>,
    budgeter: Option<&SweepBudgeter>,
) -> Result<ParetoDesignPoint, HilpError> {
    let key = match cache {
        Some(c) => Some(c.key(soc, config)?),
        None => None,
    };
    if let Some(k) = key {
        let hit = fronts.lock().expect("front cache").get(&k).cloned();
        if let Some(entry) = hit {
            // Truncated fronts are never inserted, so a hit is complete
            // as recorded and never truncated.
            return Ok(ParetoDesignPoint {
                point: design_point(soc, &entry.scalars),
                front: entry.front.clone(),
                complete: entry.complete,
                truncated: None,
            });
        }
    }
    let point_budget = budgeter.map(SweepBudgeter::point_budget);
    let mut solver = config.solver.clone();
    if let Some(budget) = &point_budget {
        solver.budget = budget.clone();
    }
    let pareto = Hilp::new(workload.clone(), soc.clone())
        .with_constraints(*constraints)
        .with_policy(config.policy)
        .with_evaluate_policy(config.evaluate)
        .with_solver(solver)
        .evaluate_pareto()?;
    let eval = &pareto.evaluation;
    let scalars = PointScalars {
        speedup: eval.speedup,
        makespan_seconds: eval.makespan_seconds,
        energy_joules: eval.energy_joules,
        avg_wlp: eval.avg_wlp,
        gap: eval.gap,
    };
    let front: Vec<TradeoffPoint> = pareto
        .points
        .iter()
        .map(|p| TradeoffPoint {
            makespan_seconds: p.makespan_seconds,
            energy_joules: p.energy_joules,
            proved_optimal: p.proved_optimal,
        })
        .collect();
    let truncated = pareto.truncated.or(eval.truncated).or_else(|| {
        point_budget
            .as_ref()
            .unwrap_or(&config.solver.budget)
            .exhausted()
    });
    if truncated.is_none() {
        if let Some(k) = key {
            let entry = Arc::new(ParetoCacheEntry {
                scalars,
                front: front.clone(),
                complete: pareto.complete,
            });
            fronts.lock().expect("front cache").insert(k, entry);
        }
    }
    Ok(ParetoDesignPoint {
        point: design_point(soc, &scalars),
        front,
        complete: pareto.complete,
        truncated,
    })
}

fn sweep_inner(
    workload: &Workload,
    socs: &[SocSpec],
    constraints: &Constraints,
    model: ModelKind,
    config: &SweepConfig,
    recorder: Option<&BaselineRecorder>,
    observer: Option<&dyn SweepObserver>,
) -> Result<(Vec<DesignPoint>, SweepStats), HilpError> {
    // Propagate sweep-level telemetry into the per-point solver so spans
    // and counters from every layer land in one ring.
    let mut effective = config.clone();
    if effective.telemetry.is_enabled() {
        effective.solver.telemetry = effective.telemetry.clone();
    }
    // Resolve the sweep's total thread allowance, then split it between
    // point-level workers and each point's inner solver threads. With at
    // least as many points as threads the split is pure point-level
    // parallelism (inner = 1) and the solver config is left untouched;
    // with fewer points the spare threads move inside the points. Both
    // inner solvers are bit-identical for any thread count, so the split
    // never changes results.
    let (total_threads, parallelism_fallback) = if effective.threads == 0 {
        match std::thread::available_parallelism() {
            Ok(n) => (n.get(), false),
            Err(_) => (4, true),
        }
    } else {
        (effective.threads, false)
    };
    let split = ThreadBudget::split(total_threads, socs.len());
    if split.inner > 1 {
        effective.solver.heuristic_threads = split.inner;
        effective.solver.bnb_threads = split.inner;
    }
    let threads = split.outer;
    let config = &effective;
    let tel = &config.solver.telemetry;
    let _sweep_span = tel.span("dse.sweep");
    if parallelism_fallback {
        tel.incr(Counter::SweepParallelismFallback);
    }

    // Recording bypasses the memo cache: a cache hit would skip the
    // solves whose levels the baseline needs to observe.
    let cache = if recorder.is_some() {
        None
    } else {
        SolveCache::for_model(workload, constraints, model, config)
    };
    // Baseline reuse needs heuristic-only solves (they consume external
    // bounds invisibly; an exact phase would change its search) plus
    // replay-safe budgets (a node/deadline budget shifts where skipped
    // work would expire it, and identity replay needs full determinism;
    // a cancel token alone perturbs nothing until it trips, and a replay
    // is the recorded — true — result regardless).
    let baseline = config.baseline.as_deref().filter(|_| {
        model == ModelKind::Hilp
            && config.solver.exact_node_budget == 0
            && config.budgets.replay_safe()
            && solver_budget_replay_safe(&config.solver.budget)
    });
    let baseline_key = sweep_config_key(config);
    let counters = SweepCounters::default();
    let queue = WorkQueue::new((0..socs.len()).collect(), threads);
    let budgeter = SweepBudgeter::new(&config.budgets, threads, socs.len());

    type Slot = Option<(Result<DesignPoint, HilpError>, f64, Option<BudgetKind>)>;
    let results: Mutex<Vec<Slot>> = Mutex::new((0..socs.len()).map(|_| None).collect());

    crossbeam::thread::scope(|scope| {
        for worker in 0..threads {
            let queue = &queue;
            let results = &results;
            let cache = cache.as_ref();
            let counters = &counters;
            let budgeter = budgeter.as_ref();
            let tel = &config.solver.telemetry;
            scope.spawn(move |_| {
                while let Some((i, stolen)) = queue.take(worker) {
                    let _point_span = tel.span("dse.point");
                    tel.incr(Counter::SweepPoints);
                    if stolen {
                        tel.incr(Counter::SweepSteals);
                    }
                    // Identity tier: unchanged inputs under a matching
                    // configuration replay the recorded result verbatim.
                    // The recorded levels are re-recorded when this sweep
                    // is itself building a baseline.
                    if let Some((point, rec)) = baseline
                        .and_then(|b| b.replay(i, &socs[i], workload, constraints, baseline_key))
                    {
                        counters.delta_identity.fetch_add(1, Ordering::Relaxed);
                        if let Some(recorder) = recorder {
                            for level in &rec.levels {
                                recorder.record(i, level.clone());
                            }
                        }
                        if let Some(observer) = observer {
                            observer.point_done(&PointUpdate {
                                index: i,
                                point: point.clone(),
                                seconds: 0.0,
                                truncated: None,
                                replayed: true,
                                cached: false,
                            });
                        }
                        results.lock().expect("no poisoned workers")[i] =
                            Some((Ok(point), 0.0, None));
                        continue;
                    }
                    let oracle = PointOracle {
                        baseline,
                        recorder,
                        counters,
                        tel,
                        point: i,
                        objective: config.solver.objective,
                    };
                    // Mint this point's budget at claim time and hand it
                    // to the solver through a per-point config clone; the
                    // unbudgeted path reuses the shared config untouched.
                    let point_budget = budgeter.map(SweepBudgeter::point_budget);
                    let budgeted_config;
                    let point_config = match &point_budget {
                        Some(budget) => {
                            let mut c = config.clone();
                            c.solver.budget = budget.clone();
                            budgeted_config = c;
                            &budgeted_config
                        }
                        None => config,
                    };
                    let t0 = Instant::now();
                    let outcome = evaluate_soc_cached(
                        workload,
                        &socs[i],
                        constraints,
                        model,
                        point_config,
                        cache,
                        &oracle,
                    );
                    let seconds = t0.elapsed().as_secs_f64();
                    let (point, solve_truncated, cached) = match outcome {
                        Ok((p, t, c)) => (Ok(p), t, c),
                        Err(e) => (Err(e), None, false),
                    };
                    // The solver reports node-budget truncation (the
                    // sticky flag stays clean there by design — phase
                    // allocations never trip it); the sticky flag
                    // additionally catches deadline/cancel trips, which
                    // with a caller-supplied pooled budget (correctly)
                    // marks every point after the trip too.
                    let truncated = solve_truncated.or_else(|| match &point_budget {
                        Some(budget) => budget.exhausted(),
                        None => config.solver.budget.exhausted(),
                    });
                    if let Some(kind) = truncated {
                        tel.incr(Counter::SweepTruncatedPoints);
                        let spent = point_budget
                            .as_ref()
                            .unwrap_or(&config.solver.budget)
                            .nodes_spent();
                        tel.budget_expired(BudgetLayer::Sweep, kind, spent);
                    }
                    if let (Some(observer), Ok(p)) = (observer, &point) {
                        observer.point_done(&PointUpdate {
                            index: i,
                            point: p.clone(),
                            seconds,
                            truncated,
                            replayed: false,
                            cached,
                        });
                    }
                    results.lock().expect("no poisoned workers")[i] =
                        Some((point, seconds, truncated));
                }
            });
        }
    })
    .expect("worker threads do not panic");

    let cache_hits = cache.map_or(0, |c| c.hits.load(Ordering::Relaxed));
    tel.add(Counter::SweepCacheHits, cache_hits as u64);
    let mut point_seconds = Vec::with_capacity(socs.len());
    let mut point_truncations = Vec::with_capacity(socs.len());
    let points: Result<Vec<DesignPoint>, HilpError> = results
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| {
            let (point, seconds, truncated) = slot.expect("every index was evaluated");
            point_seconds.push(seconds);
            point_truncations.push(truncated);
            point
        })
        .collect();
    let points = points?;
    let delta_identity_points = counters.delta_identity.into_inner();
    let stats = SweepStats {
        solves: points.len() - cache_hits - delta_identity_points,
        cache_hits,
        threads_used: threads,
        parallelism_fallback,
        levels_solved: counters.levels_solved.into_inner(),
        bound_inherited_levels: counters.inherited_levels.into_inner(),
        bound_tightening_histogram: counters.tightening.map(AtomicUsize::into_inner),
        early_terminated_levels: counters.early_terminated.into_inner(),
        heuristic_jobs_total: counters.jobs_total.into_inner(),
        heuristic_jobs_executed: counters.jobs_executed.into_inner(),
        point_seconds,
        truncated_points: point_truncations.iter().flatten().count(),
        point_truncations,
        delta_identity_points,
    };
    Ok((points, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_workloads::WorkloadVariant;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy::fixed(10.0),
            solver: SolverConfig {
                heuristic_starts: 30,
                local_search_passes: 1,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 2,
            memoize: true,
            ..SweepConfig::default()
        }
    }

    fn refine_config() -> SweepConfig {
        SweepConfig {
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 2,
            },
            ..tiny_config()
        }
    }

    #[test]
    fn identity_replay_returns_the_recorded_sweep_verbatim() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(2),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let constraints = Constraints::paper_default();
        let config = refine_config();
        let (recorded, _, baseline) =
            evaluate_space_recorded(&w, &socs, &constraints, ModelKind::Hilp, &config).unwrap();
        assert_eq!(baseline.points(), socs.len());

        let replay_config = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let (replayed, stats) =
            evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &replay_config)
                .unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(stats.delta_identity_points, socs.len());
        assert_eq!(stats.solves, 0);
    }

    #[test]
    fn tightening_certificates_keep_the_edited_sweep_bit_identical() {
        // Record at the paper's power budget, then tighten it: every
        // level's feasible set shrinks, so the recorded bounds transfer
        // as certificates — and the certified sweep must report exactly
        // what a from-scratch sweep of the edited scenario reports.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(4).with_gpu(64)];
        let parent = Constraints::paper_default();
        let edited = parent.with_power(550.0);
        let config = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &parent, ModelKind::Hilp, &config).unwrap();

        let scratch = evaluate_space(&w, &socs, &edited, ModelKind::Hilp, &config).unwrap();
        let delta_config = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let (delta, stats) =
            evaluate_space_with_stats(&w, &socs, &edited, ModelKind::Hilp, &delta_config).unwrap();
        assert_eq!(delta, scratch);
        // The edit changed the instances, so nothing replays whole...
        assert_eq!(stats.delta_identity_points, 0);
        // ...but the tightening delta lets every recorded bound transfer.
        assert!(
            stats.bound_inherited_levels > 0,
            "no level accepted a certificate"
        );
    }

    #[test]
    fn loosening_edits_take_no_certificates_and_stay_correct() {
        // Raising the power budget grows the feasible set: the parent's
        // bounds are not bounds anymore and must all be rejected by the
        // delta classification, leaving a plain from-scratch sweep.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let parent = Constraints::paper_default().with_power(550.0);
        let edited = Constraints::paper_default();
        let config = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &parent, ModelKind::Hilp, &config).unwrap();

        let scratch = evaluate_space(&w, &socs, &edited, ModelKind::Hilp, &config).unwrap();
        let delta_config = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let (delta, stats) =
            evaluate_space_with_stats(&w, &socs, &edited, ModelKind::Hilp, &delta_config).unwrap();
        assert_eq!(delta, scratch);
        assert_eq!(stats.delta_identity_points, 0);
        assert_eq!(stats.bound_inherited_levels, 0);
    }

    #[test]
    fn drifted_configurations_make_the_baseline_inert() {
        // A baseline recorded under one solver configuration must not
        // replay (or certify) under another: the config key gates both
        // tiers.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let constraints = Constraints::paper_default();
        let config = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &constraints, ModelKind::Hilp, &config).unwrap();

        let drifted = SweepConfig {
            solver: SolverConfig {
                heuristic_starts: 31,
                ..config.solver.clone()
            },
            baseline: Some(Arc::new(baseline)),
            ..config
        };
        let scratch_config = SweepConfig {
            baseline: None,
            ..drifted.clone()
        };
        let scratch =
            evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &scratch_config).unwrap();
        let (delta, stats) =
            evaluate_space_with_stats(&w, &socs, &constraints, ModelKind::Hilp, &drifted).unwrap();
        assert_eq!(delta, scratch);
        assert_eq!(stats.delta_identity_points, 0);
    }

    #[test]
    fn streamed_sweep_reports_every_point_and_changes_nothing() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2).with_gpu(16), // memo twin: must stream as cached
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1; // deterministic cache-hit attribution
        let (plain, _) = evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();

        struct Collect(Mutex<Vec<PointUpdate>>);
        impl SweepObserver for Collect {
            fn point_done(&self, update: &PointUpdate) {
                self.0.lock().unwrap().push(update.clone());
            }
        }
        let collect = Collect(Mutex::new(Vec::new()));
        let (streamed, _) =
            evaluate_space_streamed(&w, &socs, &c, ModelKind::Hilp, &cfg, &collect).unwrap();
        assert_eq!(streamed, plain, "observing changed results");

        let mut updates = collect.0.into_inner().unwrap();
        updates.sort_by_key(|u| u.index);
        assert_eq!(updates.len(), socs.len(), "one update per point");
        for (u, p) in updates.iter().zip(&streamed) {
            assert_eq!(&u.point, p, "update {} disagrees with result", u.index);
            assert!(u.truncated.is_none());
            assert!(!u.replayed);
        }
        assert!(updates[2].cached, "the twin must stream as a cache hit");
        assert!(!updates[1].cached);
    }

    #[test]
    fn untripped_cancel_token_keeps_memoization_and_replay_alive() {
        // The serving path: every job carries a disconnect cancel token
        // that usually never trips. That alone must not disable the memo
        // cache, baseline recording, or identity replay.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(1),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = refine_config();
        cfg.threads = 1;
        cfg.budgets.cancel = Some(CancelToken::new());
        let (recorded, stats, baseline) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(stats.truncated_points, 0);
        assert_eq!(baseline.points(), socs.len(), "cancel-only must record");

        let replay_cfg = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            budgets: SweepBudgets {
                cancel: Some(CancelToken::new()),
                ..SweepBudgets::default()
            },
            ..cfg.clone()
        };
        let (replayed, replay_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &replay_cfg).unwrap();
        assert_eq!(replayed, recorded);
        assert_eq!(replay_stats.delta_identity_points, socs.len());
        assert_eq!(replay_stats.solves, 0);

        // Without a baseline the memo cache still dedupes the twin.
        let (memo, memo_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(memo, recorded);
        assert_eq!(memo_stats.cache_hits, 1, "twin must hit under cancel-only");
    }

    #[test]
    fn tripped_cancel_token_discards_the_recording_and_caches_nothing() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let token = CancelToken::new();
        token.cancel();
        cfg.budgets.cancel = Some(token);
        let (points, stats, baseline) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        assert_eq!(stats.truncated_points, socs.len());
        assert_eq!(baseline.points(), 0, "truncated recordings must be inert");
        // Truncated results must never reach the cache: the twin solves
        // (degraded) rather than hitting a poisoned entry.
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn node_budgets_still_disable_replay_even_with_a_cancel_token() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let cfg = refine_config();
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        let mut replay_cfg = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..cfg
        };
        replay_cfg.budgets.cancel = Some(CancelToken::new());
        replay_cfg.budgets.per_point_nodes = Some(1_000_000);
        let (_, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &replay_cfg).unwrap();
        assert_eq!(
            stats.delta_identity_points, 0,
            "node budgets are not replay-safe"
        );
    }

    #[test]
    fn sweep_preserves_order_and_labels() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let points = evaluate_space(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::Hilp,
            &tiny_config(),
        )
        .unwrap();
        assert_eq!(points.len(), 3);
        for (p, s) in points.iter().zip(&socs) {
            assert_eq!(p.label, s.label());
            assert!((p.area_mm2 - s.area_mm2()).abs() < 1e-9);
            assert!(p.energy_joules > 0.0, "{}: no energy reported", p.label);
        }
        // Bigger accelerators help.
        assert!(points[2].speedup > points[0].speedup);
    }

    #[test]
    fn every_model_reports_positive_energy() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        for model in [ModelKind::Hilp, ModelKind::MultiAmdahl, ModelKind::Gables] {
            let p = evaluate_soc(&w, &soc, &c, model, &cfg).unwrap();
            assert!(p.energy_joules > 0.0, "{model:?} reported no energy");
        }
    }

    #[test]
    fn pareto_sweep_is_bit_identical_across_thread_counts() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let serial = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        for threads in [2, 8] {
            cfg.threads = threads;
            let parallel = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
            assert_eq!(serial, parallel, "threads={threads} changed fronts");
        }
        for pp in &serial {
            assert!(!pp.front.is_empty(), "{}: empty front", pp.point.label);
            for w in pp.front.windows(2) {
                assert!(w[0].makespan_seconds < w[1].makespan_seconds);
                assert!(w[0].energy_joules > w[1].energy_joules);
            }
        }
    }

    #[test]
    fn pareto_sweep_agrees_with_the_scalar_sweep() {
        // Rung 0 of every ladder is the unconstrained solve, so each
        // Pareto point's scalars — and its fastest trade-off — must match
        // the plain sweep bit for bit.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        let scalar = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        let pareto = evaluate_space_pareto(&w, &socs, &c, &cfg).unwrap();
        assert_eq!(pareto.len(), scalar.len());
        for (pp, sp) in pareto.iter().zip(&scalar) {
            assert_eq!(&pp.point, sp);
            let fastest = &pp.front[0];
            assert_eq!(fastest.makespan_seconds, sp.makespan_seconds);
            assert!(fastest.energy_joules <= sp.energy_joules + 1e-9);
        }
        // The memo twins must agree exactly (same trajectory key).
        assert_eq!(pareto[0], pareto[1]);
    }

    #[test]
    fn capped_objective_sweeps_and_keys_stay_sound() {
        // A sweep under an energy-capped objective reports schedules
        // within the cap; its config key differs from the uncapped
        // sweep's, so baselines recorded under one never identity-replay
        // under the other.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let plain_cfg = tiny_config();
        let plain = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &plain_cfg).unwrap();

        let mut capped_cfg = tiny_config();
        capped_cfg.solver.objective =
            Objective::MakespanUnderEnergyCap(plain[0].energy_joules * 2.0);
        assert_ne!(
            sweep_config_key(&plain_cfg),
            sweep_config_key(&capped_cfg),
            "objective must be part of the config key"
        );
        // A cap above the unconstrained optimum's energy changes nothing
        // about the solve itself... except the cap here is in watt-steps
        // at each level's tick, so just assert feasibility and a makespan
        // no better than unconstrained.
        let capped = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &capped_cfg).unwrap();
        assert!(capped[0].makespan_seconds >= plain[0].makespan_seconds - 1e-9);
    }

    #[test]
    fn certificates_never_cross_incompatible_objectives() {
        // Makespan-recorded bounds transfer to a tighter capped objective
        // (feasible set shrinks); capped-recorded bounds must never
        // transfer back to the uncapped objective.
        assert!(bounds_transfer_between(
            Objective::Makespan,
            Objective::MakespanUnderEnergyCap(10.0)
        ));
        assert!(bounds_transfer_between(
            Objective::MakespanUnderEnergyCap(10.0),
            Objective::MakespanUnderEnergyCap(5.0)
        ));
        assert!(!bounds_transfer_between(
            Objective::MakespanUnderEnergyCap(10.0),
            Objective::Makespan
        ));
        assert!(!bounds_transfer_between(
            Objective::MakespanUnderEnergyCap(5.0),
            Objective::MakespanUnderEnergyCap(10.0)
        ));
        assert!(!bounds_transfer_between(
            Objective::Energy,
            Objective::Energy
        ));
        assert!(!bounds_transfer_between(
            Objective::Edp,
            Objective::Makespan
        ));

        // End to end: a baseline recorded under a capped objective stays
        // fully inert — no identity replays, no certificates — when the
        // consuming sweep solves uncapped, and the results still match a
        // from-scratch sweep exactly.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut record_cfg = refine_config();
        record_cfg.solver.objective = Objective::MakespanUnderEnergyCap(f64::MAX);
        let (_, _, baseline) =
            evaluate_space_recorded(&w, &socs, &c, ModelKind::Hilp, &record_cfg).unwrap();

        let uncapped_cfg = refine_config();
        let scratch = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &uncapped_cfg).unwrap();
        let delta_cfg = SweepConfig {
            baseline: Some(Arc::new(baseline)),
            ..uncapped_cfg
        };
        let (delta, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &delta_cfg).unwrap();
        assert_eq!(delta, scratch);
        assert_eq!(stats.delta_identity_points, 0);
        assert_eq!(stats.bound_inherited_levels, 0);
    }

    #[test]
    fn exact_sweep_upper_bounds_the_grid_sweep_pointwise() {
        // The exact policy always reaches the finest tick, so every
        // per-point makespan must be <= the grid-refinement result (which
        // may stop at a coarser step and keep its rounding inflation).
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2), SocSpec::new(2).with_gpu(16)];
        let constraints = Constraints::paper_default();
        let grid_config = SweepConfig {
            policy: TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 2,
            },
            ..tiny_config()
        };
        let exact_config = SweepConfig {
            evaluate: EvaluatePolicy::exact(),
            ..grid_config.clone()
        };
        let grid = evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &grid_config).unwrap();
        let exact =
            evaluate_space(&w, &socs, &constraints, ModelKind::Hilp, &exact_config).unwrap();
        for (g, e) in grid.iter().zip(&exact) {
            assert!(
                e.makespan_seconds <= g.makespan_seconds + 1e-9,
                "{}: exact {} > grid {}",
                g.label,
                e.makespan_seconds,
                g.makespan_seconds
            );
        }
    }

    #[test]
    fn exact_sweep_is_deterministic_with_memoization() {
        // Exercises the memo key under the exact policy: identical design
        // points share one cache entry, and repeated sweeps agree
        // bit-for-bit.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(2).with_gpu(16), SocSpec::new(2).with_gpu(16)];
        let config = SweepConfig {
            evaluate: EvaluatePolicy::exact(),
            ..tiny_config()
        };
        let run = || {
            evaluate_space(
                &w,
                &socs,
                &Constraints::paper_default(),
                ModelKind::Hilp,
                &config,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a[0].makespan_seconds, a[1].makespan_seconds);
    }

    #[test]
    fn models_disagree_in_the_documented_direction() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let c = Constraints::unconstrained();
        let cfg = tiny_config();
        let ma = evaluate_soc(&w, &soc, &c, ModelKind::MultiAmdahl, &cfg).unwrap();
        let hilp = evaluate_soc(&w, &soc, &c, ModelKind::Hilp, &cfg).unwrap();
        let gables = evaluate_soc(&w, &soc, &c, ModelKind::Gables, &cfg).unwrap();
        assert!(ma.speedup <= hilp.speedup * 1.05);
        assert!(hilp.speedup <= gables.speedup * 1.05);
        assert_eq!(ma.avg_wlp, 1.0);
    }

    #[test]
    fn memoization_dedupes_identical_effective_instances() {
        // The same SoC listed three times must solve once; the cached
        // points must be indistinguishable from fresh evaluations.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let socs = vec![soc.clone(), SocSpec::new(1), soc.clone(), soc];
        let c = Constraints::unconstrained();
        for model in [ModelKind::Hilp, ModelKind::Gables] {
            let mut cfg = tiny_config();
            cfg.memoize = true;
            // One worker, so hit counts are deterministic (concurrent
            // workers may race on a key and legitimately both solve it).
            cfg.threads = 1;
            let (memo, stats) = evaluate_space_with_stats(&w, &socs, &c, model, &cfg).unwrap();
            cfg.memoize = false;
            let (cold, cold_stats) = evaluate_space_with_stats(&w, &socs, &c, model, &cfg).unwrap();
            assert_eq!(memo, cold, "memoization changed {model:?} results");
            assert_eq!(stats.cache_hits, 2, "{model:?} duplicates must hit");
            assert_eq!(stats.solves, 2);
            assert_eq!(cold_stats.cache_hits, 0);
        }
    }

    #[test]
    fn multi_amdahl_sweeps_skip_the_cache() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(1)];
        let (_, stats) = evaluate_space_with_stats(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::MultiAmdahl,
            &tiny_config(),
        )
        .unwrap();
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.solves, 2);
    }

    #[test]
    fn single_threaded_sweep_matches_parallel() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1).with_gpu(16), SocSpec::new(2)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.threads = 1;
        let serial = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        cfg.threads = 4;
        let parallel = evaluate_space(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn per_point_node_budgets_truncate_but_every_point_reports() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.per_point_nodes = Some(2);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len(), "truncation must not drop points");
        for p in &points {
            assert!(p.speedup > 0.0, "degraded point still has a schedule");
        }
        assert!(stats.truncated_points > 0, "2 nodes cannot finish a solve");
        assert_eq!(
            stats.truncated_points,
            stats.point_truncations.iter().flatten().count()
        );
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Nodes));
        // Budgets disable memoization: a truncated result depends on the
        // budget, so instance keys are no longer sound.
        assert_eq!(stats.cache_hits, 0);
    }

    #[test]
    fn per_point_node_budgets_are_bit_identical_across_thread_counts() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2).with_gpu(16),
            SocSpec::new(2),
            SocSpec::new(4).with_gpu(64),
        ];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.per_point_nodes = Some(20);
        cfg.threads = 1;
        let (serial, serial_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        for threads in [2, 4] {
            cfg.threads = threads;
            let (parallel, parallel_stats) =
                evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
            assert_eq!(serial, parallel, "threads={threads} changed results");
            assert_eq!(
                serial_stats.point_truncations, parallel_stats.point_truncations,
                "threads={threads} changed truncations"
            );
        }
    }

    #[test]
    fn generous_per_point_budget_matches_the_unbudgeted_sweep() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.memoize = false; // compare pure solves on both sides
        let (plain, plain_stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        cfg.budgets.per_point_nodes = Some(u64::MAX / 2);
        let (budgeted, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(plain, budgeted, "a budget that never trips must be a no-op");
        assert_eq!(stats.truncated_points, 0);
        assert_eq!(plain_stats.truncated_points, 0);
        assert!(stats.point_truncations.iter().all(Option::is_none));
    }

    #[test]
    fn cancelled_sweep_still_returns_every_point() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2), SocSpec::new(4)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        let token = CancelToken::new();
        token.cancel(); // cancelled before the sweep even starts
        cfg.budgets.cancel = Some(token);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        for p in &points {
            assert!(p.speedup > 0.0, "base pass still yields a schedule");
        }
        assert_eq!(stats.truncated_points, socs.len());
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Cancelled));
    }

    #[test]
    fn expired_sweep_deadline_degrades_every_point_but_completes() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![SocSpec::new(1), SocSpec::new(2).with_gpu(16)];
        let c = Constraints::unconstrained();
        let mut cfg = tiny_config();
        cfg.budgets.sweep_deadline = Some(Duration::ZERO);
        let (points, stats) =
            evaluate_space_with_stats(&w, &socs, &c, ModelKind::Hilp, &cfg).unwrap();
        assert_eq!(points.len(), socs.len());
        assert_eq!(stats.truncated_points, socs.len());
        assert!(stats
            .point_truncations
            .iter()
            .flatten()
            .all(|&k| k == BudgetKind::Deadline));
    }
}

/// Renders design points as CSV (header + one row per point), for external
/// analysis tooling.
#[must_use]
pub fn to_csv(points: &[DesignPoint]) -> String {
    let mut out = String::from(
        "label,cpu_cores,gpu_sms,num_dsas,dsa_pes,area_mm2,speedup,makespan_seconds,energy_joules,avg_wlp,gap,gpu_area_fraction\n",
    );
    for p in points {
        let pes = p.soc.dsas.first().map_or(0, |d| d.pes);
        out.push_str(&format!(
            "{},{},{},{},{},{:.3},{:.4},{:.4},{:.4},{:.4},{:.6},{}\n",
            p.label.replace(',', ";"),
            p.soc.cpu_cores,
            p.soc.gpu_sms.unwrap_or(0),
            p.soc.dsas.len(),
            pes,
            p.area_mm2,
            p.speedup,
            p.makespan_seconds,
            p.energy_joules,
            p.avg_wlp,
            p.gap,
            p.gpu_area_fraction
                .map_or_else(|| "".to_string(), |f| format!("{f:.4}")),
        ));
    }
    out
}

/// Writes design points as CSV to a file.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_csv(points: &[DesignPoint], path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, to_csv(points))
}

#[cfg(test)]
mod csv_tests {
    use super::*;
    use hilp_core::TimeStepPolicy;
    use hilp_soc::DsaSpec;
    use hilp_workloads::WorkloadVariant;

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let socs = vec![
            SocSpec::new(1),
            SocSpec::new(2)
                .with_gpu(16)
                .with_dsa(DsaSpec::new(4, "LUD")),
        ];
        let config = SweepConfig {
            policy: TimeStepPolicy::fixed(10.0),
            solver: SolverConfig {
                heuristic_starts: 20,
                local_search_passes: 0,
                exact_node_budget: 0,
                ..SolverConfig::default()
            },
            threads: 1,
            memoize: true,
            ..SweepConfig::default()
        };
        let points = evaluate_space(
            &w,
            &socs,
            &Constraints::unconstrained(),
            ModelKind::Hilp,
            &config,
        )
        .unwrap();
        let csv = to_csv(&points);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,cpu_cores"));
        // Labels contain commas in the (c,g,d) notation; they must be
        // sanitized so the column count stays fixed.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 12, "bad row: {line}");
        }
        assert!(lines[2].contains("16"));
    }
}
