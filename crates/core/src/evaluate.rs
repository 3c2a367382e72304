//! The HILP evaluator: adaptive time-step refinement around the scheduler.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use hilp_sched::{
    solve_pareto, solve_with_hints, BudgetKind, Instance, InstanceDelta, ModeId, Objective,
    Schedule, SolveHints, SolveTelemetry, SolverConfig, TaskId, TimetableKind,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::{BudgetLayer, Counter};
use hilp_workloads::Workload;

use crate::encode::{encode, EncodeMaps};
use crate::error::HilpError;
use crate::wlp::average_wlp;

/// The paper's adaptive time-step policy (Section III-D): start coarse and
/// refine by 5x while the workload completes in fewer steps than the
/// target, so every result has enough temporal resolution without blowing
/// up the solution space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeStepPolicy {
    /// Initial time-step size in seconds.
    pub initial_seconds: f64,
    /// Refine while the makespan is below this many steps.
    pub target_steps: u32,
    /// Refinement factor per round (the paper uses 5x).
    pub refine_factor: f64,
    /// Maximum number of refinement rounds.
    pub max_refinements: u32,
}

impl TimeStepPolicy {
    /// The validation-experiment policy: 2 s steps refined towards a
    /// 200-step makespan.
    #[must_use]
    pub fn validation() -> Self {
        TimeStepPolicy {
            initial_seconds: 2.0,
            target_steps: 200,
            refine_factor: 5.0,
            max_refinements: 5,
        }
    }

    /// The design-space-sweep policy: 10 s steps refined towards a 40-step
    /// makespan (coarser, to keep large sweeps tractable).
    #[must_use]
    pub fn sweep() -> Self {
        TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 4,
        }
    }

    /// A fixed time step with no refinement.
    #[must_use]
    pub fn fixed(seconds: f64) -> Self {
        TimeStepPolicy {
            initial_seconds: seconds,
            target_steps: 0,
            refine_factor: 5.0,
            max_refinements: 0,
        }
    }
}

impl TimeStepPolicy {
    /// The finest time step the policy can reach: the initial step divided
    /// by `refine_factor` once per allowed refinement. This is the
    /// resolution the grid-refinement loop converges to when it never
    /// stops early, and the resolution [`EvaluatePolicy::Exact`] solves at
    /// directly.
    #[must_use]
    pub fn exact_tick_seconds(&self) -> f64 {
        self.initial_seconds / self.refine_factor.powi(self.max_refinements as i32)
    }
}

impl Default for TimeStepPolicy {
    fn default() -> Self {
        TimeStepPolicy::validation()
    }
}

/// How [`Hilp::evaluate`] turns the time-step policy into solves.
///
/// The paper's grid-refinement loop exists because solving on a coarse
/// grid is cheap and solving on a fine grid with a *horizon-proportional*
/// timetable is not. The event backend ([`TimetableKind::Event`]) removes
/// that trade-off — it stores only breakpoints, so its cost is independent
/// of the horizon — and the exact policy can afford a solve at the finest
/// resolution, keeping the coarse cascade only as a warm-start pilot whose
/// result it is guaranteed to match or beat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluatePolicy {
    /// The paper's Section III-D loop: start at
    /// [`TimeStepPolicy::initial_seconds`], re-encode and re-solve at ever
    /// finer steps until the makespan reaches `target_steps` (or
    /// `max_refinements` is exhausted). Up to `max_refinements + 1` solves
    /// per evaluation; results carry a discretization gap whenever the
    /// loop stops before the finest step.
    #[default]
    GridRefinement,
    /// Solve at [`TimeStepPolicy::exact_tick_seconds`] on the event
    /// backend: no early stop at `target_steps` and no residual
    /// coarse-grid rounding. A pilot pass first replays the grid cascade
    /// (same ticks, same warm-order chain, same early stop), and its final
    /// schedule is *lifted* onto the finest-tick instance and handed to
    /// the solver as a verified incumbent — so the exact result is
    /// guaranteed to be at most the grid policy's makespan in seconds on
    /// the same point, while the finest-tick solve is free to improve on
    /// it.
    Exact,
}

impl EvaluatePolicy {
    /// The single-solve continuous-time policy.
    #[must_use]
    pub fn exact() -> Self {
        EvaluatePolicy::Exact
    }

    /// The paper's adaptive grid-refinement loop (the default).
    #[must_use]
    pub fn grid() -> Self {
        EvaluatePolicy::GridRefinement
    }

    /// Whether this policy resolves the result at the finest tick.
    #[must_use]
    pub fn is_exact(self) -> bool {
        matches!(self, EvaluatePolicy::Exact)
    }
}

/// The result of evaluating one SoC on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Overall workload execution time in seconds (makespan x time step).
    pub makespan_seconds: f64,
    /// Makespan in time steps at the final resolution.
    pub makespan_steps: u32,
    /// The final time-step resolution (seconds).
    pub time_step_seconds: f64,
    /// Total energy of the schedule in joules: the solver's watt-step
    /// energy scaled by the final time step.
    pub energy_joules: f64,
    /// Speedup over fully sequential execution on a single CPU core.
    pub speedup: f64,
    /// Average Workload-Level Parallelism of the schedule.
    pub avg_wlp: f64,
    /// Proven lower bound on the makespan, in seconds.
    pub lower_bound_seconds: f64,
    /// Relative optimality gap of the schedule.
    pub gap: f64,
    /// Whether the schedule was proven optimal.
    pub proved_optimal: bool,
    /// Whether the schedule meets the paper's 10% near-optimality bar.
    pub near_optimal: bool,
    /// Number of time-step refinement rounds performed. Always 0 under
    /// [`EvaluatePolicy::Exact`]: its pilot cascade only seeds the
    /// finest-tick solve, which is where the result comes from.
    pub refinements: u32,
    /// The makespan solved directly at the policy's finest resolution on
    /// the horizon-independent event backend, in seconds — set only under
    /// [`EvaluatePolicy::Exact`] (where it equals `makespan_seconds`).
    /// Grid-refinement results can stop at a coarser step and then carry a
    /// discretization gap of up to one coarse step per critical-path task;
    /// an exact result has no such residual, so it is a valid (and usually
    /// strictly tighter) upper bound on every grid result for the same
    /// point.
    pub exact_makespan_seconds: Option<f64>,
    /// Which [`SolverConfig::budget`] constraint cut the evaluation short,
    /// when one did: either a solve was truncated mid-level, or the budget
    /// expired at a refinement-level boundary (the result then comes from
    /// a coarser time step than the policy wanted). The schedule and bound
    /// remain valid either way — graceful degradation, not an error.
    pub truncated: Option<BudgetKind>,
    /// The schedule itself.
    pub schedule: Schedule,
    /// The instance the schedule refers to (for rendering/inspection).
    pub instance: Instance,
    /// Mapping from workload coordinates to instance task ids.
    pub maps: EncodeMaps,
}

impl Evaluation {
    /// Renders the schedule as a Gantt listing.
    #[must_use]
    pub fn render_schedule(&self) -> String {
        self.schedule.render(&self.instance)
    }
}

/// What one refinement level of [`Hilp::evaluate_with_observer`] solved:
/// the discretization, the result in steps, and the solver's work
/// attribution. Borrowed fields refer to the level's encoded instance.
#[derive(Debug)]
pub struct LevelReport<'a> {
    /// Refinement round index (0 = the initial, coarsest step).
    pub level: u32,
    /// Time-step size of this level, in seconds.
    pub time_step_seconds: f64,
    /// Makespan of the level's best schedule, in steps.
    pub makespan_steps: u32,
    /// The solver's *reported* lower bound for the level, in steps (the
    /// instance's own combinatorial bound — never the external one).
    pub lower_bound_steps: u32,
    /// The external bound that was injected for this level, if any.
    pub external_bound_steps: Option<u32>,
    /// Which budget constraint truncated the level's solve, if any.
    pub truncated: Option<BudgetKind>,
    /// Work attribution for the level's solve.
    pub telemetry: SolveTelemetry,
    /// The level's best schedule.
    pub schedule: &'a Schedule,
    /// The instance the schedule refers to.
    pub instance: &'a Instance,
}

/// Hook into the adaptive-refinement loop of [`Hilp::evaluate_with_observer`],
/// letting a coordinator (e.g. a DSE sweep armed with a recorded baseline)
/// inject proven lower bounds per level and harvest what each level proved.
///
/// Injected bounds must be sound — true lower bounds on the *optimal*
/// makespan of this evaluator's instance at that exact time step. Sound
/// bounds never change the evaluation result (see
/// [`SolveHints::external_lower_bound`]); they only let the solver stop
/// earlier.
pub trait RefinementObserver {
    /// A proven external lower bound (in steps) for the given level, or
    /// `None` when nothing is known. `instance` is the level's encoded
    /// instance, so observers can fingerprint-match or diff it against
    /// other solves before vouching for a bound.
    fn external_lower_bound(
        &self,
        level: u32,
        time_step_seconds: f64,
        instance: &Instance,
    ) -> Option<u32> {
        let _ = (level, time_step_seconds, instance);
        None
    }

    /// Called after each level is solved, including the final one.
    fn level_solved(&self, report: &LevelReport<'_>) {
        let _ = report;
    }
}

/// The no-op observer behind plain [`Hilp::evaluate`].
struct NullObserver;

impl RefinementObserver for NullObserver {}

/// One solved level of a [`RecordedEvaluation`]: enough to recognize the
/// same sub-problem later (fingerprint at a tick) and to certify it (a
/// bound proven for exactly that instance).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedLevel {
    /// Refinement round index (0 = coarsest).
    pub level: u32,
    /// Time-step size of the level, in seconds.
    pub time_step_seconds: f64,
    /// [`Instance::fingerprint`] of the level's encoded instance.
    pub fingerprint: u64,
    /// The tightest bound proven *for that instance* during the solve (the
    /// solver's own bound, raised by any sound external bound it was
    /// handed), in steps. Zero carries no information.
    pub bound_steps: u32,
}

/// An [`Evaluation`] plus the per-level fingerprints and proven bounds
/// that [`Hilp::evaluate_delta`] needs to answer follow-up what-if queries
/// incrementally. Produced by [`Hilp::evaluate_recorded`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvaluation {
    /// The evaluation result itself.
    pub evaluation: Evaluation,
    /// The solved levels, in solve order (for [`EvaluatePolicy::Exact`]
    /// this is the pilot cascade followed by the finest-tick solve).
    pub levels: Vec<RecordedLevel>,
    /// Hash of every result-relevant policy/solver knob at record time;
    /// the identity tier of [`Hilp::evaluate_delta`] only replays a cached
    /// result when the keys match.
    config_key: u64,
}

/// Which tier of [`Hilp::evaluate_delta`] answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhatIfPath {
    /// Every recorded level re-encoded to an identical fingerprint under
    /// an identical configuration: the recorded evaluation was returned
    /// verbatim, without solving anything.
    Identity,
    /// The evaluation re-ran, with this many levels handed a proven parent
    /// bound as a transparent termination certificate.
    Certified {
        /// Number of levels that received a certificate.
        levels: u32,
    },
    /// A full re-evaluation with no reusable work.
    Scratch,
}

/// The recording/certifying observer behind [`Hilp::evaluate_recorded`]
/// and [`Hilp::evaluate_delta`]: records every solved level, and (when
/// given a parent baseline) vouches for the parent's proven bounds on
/// levels whose delta provably cannot loosen them.
struct DeltaObserver<'a> {
    parent: Option<ParentLevels<'a>>,
    levels: Mutex<Vec<RecordedLevel>>,
    certified: AtomicU32,
}

/// The parent side of a delta evaluation: what to re-encode per level and
/// the recorded levels whose bounds may transfer.
struct ParentLevels<'a> {
    workload: &'a Workload,
    soc: &'a SocSpec,
    constraints: &'a Constraints,
    levels: &'a [RecordedLevel],
}

impl<'a> DeltaObserver<'a> {
    fn new(parent: Option<ParentLevels<'a>>) -> Self {
        DeltaObserver {
            parent,
            levels: Mutex::new(Vec::new()),
            certified: AtomicU32::new(0),
        }
    }

    fn certified(&self) -> u32 {
        self.certified.load(Ordering::Relaxed)
    }

    fn into_levels(self) -> Vec<RecordedLevel> {
        self.levels.into_inner().unwrap_or_default()
    }
}

/// Relative tick equality: ticks come from identical policy arithmetic,
/// so anything beyond float noise is a genuine mismatch.
fn same_tick(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

impl RefinementObserver for DeltaObserver<'_> {
    fn external_lower_bound(
        &self,
        level: u32,
        time_step_seconds: f64,
        instance: &Instance,
    ) -> Option<u32> {
        let parent = self.parent.as_ref()?;
        let rec = parent
            .levels
            .iter()
            .find(|l| l.level == level && same_tick(l.time_step_seconds, time_step_seconds))?;
        if rec.bound_steps == 0 {
            return None;
        }
        // Re-derive the parent's instance at this exact tick and check it
        // against the recorded fingerprint: the recorded bound is proven
        // for precisely that instance, nothing else.
        let (parent_instance, _) = encode(
            parent.workload,
            parent.soc,
            parent.constraints,
            time_step_seconds,
        )
        .ok()?;
        if parent_instance.fingerprint() != rec.fingerprint {
            return None;
        }
        // The bound transfers iff the child's feasible set is contained in
        // the parent's (identity or pure tightening).
        let delta = InstanceDelta::between(&parent_instance, instance);
        if delta.bounds_transfer() {
            self.certified.fetch_add(1, Ordering::Relaxed);
            Some(rec.bound_steps)
        } else {
            None
        }
    }

    fn level_solved(&self, report: &LevelReport<'_>) {
        let bound = report
            .lower_bound_steps
            .max(report.external_bound_steps.unwrap_or(0));
        if let Ok(mut levels) = self.levels.lock() {
            levels.push(RecordedLevel {
                level: report.level,
                time_step_seconds: report.time_step_seconds,
                fingerprint: report.instance.fingerprint(),
                bound_steps: bound,
            });
        }
    }
}

/// The HILP evaluator: workload + SoC + constraints + solver settings.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Hilp {
    workload: Workload,
    soc: SocSpec,
    constraints: Constraints,
    solver: SolverConfig,
    policy: TimeStepPolicy,
    evaluate_policy: EvaluatePolicy,
    energy_cap_joules: Option<f64>,
}

impl Hilp {
    /// Creates an evaluator with no constraints, the default solver
    /// configuration, and the validation time-step policy.
    #[must_use]
    pub fn new(workload: Workload, soc: SocSpec) -> Self {
        Hilp {
            workload,
            soc,
            constraints: Constraints::unconstrained(),
            solver: SolverConfig::default(),
            policy: TimeStepPolicy::validation(),
            evaluate_policy: EvaluatePolicy::default(),
            energy_cap_joules: None,
        }
    }

    /// Sets the power/bandwidth constraints, builder style.
    #[must_use]
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the solver configuration, builder style.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Sets the time-step policy, builder style.
    #[must_use]
    pub fn with_policy(mut self, policy: TimeStepPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the evaluate policy (grid refinement vs. single exact solve),
    /// builder style.
    #[must_use]
    pub fn with_evaluate_policy(mut self, evaluate_policy: EvaluatePolicy) -> Self {
        self.evaluate_policy = evaluate_policy;
        self
    }

    /// Sets the solver objective (makespan, energy, EDP, or makespan under
    /// an energy budget in *watt-steps*), builder style. For budgets in
    /// physical units prefer [`Hilp::with_energy_cap_joules`], which
    /// converts per refinement level.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.solver.objective = objective;
        self
    }

    /// Caps the workload's total energy in joules, builder style. The cap
    /// is converted to the solver's watt-step unit at every refinement
    /// level (`cap / tick_seconds`), so one physical budget constrains all
    /// discretizations consistently. Composes with a
    /// [`Objective::MakespanUnderEnergyCap`] objective by taking the
    /// tighter of the two budgets; the energy and EDP objectives already
    /// sweep energy and ignore it.
    #[must_use]
    pub fn with_energy_cap_joules(mut self, joules: f64) -> Self {
        self.energy_cap_joules = Some(joules);
        self
    }

    /// The solver configuration in force at one refinement level: the
    /// joule budget, if any, lands here as a per-tick watt-step cap.
    fn level_solver(&self, time_step_seconds: f64) -> SolverConfig {
        let mut solver = self.solver.clone();
        if let Some(joules) = self.energy_cap_joules {
            let cap = joules / time_step_seconds;
            solver.objective = match solver.objective {
                Objective::Makespan => Objective::MakespanUnderEnergyCap(cap),
                Objective::MakespanUnderEnergyCap(existing) => {
                    Objective::MakespanUnderEnergyCap(existing.min(cap))
                }
                other => other,
            };
        }
        solver
    }

    /// The workload under evaluation.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The SoC under evaluation.
    #[must_use]
    pub fn soc(&self) -> &SocSpec {
        &self.soc
    }

    /// Evaluates the SoC on the workload: encodes, solves, and adaptively
    /// refines the time step per the policy.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (incompatible phases, invalid time step)
    /// and scheduling failures.
    pub fn evaluate(&self) -> Result<Evaluation, HilpError> {
        self.evaluate_with_observer(&NullObserver)
    }

    /// [`Hilp::evaluate`] with a [`RefinementObserver`] wired into every
    /// refinement level. With sound injected bounds the returned
    /// [`Evaluation`] is identical to [`Hilp::evaluate`]'s; the observer
    /// only redistributes work and harvests per-level results.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors (incompatible phases, invalid time step)
    /// and scheduling failures.
    pub fn evaluate_with_observer(
        &self,
        observer: &dyn RefinementObserver,
    ) -> Result<Evaluation, HilpError> {
        if self.evaluate_policy.is_exact() {
            return self.evaluate_exact(observer);
        }
        let mut time_step = self.policy.initial_seconds;
        let mut refinements = 0;
        // Warm start across refinement rounds: the incumbent schedule of
        // the coarser discretization seeds the finer level's multi-start
        // with its dispatch order (start times scale with the time step,
        // but their relative order — all the heuristic needs — carries
        // over). Mode ids do NOT transfer: each discretization drops
        // cap-infeasible and dominated modes differently.
        let mut warm_order: Option<Vec<f64>> = None;
        let tel = &self.solver.telemetry;
        let _eval_span = tel.span("core.evaluate");
        loop {
            let _level_span = tel.span("core.level");
            let (instance, maps) = {
                let _encode_span = tel.span("core.encode");
                encode(&self.workload, &self.soc, &self.constraints, time_step)?
            };
            let external = observer.external_lower_bound(refinements, time_step, &instance);
            let level_solver = self.level_solver(time_step);
            let (outcome, telemetry) = solve_with_hints(
                &instance,
                &level_solver,
                &SolveHints {
                    warm_priority: warm_order.as_deref(),
                    external_lower_bound: external,
                    ..SolveHints::default()
                },
            )?;
            tel.incr(Counter::LevelsSolved);
            if external.is_some() {
                tel.incr(Counter::InheritedBoundLevels);
            }
            observer.level_solved(&LevelReport {
                level: refinements,
                time_step_seconds: time_step,
                makespan_steps: outcome.makespan,
                lower_bound_steps: outcome.lower_bound,
                external_bound_steps: external,
                truncated: outcome.truncated,
                telemetry,
                schedule: &outcome.schedule,
                instance: &instance,
            });

            let wants_refine = outcome.makespan > 0
                && outcome.makespan < self.policy.target_steps
                && refinements < self.policy.max_refinements;
            // Refinement-level boundary: re-solving at a finer step is the
            // most expensive thing the evaluator can do, so an expired
            // budget stops here and the coarser level's result — feasible,
            // with a valid bound — is returned instead. The boundary check
            // also catches expiries the solve itself never observed (a
            // deadline passing between levels, a node meter drained to
            // exactly zero by phase allocations).
            let truncated = outcome.truncated.or_else(|| {
                wants_refine
                    .then(|| self.solver.budget.check().err())
                    .flatten()
            });
            if wants_refine && truncated.is_some() {
                if let Some(kind) = truncated {
                    tel.budget_expired(
                        BudgetLayer::Refinement,
                        kind,
                        self.solver.budget.nodes_spent(),
                    );
                }
            }
            let refine = wants_refine && truncated.is_none();
            if refine {
                refinements += 1;
                time_step /= self.policy.refine_factor;
                warm_order = Some(
                    outcome
                        .schedule
                        .starts
                        .iter()
                        .map(|&s| -f64::from(s))
                        .collect(),
                );
                continue;
            }

            let makespan_seconds = f64::from(outcome.makespan) * time_step;
            let sequential = self.workload.sequential_cpu_seconds();
            let speedup = if makespan_seconds > 0.0 {
                sequential / makespan_seconds
            } else {
                1.0
            };
            let avg_wlp = average_wlp(&outcome.schedule, &instance);
            return Ok(Evaluation {
                makespan_seconds,
                makespan_steps: outcome.makespan,
                time_step_seconds: time_step,
                energy_joules: outcome.energy * time_step,
                speedup,
                avg_wlp,
                lower_bound_seconds: f64::from(outcome.lower_bound) * time_step,
                gap: outcome.gap(),
                proved_optimal: outcome.proved_optimal,
                near_optimal: outcome.is_near_optimal(),
                refinements,
                exact_makespan_seconds: None,
                truncated,
                schedule: outcome.schedule,
                instance,
                maps,
            });
        }
    }

    /// Like [`Hilp::evaluate`], additionally recording per-level instance
    /// fingerprints and proven bounds so that follow-up what-if queries can
    /// be answered incrementally by [`Hilp::evaluate_delta`]. The
    /// evaluation result is identical to [`Hilp::evaluate`]'s.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors and scheduling failures, exactly like
    /// [`Hilp::evaluate`].
    pub fn evaluate_recorded(&self) -> Result<RecordedEvaluation, HilpError> {
        let observer = DeltaObserver::new(None);
        let evaluation = self.evaluate_with_observer(&observer)?;
        Ok(RecordedEvaluation {
            evaluation,
            levels: observer.into_levels(),
            config_key: self.config_key(),
        })
    }

    /// Incrementally re-evaluates this (edited) evaluator against a
    /// previously recorded baseline, reporting exactly what a from-scratch
    /// [`Hilp::evaluate`] would report — shortcuts are taken only where
    /// that equality is provable:
    ///
    /// * **Identity** — every recorded level re-encodes, under this
    ///   evaluator, to the exact fingerprint the baseline recorded, and
    ///   the configurations match: the solver is deterministic, so the
    ///   recorded evaluation is returned verbatim without solving. This is
    ///   the sub-millisecond repeat-what-if path.
    /// * **Certified** — for heuristic-only solver configurations, each
    ///   level whose delta against the baseline's instance is a pure
    ///   tightening (caps down, durations/lags up, modes removed, horizon
    ///   down) inherits the baseline's proven bound as a *transparent*
    ///   [`SolveHints::external_lower_bound`]: same result, fewer
    ///   multi-starts.
    /// * **Scratch** — everything else re-evaluates normally.
    ///
    /// `parent` is the evaluator that produced `baseline` (it supplies the
    /// workload/SoC/constraints to re-derive each recorded level's
    /// instance from; certificates are skipped when the re-derivation no
    /// longer matches the recorded fingerprints).
    ///
    /// # Errors
    ///
    /// Propagates encoding errors and scheduling failures, exactly like
    /// [`Hilp::evaluate`].
    pub fn evaluate_delta(
        &self,
        parent: &Hilp,
        baseline: &RecordedEvaluation,
    ) -> Result<(RecordedEvaluation, WhatIfPath), HilpError> {
        let compatible = self.config_key() == baseline.config_key
            && self.solver.budget.is_unlimited()
            && baseline.evaluation.truncated.is_none()
            && !baseline.levels.is_empty();
        if compatible && self.trajectory_matches(baseline) {
            return Ok((baseline.clone(), WhatIfPath::Identity));
        }
        // Certificates ride along only where they are provably invisible:
        // heuristic-only configurations (an exact phase reports external
        // bounds) and unlimited budgets (skipped work shifts where a
        // budget would expire).
        let hinting = self.solver.exact_node_budget == 0 && self.solver.budget.is_unlimited();
        let observer = DeltaObserver::new(hinting.then_some(ParentLevels {
            workload: &parent.workload,
            soc: &parent.soc,
            constraints: &parent.constraints,
            levels: &baseline.levels,
        }));
        let evaluation = self.evaluate_with_observer(&observer)?;
        let certified = observer.certified();
        let recorded = RecordedEvaluation {
            evaluation,
            levels: observer.into_levels(),
            config_key: self.config_key(),
        };
        let path = if certified > 0 {
            WhatIfPath::Certified { levels: certified }
        } else {
            WhatIfPath::Scratch
        };
        Ok((recorded, path))
    }

    /// Whether this evaluator re-encodes every recorded level to the exact
    /// recorded fingerprint. When it does (and configurations match), its
    /// evaluation trajectory is identical to the recorded one by induction:
    /// identical instances get identical solves, hence identical warm
    /// chains and identical refine/stop decisions.
    fn trajectory_matches(&self, baseline: &RecordedEvaluation) -> bool {
        baseline.levels.iter().all(|rec| {
            encode(
                &self.workload,
                &self.soc,
                &self.constraints,
                rec.time_step_seconds,
            )
            .map(|(instance, _)| instance.fingerprint() == rec.fingerprint)
            .unwrap_or(false)
        })
    }

    /// Hash of every knob that can change an evaluation result given the
    /// same encoded instances. Thread counts and telemetry are excluded
    /// (proven result-invariant); budgets are handled separately (the
    /// identity tier requires them unlimited).
    fn config_key(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.policy.initial_seconds.to_bits());
        eat(u64::from(self.policy.target_steps));
        eat(self.policy.refine_factor.to_bits());
        eat(u64::from(self.policy.max_refinements));
        eat(match self.evaluate_policy {
            EvaluatePolicy::GridRefinement => 0,
            EvaluatePolicy::Exact => 1,
        });
        eat(self.solver.heuristic_starts as u64);
        eat(self.solver.local_search_passes as u64);
        eat(self.solver.exact_node_budget);
        eat(self.solver.exact_task_threshold as u64);
        eat(self.solver.seed);
        eat(u64::from(self.solver.bound_termination));
        eat(match self.solver.timetable {
            TimetableKind::Event => 0,
            TimetableKind::Dense => 1,
        });
        let (objective_tag, objective_cap) = match self.solver.objective {
            Objective::Makespan => (0, 0),
            Objective::Energy => (1, 0),
            Objective::Edp => (2, 0),
            Objective::MakespanUnderEnergyCap(cap) => (3, cap.to_bits()),
        };
        eat(objective_tag);
        eat(objective_cap);
        eat(self.energy_cap_joules.map_or(0, f64::to_bits));
        h
    }

    /// Sweeps the full energy/makespan Pareto front of this point: a
    /// normal [`Hilp::evaluate`] fixes the final discretization, then
    /// [`solve_pareto`] runs a descending energy-budget ladder on that
    /// instance and the step-unit front is converted to seconds and
    /// joules. The front is deterministic for any thread count (the
    /// ladder is sequential and each rung is a deterministic solve), and
    /// its fastest point coincides with the plain evaluation's schedule
    /// quality. A joule budget set via [`Hilp::with_energy_cap_joules`]
    /// truncates the front's energy-hungry end.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors and scheduling failures, exactly like
    /// [`Hilp::evaluate`].
    pub fn evaluate_pareto(&self) -> Result<ParetoEvaluation, HilpError> {
        let evaluation = self.evaluate()?;
        let tick = evaluation.time_step_seconds;
        let front = solve_pareto(&evaluation.instance, &self.level_solver(tick))?;
        Ok(ParetoEvaluation {
            points: front
                .points
                .into_iter()
                .map(|p| ParetoEvalPoint {
                    makespan_seconds: f64::from(p.makespan) * tick,
                    energy_joules: p.energy * tick,
                    makespan_steps: p.makespan,
                    energy_watt_steps: p.energy,
                    proved_optimal: p.proved_optimal,
                    schedule: p.schedule,
                })
                .collect(),
            time_step_seconds: tick,
            complete: front.complete,
            truncated: front.truncated,
            evaluation,
        })
    }

    /// The [`EvaluatePolicy::Exact`] path: replay the grid cascade as a
    /// pilot, then solve once at the finest tick on the event backend with
    /// the cascade's result lifted in as a verified incumbent.
    ///
    /// The pilot cascade solves exactly the levels the grid-refinement
    /// loop would solve — same ticks, same warm-order chaining, same
    /// observer hints — so its final schedule *is* the grid policy's
    /// result for this point. That schedule is then mapped onto the
    /// finest-tick instance by [`lift_to_finer_tick`] and passed as a
    /// [`SolveHints::warm_incumbent`], which the solver verifies and
    /// adopts whenever it beats the finest-tick heuristic. Either way the
    /// returned makespan is at most the lifted one, so
    /// `exact.makespan_seconds <= grid.makespan_seconds` holds by
    /// construction on every point — the finest-tick solve can only
    /// remove coarse-grid rounding, never add it.
    ///
    /// The observer is consulted at every pilot level with its true grid
    /// level index and at level `max_refinements` for the finest solve, so
    /// a baseline-armed sweep certifies and records an exact sweep exactly
    /// as it does a grid sweep.
    fn evaluate_exact(&self, observer: &dyn RefinementObserver) -> Result<Evaluation, HilpError> {
        let exact_step = self.policy.exact_tick_seconds();
        let final_level = self.policy.max_refinements;
        let tel = &self.solver.telemetry;
        let _eval_span = tel.span("core.evaluate");
        let (instance, maps) = {
            let _encode_span = tel.span("core.encode");
            encode(&self.workload, &self.soc, &self.constraints, exact_step)?
        };
        // The event backend's cost is independent of the horizon, which is
        // what makes fine-resolution solves affordable; the dense reference
        // would pay a horizon-proportional cost here. The joule budget, if
        // any, is re-derived per tick below.
        let exact_solver = |tick: f64| SolverConfig {
            timetable: TimetableKind::Event,
            ..self.level_solver(tick)
        };

        // Pilot cascade: the grid trajectory up to (never including) the
        // finest level. Budget expiry stops the cascade early, exactly
        // where the grid loop would have returned its coarse result.
        let mut warm_order: Option<Vec<f64>> = None;
        let mut pilot: Option<(Schedule, Instance, f64)> = None;
        let mut pilot_truncated: Option<BudgetKind> = None;
        if final_level > 0 {
            let _pilot_span = tel.span("core.pilot");
            let mut level = 0;
            let mut time_step = self.policy.initial_seconds;
            loop {
                let _level_span = tel.span("core.level");
                let (pilot_instance, _) = {
                    let _encode_span = tel.span("core.encode");
                    encode(&self.workload, &self.soc, &self.constraints, time_step)?
                };
                let external = observer.external_lower_bound(level, time_step, &pilot_instance);
                let (outcome, telemetry) = solve_with_hints(
                    &pilot_instance,
                    &exact_solver(time_step),
                    &SolveHints {
                        warm_priority: warm_order.as_deref(),
                        external_lower_bound: external,
                        ..SolveHints::default()
                    },
                )?;
                tel.incr(Counter::LevelsSolved);
                if external.is_some() {
                    tel.incr(Counter::InheritedBoundLevels);
                }
                observer.level_solved(&LevelReport {
                    level,
                    time_step_seconds: time_step,
                    makespan_steps: outcome.makespan,
                    lower_bound_steps: outcome.lower_bound,
                    external_bound_steps: external,
                    truncated: outcome.truncated,
                    telemetry,
                    schedule: &outcome.schedule,
                    instance: &pilot_instance,
                });
                warm_order = Some(
                    outcome
                        .schedule
                        .starts
                        .iter()
                        .map(|&s| -f64::from(s))
                        .collect(),
                );
                let wants_refine = outcome.makespan > 0
                    && outcome.makespan < self.policy.target_steps
                    && level < final_level;
                let truncated = outcome.truncated.or_else(|| {
                    wants_refine
                        .then(|| self.solver.budget.check().err())
                        .flatten()
                });
                if wants_refine {
                    if let Some(kind) = truncated {
                        tel.budget_expired(
                            BudgetLayer::Refinement,
                            kind,
                            self.solver.budget.nodes_spent(),
                        );
                    }
                }
                pilot_truncated = truncated;
                pilot = Some((outcome.schedule, pilot_instance, time_step));
                if wants_refine && truncated.is_none() && level + 1 < final_level {
                    level += 1;
                    time_step /= self.policy.refine_factor;
                    continue;
                }
                break;
            }
        }

        let _level_span = tel.span("core.level");
        let lifted = pilot.as_ref().and_then(|(schedule, from, tick)| {
            // Lifting is only sound when the pilot tick is an integer
            // multiple of the exact tick (always, for integral refine
            // factors); bail out rather than lift approximately.
            let factor = (tick / exact_step).round();
            let exact_multiple = factor.is_finite()
                && (1.0..=f64::from(u32::MAX)).contains(&factor)
                && (factor * exact_step - tick).abs() <= 1e-9 * tick;
            if !exact_multiple {
                return None;
            }
            lift_to_finer_tick(schedule, from, &instance, factor as u32)
        });
        let external = observer.external_lower_bound(final_level, exact_step, &instance);
        let (outcome, telemetry) = solve_with_hints(
            &instance,
            &exact_solver(exact_step),
            &SolveHints {
                warm_priority: warm_order.as_deref(),
                external_lower_bound: external,
                warm_incumbent: lifted.as_ref(),
            },
        )?;
        tel.incr(Counter::LevelsSolved);
        if external.is_some() {
            tel.incr(Counter::InheritedBoundLevels);
        }
        observer.level_solved(&LevelReport {
            level: final_level,
            time_step_seconds: exact_step,
            makespan_steps: outcome.makespan,
            lower_bound_steps: outcome.lower_bound,
            external_bound_steps: external,
            truncated: outcome.truncated,
            telemetry,
            schedule: &outcome.schedule,
            instance: &instance,
        });

        let time_step = exact_step;
        let makespan_seconds = f64::from(outcome.makespan) * time_step;
        let sequential = self.workload.sequential_cpu_seconds();
        let speedup = if makespan_seconds > 0.0 {
            sequential / makespan_seconds
        } else {
            1.0
        };
        let avg_wlp = average_wlp(&outcome.schedule, &instance);
        Ok(Evaluation {
            makespan_seconds,
            makespan_steps: outcome.makespan,
            time_step_seconds: time_step,
            energy_joules: outcome.energy * time_step,
            speedup,
            avg_wlp,
            lower_bound_seconds: f64::from(outcome.lower_bound) * time_step,
            gap: outcome.gap(),
            proved_optimal: outcome.proved_optimal,
            near_optimal: outcome.is_near_optimal(),
            refinements: 0,
            exact_makespan_seconds: Some(makespan_seconds),
            truncated: outcome.truncated.or(pilot_truncated),
            schedule: outcome.schedule,
            instance,
            maps,
        })
    }
}

/// One point of a [`ParetoEvaluation`]: a makespan/energy trade-off in
/// both physical and solver units.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEvalPoint {
    /// Workload execution time in seconds.
    pub makespan_seconds: f64,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Makespan in time steps at the evaluation's final resolution.
    pub makespan_steps: u32,
    /// Total energy in the solver's watt-step unit.
    pub energy_watt_steps: f64,
    /// Whether this point's makespan is proven optimal under its budget.
    pub proved_optimal: bool,
    /// The schedule realizing the trade-off (on the evaluation instance).
    pub schedule: Schedule,
}

impl ParetoEvalPoint {
    /// Energy-delay product in joule-seconds.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_joules * self.makespan_seconds
    }
}

/// The energy/makespan Pareto front of one design point, produced by
/// [`Hilp::evaluate_pareto`]: non-dominated points sorted by increasing
/// makespan, plus the plain evaluation that fixed the discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEvaluation {
    /// Non-dominated trade-off points, makespan ascending.
    pub points: Vec<ParetoEvalPoint>,
    /// The time step all points were solved at, in seconds.
    pub time_step_seconds: f64,
    /// Whether every ladder rung was solved to proven optimality.
    pub complete: bool,
    /// Which budget constraint cut the ladder short, if any.
    pub truncated: Option<BudgetKind>,
    /// The plain evaluation whose final discretization the front reuses.
    pub evaluation: Evaluation,
}

impl ParetoEvaluation {
    /// The front's minimum-EDP point (ties toward the smaller makespan).
    #[must_use]
    pub fn min_edp(&self) -> Option<&ParetoEvalPoint> {
        self.points.iter().min_by(|a, b| {
            a.edp()
                .total_cmp(&b.edp())
                .then(a.makespan_steps.cmp(&b.makespan_steps))
        })
    }
}

/// Maps a schedule solved at a coarser discretization onto the instance of
/// a `factor`x finer one: start times scale by `factor`, and each task's
/// mode moves to the same-named machine, onto a mode no hungrier on any
/// rate axis and no longer than `factor` times its coarse duration.
///
/// Such a mode always exists before cap-filtering: the coarse mode's own
/// fine-tick counterpart qualifies, since durations round as
/// `ceil(w / (t / factor)) <= factor * ceil(w / t)` while the rate axes
/// (power, bandwidth, cores, custom resources) are tick-independent — and
/// if encoding dropped that counterpart as dominated, its dominator
/// qualifies instead. Feasibility transfers because every lifted window
/// `[factor * s, factor * s + d_fine)` sits inside the scaled coarse
/// window `[factor * s, factor * (s + d_coarse))`: scaling keeps disjoint
/// machine windows disjoint, lags scale by at most `factor` (same ceiling
/// argument), and per-step usage is pointwise at most the coarse
/// schedule's, which met the same caps. The lifted makespan is therefore
/// at most `factor` times the coarse one in steps — equal or better in
/// seconds. Returns `None` when the instances do not line up (different
/// workloads or SoCs); callers still [`Schedule::verify`] before trusting
/// the result — see [`SolveHints::warm_incumbent`].
fn lift_to_finer_tick(
    schedule: &Schedule,
    from: &Instance,
    to: &Instance,
    factor: u32,
) -> Option<Schedule> {
    let n = from.num_tasks();
    if to.num_tasks() != n || schedule.starts.len() != n || schedule.modes.len() != n {
        return None;
    }
    // Pair each source machine with a distinct same-named target machine.
    let mut machine_map = Vec::with_capacity(from.machines().len());
    let mut taken = vec![false; to.machines().len()];
    for name in from.machines() {
        let target = to
            .machines()
            .iter()
            .enumerate()
            .position(|(j, m)| !taken[j] && m == name)?;
        taken[target] = true;
        machine_map.push(target);
    }
    let mut starts = Vec::with_capacity(n);
    let mut modes = Vec::with_capacity(n);
    for (t, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate() {
        let src = from.task(TaskId(t)).modes.get(mode.0)?;
        let duration_budget = src.duration.checked_mul(factor)?;
        let machine = machine_map[src.machine.0];
        let (best, _) = to
            .task(TaskId(t))
            .modes
            .iter()
            .enumerate()
            .filter(|(_, m)| {
                m.machine.0 == machine
                    && m.duration <= duration_budget
                    && m.power <= src.power
                    && m.bandwidth <= src.bandwidth
                    && m.cores <= src.cores
                    && m.resource_usage.iter().all(|&(r, u)| u <= src.usage_of(r))
            })
            .min_by(|(_, a), (_, b)| {
                (a.duration, a.power, a.bandwidth)
                    .partial_cmp(&(b.duration, b.power, b.bandwidth))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })?;
        modes.push(ModeId(best));
        starts.push(start.checked_mul(factor)?);
    }
    Some(Schedule { starts, modes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hilp_soc::DsaSpec;
    use hilp_workloads::WorkloadVariant;

    fn fast_solver() -> SolverConfig {
        SolverConfig {
            heuristic_starts: 60,
            local_search_passes: 2,
            exact_node_budget: 0,
            ..SolverConfig::default()
        }
    }

    #[test]
    fn single_cpu_evaluation_matches_sequential_baseline() {
        // On a single-CPU SoC everything serializes: speedup ~ 1, WLP = 1.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let eval = Hilp::new(w, SocSpec::new(1))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(2.0))
            .evaluate()
            .unwrap();
        assert!(
            eval.speedup <= 1.05,
            "speedup {} should be ~1",
            eval.speedup
        );
        assert!(eval.speedup > 0.9);
        assert!((eval.avg_wlp - 1.0).abs() < 0.05);
    }

    #[test]
    fn adaptive_refinement_reaches_target_resolution() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy {
                initial_seconds: 10.0,
                target_steps: 40,
                refine_factor: 5.0,
                max_refinements: 4,
            })
            .evaluate()
            .unwrap();
        assert!(eval.refinements >= 1, "a fast SoC must trigger refinement");
        assert!(
            eval.makespan_steps >= 40 || eval.refinements == 4,
            "refinement must stop at the target or the cap"
        );
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn exact_policy_solves_once_at_the_finest_tick() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let policy = TimeStepPolicy::sweep();
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(policy)
            .with_evaluate_policy(EvaluatePolicy::exact())
            .evaluate()
            .unwrap();
        assert_eq!(eval.refinements, 0, "exact mode never refines");
        assert!(
            (eval.time_step_seconds - policy.exact_tick_seconds()).abs() < 1e-12,
            "exact mode solves at the finest tick"
        );
        assert_eq!(eval.exact_makespan_seconds, Some(eval.makespan_seconds));
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn exact_makespan_upper_bounds_the_grid_result() {
        // The grid loop stops refining once the makespan clears
        // target_steps, leaving coarse-grid rounding in the result; the
        // exact solve always reaches the finest tick, so its makespan must
        // not exceed the grid's on the same point.
        let w = Workload::rodinia(WorkloadVariant::Default);
        for soc in [SocSpec::new(4), SocSpec::new(4).with_gpu(16)] {
            let build = || {
                Hilp::new(w.clone(), soc.clone())
                    .with_solver(fast_solver())
                    .with_policy(TimeStepPolicy::sweep())
            };
            let grid = build().evaluate().unwrap();
            let exact = build()
                .with_evaluate_policy(EvaluatePolicy::exact())
                .evaluate()
                .unwrap();
            assert!(
                exact.makespan_seconds <= grid.makespan_seconds + 1e-9,
                "exact {} > grid {}",
                exact.makespan_seconds,
                grid.makespan_seconds
            );
            assert!(exact.lower_bound_seconds <= exact.makespan_seconds + 1e-9);
        }
    }

    #[test]
    fn exact_evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = || {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(fast_solver())
                .with_policy(TimeStepPolicy::sweep())
                .with_evaluate_policy(EvaluatePolicy::exact())
                .evaluate()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan_steps, b.makespan_steps);
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn accelerators_speed_up_the_default_workload() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let plain = Hilp::new(w.clone(), SocSpec::new(4))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        let accelerated = Hilp::new(w, SocSpec::new(4).with_gpu(64))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert!(accelerated.speedup > 2.0 * plain.speedup);
    }

    #[test]
    fn paper_flagship_soc_reaches_reported_speedup_band() {
        // (c4,g16,d2^16) on Default: the paper reports 45.6x.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4)
            .with_gpu(16)
            .with_dsa(DsaSpec::new(16, "LUD"))
            .with_dsa(DsaSpec::new(16, "HS"));
        let eval = Hilp::new(w, soc)
            .with_constraints(Constraints::paper_default())
            .with_solver(SolverConfig::default())
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert!(
            eval.speedup > 35.0 && eval.speedup < 55.0,
            "speedup {} outside the paper's band",
            eval.speedup
        );
        assert!(eval.avg_wlp > 1.5, "WLP {} too low", eval.avg_wlp);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = || {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(fast_solver())
                .with_policy(TimeStepPolicy::sweep())
                .evaluate()
                .unwrap()
                .makespan_steps
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_budget_stops_refinement_at_a_level_boundary() {
        // Unbudgeted, this SoC refines at least once. A node budget sized
        // for roughly one level must stop at the boundary and return the
        // coarse level's result instead of erroring.
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(4).with_gpu(64);
        let policy = TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 4,
        };
        let unbudgeted = Hilp::new(w.clone(), soc.clone())
            .with_solver(fast_solver())
            .with_policy(policy)
            .evaluate()
            .unwrap();
        assert!(unbudgeted.refinements >= 1);
        assert_eq!(unbudgeted.truncated, None);
        let budgeted = Hilp::new(w, soc)
            .with_solver(SolverConfig {
                budget: hilp_sched::Budget::nodes(75),
                ..fast_solver()
            })
            .with_policy(policy)
            .evaluate()
            .unwrap();
        assert_eq!(budgeted.truncated, Some(BudgetKind::Nodes));
        assert!(
            budgeted.refinements < unbudgeted.refinements,
            "the budget must cut refinement rounds ({} vs {})",
            budgeted.refinements,
            unbudgeted.refinements
        );
        assert!(budgeted.schedule.verify(&budgeted.instance).is_empty());
        assert!(budgeted.lower_bound_seconds <= budgeted.makespan_seconds + 1e-9);
    }

    #[test]
    fn cancelled_evaluation_still_returns_a_result() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let token = hilp_sched::CancelToken::new();
        token.cancel();
        let eval = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(SolverConfig {
                budget: hilp_sched::Budget::unlimited().with_cancel(token),
                ..fast_solver()
            })
            .with_policy(TimeStepPolicy::sweep())
            .evaluate()
            .unwrap();
        assert_eq!(eval.truncated, Some(BudgetKind::Cancelled));
        assert_eq!(eval.refinements, 0, "no refinement after cancellation");
        assert!(eval.schedule.verify(&eval.instance).is_empty());
    }

    #[test]
    fn node_budgeted_evaluation_is_deterministic() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(2).with_gpu(16);
        let run = |threads| {
            Hilp::new(w.clone(), soc.clone())
                .with_solver(SolverConfig {
                    budget: hilp_sched::Budget::nodes(50),
                    heuristic_threads: threads,
                    ..fast_solver()
                })
                .with_policy(TimeStepPolicy::sweep())
                .evaluate()
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.makespan_steps, b.makespan_steps);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.refinements, b.refinements);
    }

    #[test]
    fn energy_is_reported_and_positive() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let eval = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate()
            .unwrap();
        assert!(eval.energy_joules > 0.0, "a real workload consumes energy");
        let step_energy: f64 = eval.schedule.total_energy(&eval.instance);
        assert!((eval.energy_joules - step_energy * eval.time_step_seconds).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_is_nonempty_and_monotone() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let front = Hilp::new(w, SocSpec::new(2).with_gpu(16))
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate_pareto()
            .unwrap();
        assert!(!front.points.is_empty());
        // Non-dominated and sorted: makespan strictly increases while
        // energy strictly decreases.
        for pair in front.points.windows(2) {
            assert!(pair[0].makespan_steps < pair[1].makespan_steps);
            assert!(pair[0].energy_watt_steps > pair[1].energy_watt_steps);
        }
        // The fastest point matches the plain evaluation's makespan.
        assert_eq!(
            front.points[0].makespan_steps,
            front.evaluation.makespan_steps
        );
        assert!(front.min_edp().is_some());
        for p in &front.points {
            assert!(p.schedule.verify(&front.evaluation.instance).is_empty());
        }
    }

    #[test]
    fn joule_cap_trades_speed_for_energy() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let build = || {
            Hilp::new(w.clone(), SocSpec::new(2).with_gpu(16))
                .with_solver(fast_solver())
                .with_policy(TimeStepPolicy::fixed(5.0))
        };
        let front = build().evaluate_pareto().unwrap();
        let plain = front.evaluation.clone();
        // Cap halfway between the energy floor (the front's frugal end)
        // and the unconstrained energy: the capped solve must spend less
        // energy, at an equal-or-worse makespan.
        let floor = front.points.last().unwrap().energy_joules;
        assert!(
            floor < plain.energy_joules,
            "this point must have an energy spread to trade against"
        );
        let cap = 0.5 * (floor + plain.energy_joules);
        let capped = build().with_energy_cap_joules(cap).evaluate().unwrap();
        assert!(capped.energy_joules <= cap + 1e-6);
        assert!(capped.makespan_seconds >= plain.makespan_seconds - 1e-9);
        assert!(capped.schedule.verify(&capped.instance).is_empty());
    }

    #[test]
    fn render_schedule_mentions_machines() {
        let w = Workload::rodinia(WorkloadVariant::Default);
        let soc = SocSpec::new(1).with_gpu(16);
        let eval = Hilp::new(w, soc)
            .with_solver(fast_solver())
            .with_policy(TimeStepPolicy::fixed(5.0))
            .evaluate()
            .unwrap();
        let text = eval.render_schedule();
        assert!(text.contains("gpu16"));
        assert!(text.contains("cpu0"));
    }
}
