//! Differential pinning of the what-if shortcuts.
//!
//! [`check_delta`] is the oracle for what `Hilp::evaluate_delta` and
//! `SweepBaseline` reuse from a solved parent: apply a random single-axis
//! perturbation to a solved instance, classify it with
//! `hilp_sched::InstanceDelta::between`, answer it the way production
//! does (identity replay, or the parent's proven bound handed to the
//! solver when it transfers), and demand the result is **bit-identical**
//! to a from-scratch solve of the perturbed instance — makespan, bound,
//! schedule, optimality flags, everything. Reusing stale work is the
//! classic source of subtle bugs; this harness is why the shortcuts get
//! to exist.

use proptest::{BoxedStrategy, Strategy};

use hilp_sched::{
    solve, solve_with_hints, Instance, InstanceBuilder, InstanceDelta, Mode, SolveHints,
    SolveOutcome, SolverConfig, TaskId,
};

use crate::brute_force::{brute_force_makespan, MAX_BRUTE_FORCE_TASKS};
use crate::harness::{CheckStats, Disagreement};

/// Which single axis a [`Perturbation`] nudges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerturbAxis {
    /// No change at all: the rebuilt instance must fingerprint-match the
    /// original, covering the identity replay.
    Identity,
    /// One mode's duration, up (tightening) or down (loosening).
    Duration,
    /// One precedence edge's lag, up or down.
    Lag,
    /// The power cap, scaled down (tightening, clamped so every task
    /// keeps a feasible mode) or dropped entirely (loosening).
    PowerCap,
    /// The bandwidth cap, same scheme as the power cap.
    BandwidthCap,
    /// The horizon, up or down (down may make the instance infeasible —
    /// the oracle then demands both paths agree on infeasibility).
    Horizon,
    /// Remove one alternative mode from a multi-mode task (a pure
    /// mode-subset tightening).
    DropMode,
    /// Append an independent task (a task-set change, which the delta
    /// classifier must refuse to certify).
    AddTask,
}

/// A single-axis random edit of a scheduling instance, drawn by
/// [`arb_perturbation`] and applied by [`apply_perturbation`].
#[derive(Debug, Clone, Copy)]
pub struct Perturbation {
    /// The axis being nudged.
    pub axis: PerturbAxis,
    /// Raw selector for *which* task/mode/edge on that axis; reduced
    /// modulo the relevant count, so any value is valid.
    pub selector: u64,
    /// Nudge size in steps (1..=3).
    pub magnitude: u32,
    /// Direction: `true` grows the touched quantity.
    pub grow: bool,
}

/// Random single-axis perturbations, uniform over the axes.
pub fn arb_perturbation() -> BoxedStrategy<Perturbation> {
    (0..8u8, 0..u64::MAX, 1..=3u32, proptest::prop::bool::ANY)
        .prop_map(|(axis, selector, magnitude, grow)| Perturbation {
            axis: match axis {
                0 => PerturbAxis::Identity,
                1 => PerturbAxis::Duration,
                2 => PerturbAxis::Lag,
                3 => PerturbAxis::PowerCap,
                4 => PerturbAxis::BandwidthCap,
                5 => PerturbAxis::Horizon,
                6 => PerturbAxis::DropMode,
                _ => PerturbAxis::AddTask,
            },
            selector,
            magnitude,
            grow,
        })
        .boxed()
}

/// The tightest power cap that keeps every task at least one feasible
/// mode: the max over tasks of the min over modes of the axis usage.
fn min_cap(instance: &Instance, usage: impl Fn(&Mode) -> f64) -> f64 {
    instance
        .tasks()
        .iter()
        .map(|t| t.modes.iter().map(&usage).fold(f64::INFINITY, f64::min))
        .fold(0.0, f64::max)
}

/// Applies a [`Perturbation`] by rebuilding the instance with the one
/// axis nudged. Inapplicable selections (a lag edit on an edge-free
/// instance, a mode drop with no multi-mode task) degrade to the
/// identity rebuild — the oracle still checks *something* on such cases,
/// namely that an unchanged rebuild is recognized as an identity delta.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn apply_perturbation(instance: &Instance, p: &Perturbation) -> Instance {
    let n = instance.num_tasks();
    let sel = p.selector as usize;
    let mut b = InstanceBuilder::new();
    for name in instance.machines() {
        b.add_machine(name.clone());
    }
    for (name, cap) in instance.resources() {
        b.add_resource(name.clone(), *cap);
    }

    // Pre-resolve which concrete site the selector lands on.
    let duration_target = (p.axis == PerturbAxis::Duration && n > 0).then(|| {
        let t = sel % n;
        (t, sel / n % instance.task(TaskId(t)).modes.len().max(1))
    });
    let edges: usize = (0..n).map(|t| instance.incoming(TaskId(t)).len()).sum();
    let lag_target = (p.axis == PerturbAxis::Lag && edges > 0).then(|| sel % edges);
    let drop_target = (p.axis == PerturbAxis::DropMode).then(|| {
        let multi: Vec<usize> = (0..n)
            .filter(|&t| instance.task(TaskId(t)).modes.len() > 1)
            .collect();
        multi.get(sel % multi.len().max(1)).copied().map(|t| {
            let kept = instance.task(TaskId(t)).modes.len();
            (t, 1 + sel / multi.len().max(1) % (kept - 1))
        })
    });

    let mut tasks = Vec::with_capacity(n);
    for t in 0..n {
        let task = instance.task(TaskId(t));
        let mut modes: Vec<Mode> = task.modes.clone();
        if let Some((task_sel, mode_sel)) = duration_target {
            if task_sel == t {
                let d = &mut modes[mode_sel].duration;
                *d = if p.grow {
                    d.saturating_add(p.magnitude)
                } else {
                    d.saturating_sub(p.magnitude).max(1)
                };
            }
        }
        if let Some(Some((task_sel, mode_sel))) = drop_target {
            if task_sel == t {
                modes.remove(mode_sel);
            }
        }
        tasks.push(b.add_task(task.label.clone(), modes));
    }
    if p.axis == PerturbAxis::AddTask {
        let machine = hilp_sched::MachineId(sel % instance.num_machines().max(1));
        b.add_task("delta-extra", vec![Mode::on(machine, p.magnitude)]);
    }

    let mut edge_index = 0usize;
    for t in 0..n {
        for edge in instance.incoming(TaskId(t)) {
            let mut lag = edge.lag;
            if lag_target == Some(edge_index) {
                lag = if p.grow {
                    lag.saturating_add(p.magnitude)
                } else {
                    lag.saturating_sub(p.magnitude)
                };
            }
            edge_index += 1;
            match edge.kind {
                hilp_sched::EdgeKind::FinishToStart => {
                    b.add_precedence_lagged(tasks[edge.before.0], tasks[edge.after.0], lag);
                }
                hilp_sched::EdgeKind::StartToStart => {
                    b.add_initiation_interval(tasks[edge.before.0], tasks[edge.after.0], lag);
                }
            }
        }
    }

    let scale = |cap: Option<f64>, floor: f64| -> Option<f64> {
        if p.grow {
            // Loosening: raise the cap by half, or drop an absent one
            // (no change — stays unconstrained).
            cap.map(|c| c * 1.5)
        } else {
            // Tightening: shave a quarter off (or constrain a previously
            // uncapped axis), clamped so every task keeps a mode.
            Some((cap.unwrap_or(floor * 2.0) * 0.75).max(floor))
        }
    };
    let power = if p.axis == PerturbAxis::PowerCap {
        scale(instance.power_cap(), min_cap(instance, |m| m.power))
    } else {
        instance.power_cap()
    };
    let bandwidth = if p.axis == PerturbAxis::BandwidthCap {
        scale(instance.bandwidth_cap(), min_cap(instance, |m| m.bandwidth))
    } else {
        instance.bandwidth_cap()
    };
    if let Some(cap) = power {
        b.set_power_cap(cap);
    }
    if let Some(cap) = bandwidth {
        b.set_bandwidth_cap(cap);
    }
    if let Some(cap) = instance.core_cap() {
        b.set_core_cap(cap);
    }

    let mut horizon = instance.horizon();
    match p.axis {
        PerturbAxis::Horizon => {
            horizon = if p.grow {
                horizon.saturating_add(p.magnitude)
            } else {
                horizon.saturating_sub(p.magnitude).max(1)
            };
        }
        // Keep the appended task schedulable in principle.
        PerturbAxis::AddTask => horizon = horizon.saturating_add(p.magnitude),
        _ => {}
    }
    b.set_horizon(horizon);
    b.build()
        .expect("perturbed instances stay structurally valid")
}

/// Differentially pins the what-if shortcuts production takes: `parent`
/// is solved from scratch, perturbed, and the child is diffed against it
/// with [`InstanceDelta::between`].
///
/// * On identity, a scratch solve of the child must reproduce the parent
///   outcome bit for bit (the identity replay of `Hilp::evaluate_delta`
///   and `SweepBaseline`).
/// * When [`InstanceDelta::bounds_transfer`] holds, [`solve_with_hints`]
///   given the parent's proven lower bound must match the scratch solve
///   bit for bit, down to the schedule (the bound-transfer certificate).
///   Both child solves run heuristic-only (`config` with its exact phase
///   switched off), the only configuration where the hint is transparent;
///   the parent's bound comes from `config` as given. When the child is
///   small enough to brute-force, the transferred bound must also be at
///   most the child's true optimum: a bound that overshoots it only
///   changes a heuristic solve when no start happens to hit the optimum
///   first, so the bit-identity comparison alone rarely notices it.
/// * Otherwise nothing of the parent is reused, so there is nothing to
///   compare; the case is only counted.
///
/// Wherever two solves are compared, they must also agree on whether the
/// child is infeasible.
///
/// # Errors
///
/// Returns the first [`Disagreement`] found, if any.
pub fn check_delta(
    parent: &Instance,
    perturbation: &Perturbation,
    config: &SolverConfig,
    stats: &mut CheckStats,
) -> Result<(), Disagreement> {
    let Ok(parent_outcome) = solve(parent, config) else {
        // Infeasible parents have no outcome to reuse; the plain instance
        // oracle already covers them.
        stats.delta_skipped += 1;
        return Ok(());
    };
    let child = apply_perturbation(parent, perturbation);
    let delta = InstanceDelta::between(parent, &child);
    // What the shortcut answers, the name of the check it feeds, and the
    // configuration of the scratch solve it must match.
    let (check, answered, scratch_config) = if delta.is_identity() {
        stats.delta_identity += 1;
        ("delta-identity", Ok(parent_outcome.clone()), config.clone())
    } else if delta.bounds_transfer() {
        stats.delta_bound_transferred += 1;
        if child.num_tasks() <= MAX_BRUTE_FORCE_TASKS {
            stats.delta_bound_soundness += 1;
            // An infeasible child has no optimum to undercut.
            if let Some(optimum) = brute_force_makespan(&child) {
                if parent_outcome.lower_bound > optimum {
                    return Err(Disagreement::new(
                        "delta-bound-soundness",
                        &child,
                        format!(
                            "{:?} perturbation ({:?} delta): the transferred parent bound {} \
                             exceeds the child's brute-force optimum {optimum}",
                            perturbation.axis, delta.class, parent_outcome.lower_bound,
                        ),
                    ));
                }
            }
        }
        // A transferred bound is transparent only to heuristic-only
        // solves. It may still come from an exact parent solve: recorded
        // baselines carry proven bounds across solver configurations, and
        // a proven bound is the strongest hint a wrong transfer can give.
        let heuristic = SolverConfig {
            exact_node_budget: 0,
            ..config.clone()
        };
        let hints = SolveHints {
            external_lower_bound: Some(parent_outcome.lower_bound),
            ..SolveHints::default()
        };
        let hinted = solve_with_hints(&child, &heuristic, &hints).map(|(outcome, _)| outcome);
        ("delta-bound-transfer", hinted, heuristic)
    } else {
        // Nothing of the parent is reused, so there is nothing to compare.
        stats.delta_checked += 1;
        return Ok(());
    };
    stats.delta_checked += 1;
    let scratch = solve(&child, &scratch_config);
    let describe = |outcome: &Result<SolveOutcome, _>| match outcome {
        Ok(o) => format!("makespan {} / bound {}", o.makespan, o.lower_bound),
        Err(e) => format!("error ({e})"),
    };
    match (&scratch, &answered) {
        (Ok(a), Ok(b)) if a == b => Ok(()),
        (Err(_), Err(_)) => {
            stats.delta_infeasible_agreed += 1;
            Ok(())
        }
        _ => Err(Disagreement::new(
            check,
            &child,
            format!(
                "{:?} perturbation ({:?} delta): the shortcut reported {}, from scratch \
                 reported {} (full outcomes differ)",
                perturbation.axis,
                delta.class,
                describe(&answered),
                describe(&scratch),
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{fnv1a, TestRng};

    use crate::strategies::{arb_instance, InstanceParams};

    #[test]
    fn identity_perturbation_rebuilds_the_same_fingerprint() {
        let strat = arb_instance(InstanceParams::tiny());
        let hash = fnv1a("delta::identity-rebuild");
        for case in 0..50 {
            let mut rng = TestRng::new(hash, case);
            let instance = strat.generate(&mut rng);
            let p = Perturbation {
                axis: PerturbAxis::Identity,
                selector: case,
                magnitude: 1,
                grow: case % 2 == 0,
            };
            let rebuilt = apply_perturbation(&instance, &p);
            assert_eq!(
                rebuilt.fingerprint(),
                instance.fingerprint(),
                "identity rebuild drifted on case {case}"
            );
        }
    }

    #[test]
    fn every_axis_survives_the_differential_check() {
        let strat = arb_instance(InstanceParams::tiny());
        let perturbations = arb_perturbation();
        let config = SolverConfig::sweep();
        let hash = fnv1a("delta::axis-sweep");
        let mut stats = CheckStats::default();
        for case in 0..120 {
            let mut rng = TestRng::new(hash, case);
            let instance = strat.generate(&mut rng);
            let p = perturbations.generate(&mut rng);
            check_delta(&instance, &p, &config, &mut stats).unwrap();
        }
        assert!(stats.delta_checked > 0, "nothing was checked");
        assert!(
            stats.delta_identity > 0,
            "the identity replay was never checked"
        );
        assert!(
            stats.delta_bound_transferred > 0,
            "no parent bound was ever transferred"
        );
        assert!(
            stats.delta_bound_soundness > 0,
            "no transferred bound was checked against brute force"
        );
    }
}
