//! Property tests for the scheduler hot path, consuming the shared
//! `hilp-testkit` strategies (the generators that used to live here as
//! private copies).
//!
//! The event-driven timetable is cross-checked against the retained dense
//! reference on random placement/undo sequences, and the multi-start
//! heuristic is checked to be independent of thread count and timetable
//! representation.
//!
//! A second block checks the what-if reuse contract of [`InstanceDelta`]:
//! a chain of stepwise answers — the parent outcome on identity, the
//! parent's proven bound handed to the solver when it transfers, a plain
//! solve otherwise — must land on the same outcome as one from-scratch
//! solve of the final instance, and an identity delta must make the
//! cached parent outcome the child's bit for bit.

use proptest::prelude::*;
use proptest::TestCaseError;

use hilp_sched::{
    solve, solve_exact, solve_heuristic, solve_with_hints, Budget, InstanceDelta, Mode, SchedError,
    SolveHints, SolveOutcome, SolverConfig, Timetable, TimetableKind,
};
use hilp_sched::{MachineId, Schedule};
use hilp_testkit::delta::{apply_perturbation, arb_perturbation, PerturbAxis, Perturbation};
use hilp_testkit::strategies::{
    arb_instance, op_mode, shell_instance, timetable_ops, InstanceParams,
};

/// The determinism property compares the schedule-relevant parts of an
/// outcome, ignoring run statistics.
fn essence(result: &Result<SolveOutcome, SchedError>) -> Option<(u32, u32, &Schedule)> {
    result
        .as_ref()
        .ok()
        .map(|out| (out.makespan, out.lower_bound, &out.schedule))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-driven timetable must agree with the dense reference on
    /// every `earliest_start` probe across arbitrary place/undo sequences,
    /// and undo must restore the profiles exactly.
    #[test]
    fn timetable_representations_match_dense_reference(ops in timetable_ops()) {
        let (instance, res) = shell_instance();
        let mut event = Timetable::with_kind(&instance, TimetableKind::Event);
        let mut dense = Timetable::with_kind(&instance, TimetableKind::Dense);
        let mut placed: Vec<(Mode, u32)> = Vec::new();
        for op in &ops {
            let ((_, _, est), _, unplace) = *op;
            if unplace && !placed.is_empty() {
                let victim = usize::from(est) % placed.len();
                let (mode, start) = placed.swap_remove(victim);
                event.unplace(&mode, start);
                dense.unplace(&mode, start);
            } else {
                let mode = op_mode(op, res);
                let e = event.earliest_start(&mode, u32::from(est));
                let d = dense.earliest_start(&mode, u32::from(est));
                prop_assert_eq!(e, d, "event and dense earliest_start diverged");
                if let Some(start) = e {
                    event.place(&mode, start);
                    dense.place(&mode, start);
                    placed.push((mode, start));
                }
            }
            // Spot-check the aggregate profiles and a fresh probe per
            // machine after every operation.
            for t in [0u32, 13, 57, 200] {
                prop_assert_eq!(event.cores_at(t), dense.cores_at(t));
                prop_assert!((event.power_at(t) - dense.power_at(t)).abs() < 1e-9);
            }
            for m in 0..3 {
                let probe = Mode::on(MachineId(m), 3).power(1.5).cores(1);
                prop_assert_eq!(
                    event.earliest_start(&probe, 0),
                    dense.earliest_start(&probe, 0)
                );
            }
        }
    }

    /// The exact branch and bound is bit-identical for every worker count —
    /// schedule, makespan, bound, proof flag, node count, and truncation —
    /// both when it runs to completion and when a node budget cuts it off
    /// mid-search. Each run builds a fresh [`Budget`] because cloning one
    /// shares its meter.
    #[test]
    fn exact_search_is_worker_count_independent(
        instance in arb_instance(InstanceParams::tiny()),
        budget_nodes in prop::option::of(1..400u64),
    ) {
        let run = |threads: usize| {
            solve_exact(
                &instance,
                &SolverConfig {
                    bnb_threads: threads,
                    budget: budget_nodes.map_or_else(Budget::unlimited, Budget::nodes),
                    bound_termination: false,
                    ..SolverConfig::exact()
                },
            )
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            let other = run(threads);
            match (&reference, &other) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    a, b, "{} workers diverged (budget {:?})", threads, budget_nodes
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    return Err(TestCaseError::Fail(format!(
                        "feasibility verdicts diverged: 1 worker ok={}, {threads} \
                         workers ok={} (budget {budget_nodes:?})",
                        a.is_ok(),
                        b.is_ok()
                    )));
                }
            }
        }
    }

    /// The multi-start heuristic returns bit-identical schedules for any
    /// thread count and for every timetable representation — including on
    /// instances with lags, custom resources, and tight horizons.
    #[test]
    fn heuristic_is_thread_and_representation_independent(
        instance in arb_instance(InstanceParams::tiny()),
        seed in 0..1_000u64,
    ) {
        let base = SolverConfig {
            heuristic_starts: 12,
            local_search_passes: 1,
            seed,
            heuristic_threads: 1,
            timetable: TimetableKind::Event,
            ..SolverConfig::default()
        };
        let serial = solve_heuristic(&instance, &base);
        let parallel = solve_heuristic(
            &instance,
            &SolverConfig { heuristic_threads: 4, ..base.clone() },
        );
        prop_assert_eq!(
            essence(&serial),
            essence(&parallel),
            "thread count changed the result"
        );
        let dense = solve_heuristic(
            &instance,
            &SolverConfig { timetable: TimetableKind::Dense, ..base.clone() },
        );
        prop_assert_eq!(
            essence(&serial),
            essence(&dense),
            "the dense timetable changed the result"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Delta-chain invariance: applying N perturbations one at a time and
    /// answering each step the way the what-if paths do — the parent
    /// outcome on identity, a solve hinted with the parent's proven bound
    /// when [`InstanceDelta::bounds_transfer`] holds, a plain solve
    /// otherwise — must land on exactly the outcome a single from-scratch
    /// [`solve`] reports for the final instance. Every intermediate step is
    /// also checked against scratch, so a divergence is pinned to the first
    /// step that introduced it.
    #[test]
    fn delta_chains_match_one_shot_scratch_solves(
        instance in arb_instance(InstanceParams::tiny()),
        perturbations in prop::collection::vec(arb_perturbation(), 1..=4),
    ) {
        // The sweep's heuristic-only configuration: deterministic, and the
        // one where a transferred bound is result-transparent.
        let config = SolverConfig::sweep();
        let mut parent = instance;
        let mut parent_outcome = match solve(&parent, &config) {
            Ok(out) => out,
            // An infeasible root has no cached outcome to reuse.
            Err(_) => return Ok(()),
        };
        for (step, p) in perturbations.iter().enumerate() {
            let child = apply_perturbation(&parent, p);
            let scratch = solve(&child, &config);
            let delta = InstanceDelta::between(&parent, &child);
            let answered = if delta.is_identity() {
                Ok(parent_outcome.clone())
            } else {
                let hints = SolveHints {
                    external_lower_bound: delta
                        .bounds_transfer()
                        .then_some(parent_outcome.lower_bound),
                    ..SolveHints::default()
                };
                solve_with_hints(&child, &config, &hints).map(|(out, _)| out)
            };
            prop_assert_eq!(
                essence(&answered),
                essence(&scratch),
                "step {} ({:?} axis, {:?} delta) diverged from scratch",
                step,
                p.axis,
                delta.class
            );
            match answered {
                Ok(out) => {
                    parent = child;
                    parent_outcome = out;
                }
                // Infeasible child (scratch agreed above): the chain ends,
                // there is no outcome to carry forward.
                Err(_) => return Ok(()),
            }
        }
    }

    /// Identity-delta transparency: a perturbation that changes nothing must
    /// be classified as identity, and the cached parent outcome must be the
    /// child's bit-identically — schedule included, not just the makespan.
    #[test]
    fn identity_deltas_are_bit_transparent(
        instance in arb_instance(InstanceParams::tiny()),
        selector in 0..u64::MAX,
    ) {
        let config = SolverConfig::sweep();
        let parent_outcome = match solve(&instance, &config) {
            Ok(out) => out,
            Err(_) => return Ok(()),
        };
        let identity = Perturbation {
            axis: PerturbAxis::Identity,
            selector,
            magnitude: 1,
            grow: false,
        };
        let child = apply_perturbation(&instance, &identity);
        prop_assert_eq!(
            child.fingerprint(),
            instance.fingerprint(),
            "identity perturbation changed the instance fingerprint"
        );
        prop_assert!(InstanceDelta::between(&instance, &child).is_identity());
        let child_outcome = solve(&child, &config)
            .expect("an identity child of a feasible parent cannot fail");
        prop_assert_eq!(
            child_outcome,
            parent_outcome,
            "the child did not reproduce the cached parent outcome"
        );
    }
}
