//! Cross-point bound sharing must be invisible in every reported value.
//!
//! The sweep engine (PR: dominance-aware sweeps) reuses proven lower
//! bounds across design points along the dominance lattice, and lifts
//! incumbent schedules from dominated points onto their dominators. Both
//! are pure work-skipping: the properties here pin that a sweep with
//! sharing enabled is *bit-identical* to one with sharing disabled — a
//! stronger guarantee than the "within reported gap" contract the timing
//! harness checks — for random SoC lattices, random workloads, and any
//! thread count, and that lifted schedules are feasible on the dominating
//! SoC by independent re-verification.

use std::sync::Arc;

use proptest::prelude::*;

use hilp_core::{encode, Hilp, TimeStepPolicy};
use hilp_dse::{
    design_space, evaluate_space_recorded, evaluate_space_with_stats, lift_schedule, soc_dominates,
    DominanceLattice, ModelKind, SweepConfig,
};
use hilp_sched::{solve, solve_with_hints, InstanceDelta, SolveHints, SolverConfig};
use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_testkit::{arb_constraints, arb_soc, arb_workload};
use hilp_workloads::{Workload, WorkloadVariant};

/// A cheap but non-trivial sweep configuration: multi-start heuristic with
/// local search, no exact phase (the configuration class sharing targets).
fn sharing_config(threads: usize, share: bool) -> SweepConfig {
    SweepConfig {
        policy: TimeStepPolicy {
            initial_seconds: 10.0,
            target_steps: 40,
            refine_factor: 5.0,
            max_refinements: 2,
        },
        solver: SolverConfig {
            heuristic_starts: 16,
            local_search_passes: 1,
            exact_node_budget: 0,
            ..SolverConfig::default()
        },
        threads,
        memoize: true,
        share_bounds: share,
        ..SweepConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharing on vs off agree bit-for-bit on random SoC lattices drawn
    /// from the testkit strategies (random machine multisets give dense,
    /// sparse, and empty dominance relations) under random workloads and
    /// constraint sets.
    #[test]
    fn sharing_never_changes_results_on_random_lattices(
        workload in arb_workload(),
        socs in prop::collection::vec(arb_soc(), 2..5),
        constraints in arb_constraints(),
    ) {
        let shared = evaluate_space_with_stats(
            &workload, &socs, &constraints, ModelKind::Hilp, &sharing_config(2, true));
        let isolated = evaluate_space_with_stats(
            &workload, &socs, &constraints, ModelKind::Hilp, &sharing_config(2, false));
        match (shared, isolated) {
            (Ok((shared_points, stats)), Ok((isolated_points, _))) => {
                prop_assert_eq!(shared_points, isolated_points);
                prop_assert!(stats.bounds_shared);
            }
            // Random workloads can be infeasible (e.g. a phase that fits
            // no cluster under the drawn caps); both paths must agree on
            // the failure too.
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(
                false, "sharing changed the outcome class: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

/// With sharing enabled, the sweep's results are independent of the
/// worker-thread count (the work queue and bound publication order race,
/// but only affect how much work is skipped, never what is reported).
#[test]
fn shared_sweeps_are_thread_count_independent() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    // A dominance-rich subsample of the paper's space.
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(31).collect();
    assert!(socs.len() >= 10);
    let single = evaluate_space_with_stats(
        &workload,
        &socs,
        &constraints,
        ModelKind::Hilp,
        &sharing_config(1, true),
    )
    .unwrap();
    for threads in [2, 4] {
        let multi = evaluate_space_with_stats(
            &workload,
            &socs,
            &constraints,
            ModelKind::Hilp,
            &sharing_config(threads, true),
        )
        .unwrap();
        assert_eq!(single.0, multi.0, "{threads} threads changed results");
        assert_eq!(multi.1.threads_used, threads.min(socs.len()));
    }
}

/// A schedule solved on a dominated SoC, lifted onto a dominating SoC's
/// encoded instance, passes full independent feasibility verification
/// there — the property that makes lifted warm incumbents sound.
#[test]
fn lifted_schedules_verify_on_the_dominating_soc() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    let small = SocSpec::new(2)
        .with_gpu(16)
        .with_dsa(DsaSpec::new(4, "LUD"));
    let big = SocSpec::new(4)
        .with_gpu(16)
        .with_dsa(DsaSpec::new(4, "LUD"))
        .with_dsa(DsaSpec::new(16, "HS"));
    assert!(soc_dominates(&big, &small));

    let step = 2.0;
    let (from, _) = encode(&workload, &small, &constraints, step).unwrap();
    let (to, _) = encode(&workload, &big, &constraints, step).unwrap();
    let eval = Hilp::new(workload, small)
        .with_constraints(constraints)
        .with_policy(TimeStepPolicy::fixed(step))
        .with_solver(SolverConfig {
            heuristic_starts: 16,
            local_search_passes: 1,
            exact_node_budget: 0,
            ..SolverConfig::default()
        })
        .evaluate()
        .unwrap();
    assert!(eval.schedule.verify(&from).is_empty());

    let lifted = lift_schedule(&eval.schedule, &from, &to).expect("superset lift succeeds");
    let violations = lifted.verify(&to);
    assert!(
        violations.is_empty(),
        "lifted schedule violates: {violations:?}"
    );
    assert_eq!(
        lifted.starts, eval.schedule.starts,
        "lifting keeps start times"
    );
}

/// A tightening constraint edit inherits the parent's proven lower bound as
/// a termination certificate, and the certificate is sound: the child's
/// reported bound is never looser than the parent's, the child's makespan
/// never undercuts the inherited bound, and the certificate-armed outcome
/// is bit-identical to a from-scratch solve.
#[test]
fn tightening_certificates_are_sound_and_never_loosen() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(2)
        .with_gpu(16)
        .with_dsa(DsaSpec::new(4, "LUD"));
    let parent_constraints = Constraints::paper_default();
    let child_constraints = parent_constraints.with_power(520.0);
    let step = 2.0;
    let (parent, _) = encode(&workload, &soc, &parent_constraints, step).unwrap();
    let (child, _) = encode(&workload, &soc, &child_constraints, step).unwrap();
    let delta = InstanceDelta::between(&parent, &child);
    assert!(
        delta.bounds_transfer(),
        "lowering the power cap must classify as a tightening delta"
    );

    // Heuristic-only: the configuration class where the certificate tier is
    // provably transparent.
    let config = SolverConfig {
        heuristic_starts: 16,
        local_search_passes: 1,
        exact_node_budget: 0,
        ..SolverConfig::default()
    };
    let parent_outcome = solve(&parent, &config).unwrap();
    let hints = SolveHints {
        external_lower_bound: Some(parent_outcome.lower_bound),
        ..SolveHints::default()
    };
    let (answered, _) = solve_with_hints(&child, &config, &hints).unwrap();
    let scratch = solve(&child, &config).unwrap();
    assert_eq!(answered, scratch, "the certificate changed the result");
    assert!(
        answered.lower_bound >= parent_outcome.lower_bound,
        "tightening reported a looser bound ({} < {})",
        answered.lower_bound,
        parent_outcome.lower_bound
    );
    assert!(
        answered.makespan >= parent_outcome.lower_bound,
        "child makespan {} undercuts the inherited certificate {}",
        answered.makespan,
        parent_outcome.lower_bound
    );
}

/// Arming an edited sweep with the parent sweep's recorded baseline must be
/// invisible in the results — with dominance sharing on (certificates merge
/// with lattice-inherited bounds) and off (certificates stand alone) — while
/// actually taking the certificate tier on some levels.
#[test]
fn baseline_certificates_compose_with_dominance_sharing() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let parent_constraints = Constraints::paper_default();
    let edited_constraints = parent_constraints.with_power(550.0);
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(61).collect();
    assert!(socs.len() >= 5);

    let (_, _, baseline) = evaluate_space_recorded(
        &workload,
        &socs,
        &parent_constraints,
        ModelKind::Hilp,
        &sharing_config(2, true),
    )
    .unwrap();
    let baseline = Arc::new(baseline);

    let scratch = evaluate_space_with_stats(
        &workload,
        &socs,
        &edited_constraints,
        ModelKind::Hilp,
        &sharing_config(2, true),
    )
    .unwrap();
    for share in [true, false] {
        let armed_config = SweepConfig {
            baseline: Some(Arc::clone(&baseline)),
            ..sharing_config(2, share)
        };
        let (points, stats) = evaluate_space_with_stats(
            &workload,
            &socs,
            &edited_constraints,
            ModelKind::Hilp,
            &armed_config,
        )
        .unwrap();
        assert_eq!(
            points, scratch.0,
            "baseline certificates changed results (share_bounds = {share})"
        );
        assert_eq!(
            stats.delta_identity_points, 0,
            "an edited sweep must not replay points verbatim"
        );
        assert!(
            stats.delta_certified_levels > 0,
            "tightening edit took no certificates (share_bounds = {share})"
        );
    }
}

/// The work queue's loosest-first order is topological for the dominance
/// relation over the full 372-point paper space: every dominator is
/// scheduled before every point it dominates, so bounds flow forward.
#[test]
fn paper_space_order_is_topological_for_dominance() {
    let socs = design_space(4.0);
    let lattice = DominanceLattice::build(&socs);
    let mut position = vec![0usize; socs.len()];
    for (pos, &point) in lattice.order().iter().enumerate() {
        position[point] = pos;
    }
    assert!(
        lattice.edges() > 0,
        "the paper space has dominance structure"
    );
    for point in 0..socs.len() {
        for &dominator in lattice.dominators(point) {
            assert!(
                position[dominator] < position[point],
                "dominator {dominator} ordered after {point}"
            );
        }
    }
}
