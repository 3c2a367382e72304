//! Recorded-baseline certificates and sweep determinism.
//!
//! A sweep armed with a [`SweepBaseline`](hilp_dse::SweepBaseline) of a
//! related scenario injects the recorded per-level bounds wherever the
//! edit is a pure tightening. The properties here pin that certificates
//! are sound and invisible in every reported value, that sweeps are
//! bit-identical for any thread count, and that the dominance lattice's
//! loosest-first order is topological over the paper's space.

use std::sync::Arc;

use hilp_core::{encode, TimeStepPolicy};
use hilp_dse::{
    design_space, evaluate_space_recorded, evaluate_space_with_stats, DominanceLattice, ModelKind,
    SweepConfig,
};
use hilp_sched::{solve, solve_with_hints, InstanceDelta, SolveHints, SolverConfig};
use hilp_soc::{Constraints, DsaSpec, SocSpec};
use hilp_workloads::{Workload, WorkloadVariant};

/// A cheap but non-trivial sweep configuration: multi-start heuristic with
/// local search, no exact phase (the configuration class certificates
/// target).
fn sweep_config(threads: usize) -> SweepConfig {
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
        ..SweepConfig::default()
    }
}

/// A sweep's results are independent of the worker-thread count (the
/// work queue and memo inserts race, but only affect how much work is
/// skipped, never what is reported).
#[test]
fn sweeps_are_thread_count_independent() {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let constraints = Constraints::paper_default();
    // A subsample of the paper's space crossing every axis.
    let socs: Vec<_> = design_space(4.0).into_iter().step_by(31).collect();
    assert!(socs.len() >= 10);
    let single = evaluate_space_with_stats(
        &workload,
        &socs,
        &constraints,
        ModelKind::Hilp,
        &sweep_config(1),
    )
    .unwrap();
    for threads in [2, 4] {
        let multi = evaluate_space_with_stats(
            &workload,
            &socs,
            &constraints,
            ModelKind::Hilp,
            &sweep_config(threads),
        )
        .unwrap();
        assert_eq!(single.0, multi.0, "{threads} threads changed results");
        assert_eq!(multi.1.threads_used, threads.min(socs.len()));
    }
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
/// invisible in the results while actually taking the certificate tier on
/// some levels.
#[test]
fn baseline_certificates_keep_edited_sweeps_bit_identical() {
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
        &sweep_config(2),
    )
    .unwrap();

    let (scratch, _) = evaluate_space_with_stats(
        &workload,
        &socs,
        &edited_constraints,
        ModelKind::Hilp,
        &sweep_config(2),
    )
    .unwrap();
    let armed_config = SweepConfig {
        baseline: Some(Arc::new(baseline)),
        ..sweep_config(2)
    };
    let (points, stats) = evaluate_space_with_stats(
        &workload,
        &socs,
        &edited_constraints,
        ModelKind::Hilp,
        &armed_config,
    )
    .unwrap();
    assert_eq!(points, scratch, "baseline certificates changed results");
    assert_eq!(
        stats.delta_identity_points, 0,
        "an edited sweep must not replay points verbatim"
    );
    assert!(
        stats.bound_inherited_levels > 0,
        "tightening edit took no certificates"
    );
}

/// The lattice's loosest-first order is topological for the dominance
/// relation over the full 372-point paper space: every dominator precedes
/// every point it dominates.
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
