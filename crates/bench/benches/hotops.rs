//! Micro-benchmarks for the sweep engine's hot operations: every
//! timetable backend's feasibility probe and place/undo splice (the inner
//! loop of every SGS pass), the dominance-lattice build over the Fig. 7
//! space, and the full evaluator under grid refinement vs. the single
//! exact finest-tick solve.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use hilp_core::{
    encode, Constraints, EvaluatePolicy, Hilp, SocSpec, TimeStepPolicy, Workload, WorkloadVariant,
};
use hilp_dse::{design_space, DominanceLattice};
use hilp_sched::{
    solve_exact, solve_heuristic, Instance, InstanceBuilder, Mode, SolverConfig, TaskId, Timetable,
    TimetableKind,
};

fn timetable_bench(c: &mut Criterion) {
    // The paper's flagship-sized instance at a validation-grade step: ~30
    // tasks over 66 machines, the shape every Fig. 7 sweep level solves.
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(64);
    let (instance, _) = encode(&workload, &soc, &Constraints::paper_default(), 2.0).unwrap();
    let schedule = solve_heuristic(
        &instance,
        &SolverConfig {
            heuristic_starts: 40,
            local_search_passes: 1,
            ..SolverConfig::default()
        },
    )
    .unwrap()
    .schedule;

    for kind in [TimetableKind::Event, TimetableKind::Dense] {
        // A realistically occupied timetable: the full heuristic schedule.
        let mut occupied = Timetable::with_kind(&instance, kind);
        for (i, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate() {
            occupied.place(instance.mode(TaskId(i), mode), start);
        }

        let mut group = c.benchmark_group("hotops/fits_at");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &occupied,
            |b, timetable| {
                // Probe every task's first mode at a spread of starts: the
                // exact query mix the serial SGS issues while scanning for
                // a slot.
                b.iter(|| {
                    let mut acc = 0u64;
                    for (i, &start) in schedule.starts.iter().enumerate() {
                        let mode = instance.mode(TaskId(i), schedule.modes[i]);
                        for probe in [0, start / 2, start, start + 7] {
                            acc = acc.wrapping_add(match timetable.fits_at(mode, probe) {
                                Ok(()) => 1,
                                Err(next) => u64::from(next),
                            });
                        }
                    }
                    black_box(acc)
                });
            },
        );
        group.finish();

        let mut group = c.benchmark_group("hotops/place_unplace");
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &(),
            |b, ()| {
                // Splice every task in and back out of an occupied
                // timetable — the undo pattern of local search moves.
                let mut timetable = Timetable::with_kind(&instance, kind);
                for (i, (&start, &mode)) in schedule.starts.iter().zip(&schedule.modes).enumerate()
                {
                    timetable.place(instance.mode(TaskId(i), mode), start);
                }
                b.iter(|| {
                    for (i, &start) in schedule.starts.iter().enumerate() {
                        let mode = instance.mode(TaskId(i), schedule.modes[i]);
                        timetable.unplace(mode, start);
                        timetable.place(mode, start);
                    }
                    black_box(timetable.power_at(0))
                });
            },
        );
        group.finish();
    }
}

fn lattice_bench(c: &mut Criterion) {
    let socs = design_space(4.0);
    c.bench_function("hotops/lattice_build_372", |b| {
        b.iter(|| black_box(DominanceLattice::build(&socs).edges()));
    });
}

/// Three pipelined apps on a heterogeneous SoC — small enough to exhaust,
/// big enough (thousands of frontier expansions) that the exact search
/// dominates the one-start heuristic in front of it.
fn bnb_instance() -> Instance {
    let mut b = InstanceBuilder::new();
    let cpu = b.add_machine("cpu");
    let gpu = b.add_machine("gpu");
    let dsa = b.add_machine("dsa");
    for (name, cpu_t, gpu_t, dsa_t) in [("m", 8, 6, 5), ("n", 5, 3, 2), ("p", 7, 4, 6)] {
        let s = b.add_task(format!("{name}0"), vec![Mode::on(cpu, 1)]);
        let c = b.add_task(
            format!("{name}1"),
            vec![
                Mode::on(cpu, cpu_t),
                Mode::on(gpu, gpu_t),
                Mode::on(dsa, dsa_t),
            ],
        );
        let t = b.add_task(format!("{name}2"), vec![Mode::on(cpu, 1)]);
        b.add_precedence(s, c);
        b.add_precedence(c, t);
    }
    b.set_horizon(40);
    b.build().unwrap()
}

fn bnb_bench(c: &mut Criterion) {
    // Branch-and-bound node throughput and worker scaling. Every worker
    // count runs the *same* deterministic search (bit-identical results,
    // checked below), so the group measures pure parallel efficiency of
    // the round engine: ~1.0x on one core, approaching the worker count on
    // a multi-core runner.
    let inst = bnb_instance();
    let solver = |threads: usize| SolverConfig {
        heuristic_starts: 1,
        local_search_passes: 0,
        bound_termination: false,
        bnb_threads: threads,
        ..SolverConfig::default()
    };
    let reference = solve_exact(&inst, &solver(1)).unwrap();
    assert!(reference.proved_optimal);
    let mut group = c.benchmark_group("hotops/bnb_search");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        let outcome = solve_exact(&inst, &solver(threads)).unwrap();
        assert_eq!(
            (outcome.makespan, outcome.stats.bnb_nodes),
            (reference.makespan, reference.stats.bnb_nodes),
            "{threads} workers diverged"
        );
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(solve_exact(&inst, &solver(t)).unwrap().makespan));
        });
    }
    group.finish();
}

fn evaluate_policy_bench(c: &mut Criterion) {
    // One full evaluator run on a flagship design point: the paper's grid
    // cascade (a solve per refinement level) against the exact path (the
    // cascade as a pilot plus one finest-tick event-backend solve
    // seeded with the lifted pilot schedule).
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let soc = SocSpec::new(4).with_gpu(16);
    let solver = SolverConfig {
        heuristic_starts: 60,
        local_search_passes: 1,
        exact_node_budget: 0,
        ..SolverConfig::default()
    };
    let mut group = c.benchmark_group("hotops/evaluate");
    group.sample_size(10);
    for (name, policy) in [
        ("grid_refinement", EvaluatePolicy::grid()),
        ("exact", EvaluatePolicy::exact()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let eval = Hilp::new(workload.clone(), soc.clone())
                    .with_constraints(Constraints::paper_default())
                    .with_policy(TimeStepPolicy::sweep())
                    .with_solver(solver.clone())
                    .with_evaluate_policy(policy)
                    .evaluate()
                    .unwrap();
                black_box(eval.makespan_seconds)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = timetable_bench, lattice_bench, bnb_bench, evaluate_policy_bench
}
criterion_main!(benches);
