//! The in-process sweep workloads: `fig7`, `lowpower` and `exact-energy`.
//!
//! A pass runs every leg (one `evaluate_space_*` call) of the workload
//! once, from scratch; nothing is reused between passes.

use std::time::Instant;

use hilp_core::{Constraints, EvaluatePolicy, SocSpec, SolverConfig, Workload, WorkloadVariant};
use hilp_dse::{
    evaluate_space_pareto, evaluate_space_streamed, evaluate_space_with_stats, DesignPoint,
    DominanceLattice, ModelKind, ParetoDesignPoint, SweepConfig, SweepStats, ThreadBudget,
};
use hilp_telemetry::{Counter, Journal, Telemetry};

use crate::common::{
    committed, finest_tick_bound, ms, space, timed_passes, timed_setup, FirstPoint, Opts, Outcome,
};
use crate::layers;
use crate::metrics::{mean, median, peak_rss_mb, ratio, tail, Ledger, Metrics};
use crate::reference::{close, Reference};
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig7,
    LowPower,
    ExactEnergy,
}

/// The branch-and-bound slice is every this-many-th SoC of the design
/// space, from the first (31 of 372). It does not move with the seed: the
/// slice's B&B work grows with the number of its levels that leave a gap
/// for B&B to close, and that number changes with the offset so much that
/// passes took 4.5 s at some offsets and 8.4 s at others.
const SLICE_STRIDE: usize = 12;
/// Node budget of each exact phase on the slice.
const SLICE_NODE_BUDGET: u64 = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LegKind {
    Sweep,
    Pareto,
    Slice,
}

struct Leg {
    name: &'static str,
    kind: LegKind,
    model: ModelKind,
    constraints: Constraints,
    socs: Vec<SocSpec>,
    config: SweepConfig,
    /// Its points count toward `within_10pct` and `mean_gap`.
    quality: bool,
    /// Its per-point times count toward `whatif_ms`.
    latency: bool,
}

struct Plan {
    workload: Workload,
    reference: Reference,
    legs: Vec<Leg>,
}

#[derive(Clone)]
struct LegOut {
    points: Vec<DesignPoint>,
    fronts: Vec<ParetoDesignPoint>,
    stats: SweepStats,
    seconds: f64,
    first_point_s: f64,
    /// Branch-and-bound nodes the sweep's solvers explored (slice leg only).
    bnb_nodes: u64,
}

fn plan(kind: Kind, opts: &Opts) -> Result<Plan, String> {
    let workload = Workload::rodinia(WorkloadVariant::Default);
    let reference = Reference::load("BENCH_sweep.json")?;
    let socs = space(opts.step);
    let paper = Constraints::paper_default();
    let t = opts.threads;
    let leg = |name, model, constraints, quality, latency| Leg {
        name,
        kind: LegKind::Sweep,
        model,
        constraints,
        socs: socs.clone(),
        config: committed(t),
        quality,
        latency,
    };
    let legs = match kind {
        Kind::Fig7 => vec![
            leg("hilp", ModelKind::Hilp, paper, true, true),
            leg("gables", ModelKind::Gables, paper, true, false),
            leg("ma", ModelKind::MultiAmdahl, paper, false, false),
        ],
        Kind::LowPower => vec![
            leg(
                "hilp@50W",
                ModelKind::Hilp,
                paper.with_power(50.0),
                true,
                true,
            ),
            leg(
                "hilp@20W",
                ModelKind::Hilp,
                paper.with_power(20.0),
                true,
                true,
            ),
        ],
        Kind::ExactEnergy => {
            let mut exact = leg("exact", ModelKind::Hilp, paper, true, true);
            exact.config.evaluate = EvaluatePolicy::exact();
            let mut pareto = leg("pareto", ModelKind::Hilp, paper, false, false);
            pareto.kind = LegKind::Pareto;
            let mut slice = leg("bnb-slice", ModelKind::Hilp, paper, false, false);
            slice.kind = LegKind::Slice;
            slice.socs = socs.iter().step_by(SLICE_STRIDE).cloned().collect();
            slice.config = SweepConfig {
                solver: SolverConfig {
                    exact_node_budget: SLICE_NODE_BUDGET,
                    exact_task_threshold: usize::MAX,
                    bnb_threads: t,
                    ..committed(1).solver
                },
                ..committed(1)
            };
            vec![exact, pareto, slice]
        }
    };
    Ok(Plan {
        workload,
        reference,
        legs,
    })
}

fn run_leg(plan: &Plan, leg: &Leg, tracer: &Tracer) -> Result<LegOut, String> {
    let socs = &leg.socs;
    let observer = FirstPoint::new();
    let t0 = Instant::now();
    let mut out = LegOut {
        points: Vec::new(),
        fronts: Vec::new(),
        stats: SweepStats::default(),
        seconds: 0.0,
        first_point_s: f64::NAN,
        bnb_nodes: 0,
    };
    // The slice leg counts its B&B nodes, so the check sees whether the
    // timed sweep itself reached branch and bound. Only the counters are
    // read; the event ring is kept at its smallest.
    let mut config = leg.config.clone();
    if leg.kind == LegKind::Slice {
        config.telemetry = Telemetry::with_capacity(1);
    }
    if leg.kind == LegKind::Pareto {
        let _span = tracer.span("dse.pareto");
        out.fronts = evaluate_space_pareto(&plan.workload, socs, &leg.constraints, &config)
            .map_err(|e| format!("{}: {e}", leg.name))?;
    } else {
        let _span = tracer.span("dse.sweep");
        (out.points, out.stats) = evaluate_space_streamed(
            &plan.workload,
            socs,
            &leg.constraints,
            leg.model,
            &config,
            &observer,
        )
        .map_err(|e| format!("{}: {e}", leg.name))?;
        out.first_point_s = observer.seconds();
    }
    out.seconds = t0.elapsed().as_secs_f64();
    out.bnb_nodes = config.telemetry.counter(Counter::BnbNodes);
    Ok(out)
}

fn run_pass(plan: &Plan, tracer: &Tracer) -> Result<(Vec<LegOut>, f64), String> {
    let t0 = Instant::now();
    let outs = plan
        .legs
        .iter()
        .map(|leg| run_leg(plan, leg, tracer))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((outs, t0.elapsed().as_secs_f64()))
}

fn pass_points(outs: &[LegOut]) -> usize {
    outs.iter().map(|o| o.points.len() + o.fronts.len()).sum()
}

/// Halves the first point of the first leg. Applied to every pass alike,
/// so the passes stay identical and only the output checks can see it.
fn corrupt(outs: &mut [LegOut]) {
    if let Some(p) = outs[0].points.first_mut() {
        p.makespan_seconds *= 0.5;
    }
}

/// Output checks on the first pass, bit-identity of every later pass to
/// the first, and the code-path checks on every pass.
fn check(plan: &Plan, kind: Kind, passes: &[Vec<LegOut>], ledger: &mut Ledger) {
    let first = &passes[0];
    let r = &plan.reference;
    for (leg, out) in plan.legs.iter().zip(first) {
        for p in &out.points {
            let sane = p.makespan_seconds.is_finite()
                && p.makespan_seconds > 0.0
                && (0.0..=1.0).contains(&p.gap);
            let ok = sane
                && match (kind, leg.kind) {
                    (Kind::Fig7, _) => r.matches(leg.model, p),
                    (Kind::ExactEnergy, LegKind::Sweep) => {
                        let grid = r.point(ModelKind::Hilp, &p.label);
                        grid.is_some_and(|g| p.makespan_seconds <= g.makespan_seconds + 1e-9)
                            && above_bound(plan, leg, p)
                    }
                    _ => above_bound(plan, leg, p),
                };
            ledger.op(ok, || {
                format!(
                    "{} {}: makespan {} failed its check",
                    leg.name, p.label, p.makespan_seconds
                )
            });
        }
        for f in &out.fronts {
            let ok = front_ok(r, f);
            ledger.op(ok, || {
                format!("{} {}: front failed its check", leg.name, f.point.label)
            });
        }
    }
    for later in &passes[1..] {
        for ((leg, a), b) in plan.legs.iter().zip(first).zip(later) {
            let same = a.points == b.points && a.fronts == b.fronts;
            ledger.op(same, || {
                format!("{}: a later pass differs from the first", leg.name)
            });
        }
    }
    if kind == Kind::Fig7 {
        let early = first[0].stats.early_terminated_levels;
        ledger.op(early > 0, || {
            "fig7: no HILP level terminated early on its bound".into()
        });
    }
    for pass in passes {
        for (leg, out) in plan.legs.iter().zip(pass) {
            if leg.kind == LegKind::Slice {
                ledger.op(out.bnb_nodes > 0, || {
                    format!("{}: the timed sweep explored no B&B nodes", leg.name)
                });
            }
        }
    }
}

fn above_bound(plan: &Plan, leg: &Leg, p: &DesignPoint) -> bool {
    finest_tick_bound(&plan.workload, &p.soc, &leg.constraints, &leg.config)
        .is_ok_and(|lb| p.makespan_seconds >= lb * (1.0 - 1e-9))
}

/// A front is well-shaped (makespan strictly ascending, energy strictly
/// descending), its scalar point is the committed HILP point, and where a
/// front is committed it is reproduced exactly.
fn front_ok(r: &Reference, f: &ParetoDesignPoint) -> bool {
    let shaped = !f.front.is_empty()
        && f.front.windows(2).all(|w| {
            w[0].makespan_seconds < w[1].makespan_seconds && w[0].energy_joules > w[1].energy_joules
        });
    let scalar = r.matches(ModelKind::Hilp, &f.point);
    let committed =
        r.fronts
            .iter()
            .find(|c| c.soc == f.point.label)
            .is_none_or(|c| {
                c.complete == f.complete
                    && c.points.len() == f.front.len()
                    && c.points.iter().zip(&f.front).all(|(&(m, e), t)| {
                        close(m, t.makespan_seconds) && close(e, t.energy_joules)
                    })
            });
    shaped && scalar && committed
}

/// Branch and bound on the slice's level instances, one per solved
/// refinement level.
#[derive(Debug, Clone, Copy)]
struct BnbRun {
    one_s: f64,
    many_s: f64,
    nodes: u64,
}

/// Branch-and-bound checks on slice points, taken in order until
/// `enough` says stop: on every level instance 1 and `threads` workers
/// agree bit for bit, and somewhere the exact phase ran and explored
/// nodes. Returns the runs where it did, and each point's evaluate time.
fn check_bnb(
    plan: &Plan,
    tracer: &Tracer,
    threads: usize,
    enough: &dyn Fn(&[BnbRun]) -> bool,
    ledger: &mut Ledger,
) -> (Vec<BnbRun>, Vec<f64>) {
    let mut runs = Vec::new();
    let mut evaluate_s = Vec::new();
    let Some(leg) = plan.legs.iter().find(|l| l.kind == LegKind::Slice) else {
        return (runs, evaluate_s);
    };
    let (w, c) = (&plan.workload, &leg.constraints);
    for soc in &leg.socs {
        if enough(&runs) {
            break;
        }
        let instances = match layers::level_instances(tracer, w, soc, c, &leg.config) {
            Ok((instances, seconds)) => {
                evaluate_s.push(seconds);
                instances
            }
            Err(e) => {
                ledger.error(e);
                continue;
            }
        };
        let mut same = true;
        for instance in &instances {
            let one = layers::solve_bnb(tracer, instance, &leg.config.solver, 1);
            let many = layers::solve_bnb(tracer, instance, &leg.config.solver, threads.max(2));
            match (one, many) {
                (Ok((a, one_s)), Ok((b, many_s))) => {
                    same &= a == b;
                    if a.stats.exact_phase_ran && a.stats.bnb_nodes > 0 {
                        runs.push(BnbRun {
                            one_s,
                            many_s,
                            nodes: a.stats.bnb_nodes,
                        });
                    }
                }
                (Err(e), _) | (_, Err(e)) => ledger.error(e),
            }
        }
        ledger.op(same, || {
            format!(
                "{}: branch and bound differs between worker counts",
                soc.label()
            )
        });
    }
    ledger.op(!runs.is_empty(), || {
        "exact-energy: branch and bound explored no nodes on the slice".into()
    });
    (runs, evaluate_s)
}

fn quality(plan: &Plan, outs: &[LegOut]) -> (f64, f64) {
    let gaps: Vec<f64> = plan
        .legs
        .iter()
        .zip(outs)
        .filter(|(leg, _)| leg.quality)
        .flat_map(|(_, o)| o.points.iter().map(|p| p.gap))
        .collect();
    let within = gaps.iter().filter(|&&g| g <= 0.10 + 1e-12).count();
    (ratio(within as f64, gaps.len() as f64), mean(&gaps))
}

fn latencies(plan: &Plan, outs: &[LegOut]) -> Vec<f64> {
    plan.legs
        .iter()
        .zip(outs)
        .filter(|(leg, _)| leg.latency)
        .flat_map(|(_, o)| o.stats.point_seconds.iter().copied())
        .collect()
}

fn context(plan: &Plan, first: &[LegOut]) -> Vec<(&'static str, String)> {
    let legs: Vec<String> = plan
        .legs
        .iter()
        .zip(first)
        .map(|(l, o)| {
            format!(
                "{{\"leg\": \"{}\", \"points\": {}, \"threads_used\": {}, \"parallelism_fallback\": {}, \"heuristic_threads\": {}, \"bnb_threads\": {}, \"bnb_nodes\": {}}}",
                l.name,
                o.points.len() + o.fronts.len(),
                o.stats.threads_used,
                o.stats.parallelism_fallback,
                l.config.solver.heuristic_threads,
                l.config.solver.bnb_threads,
                o.bnb_nodes,
            )
        })
        .collect();
    vec![("legs", format!("[{}]", legs.join(", ")))]
}

pub fn run(kind: Kind, opts: &Opts) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let (plan, setup_s) = timed_setup(|| plan(kind, opts))?;
    let mut ledger = Ledger::default();
    if opts.trace {
        return traced(kind, opts, &plan, run_start, ledger);
    }
    let off = Tracer::new(false);
    let mut rss = f64::NAN;
    let mut passes: Vec<(Vec<LegOut>, f64)> = timed_passes(opts.seconds, 2, |i| {
        let pass = run_pass(&plan, &off);
        if i == 0 {
            rss = peak_rss_mb();
        }
        pass
    })?;
    if opts.corrupt {
        for (outs, _) in &mut passes {
            corrupt(outs);
        }
    }
    let outs: Vec<Vec<LegOut>> = passes.iter().map(|(o, _)| o.clone()).collect();
    check(&plan, kind, &outs, &mut ledger);
    if kind == Kind::ExactEnergy {
        check_bnb(
            &plan,
            &off,
            opts.threads,
            &|runs| !runs.is_empty(),
            &mut ledger,
        );
    }

    let mut m = Metrics::default();
    let rates: Vec<f64> = passes
        .iter()
        .map(|(o, s)| pass_points(o) as f64 / s)
        .collect();
    let all: Vec<f64> = passes.iter().map(|(_, s)| *s).collect();
    let lat: Vec<f64> = outs.iter().flat_map(|o| latencies(&plan, o)).collect();
    let (within, gap) = quality(&plan, &outs[0]);
    m.set("setup_s", setup_s);
    m.set("points_per_s", median(&rates));
    m.set("job_cold_s", median(&all));
    m.set("whatif_ms", ms(median(&lat)));
    m.set("within_10pct", within);
    m.set("mean_gap", gap);
    m.set("peak_rss_mb", rss);
    let mut context = context(&plan, &outs[0]);
    let leg_seconds: Vec<String> = outs
        .iter()
        .map(|o| {
            let s: Vec<String> = o.iter().map(|l| crate::json::num(l.seconds)).collect();
            format!("[{}]", s.join(", "))
        })
        .collect();
    context.push((
        "leg_seconds_per_pass",
        format!("[{}]", leg_seconds.join(", ")),
    ));
    context.push(("passes", passes.len().to_string()));
    context.push(("whatif_samples", lat.len().to_string()));
    Ok(Outcome {
        metrics: m,
        ledger,
        context,
    })
}

/// Replayed layer times of one workload's traced run, in seconds.
#[derive(Default)]
struct Layers {
    /// Per leg: mean replayed per-point time.
    leg_point_s: Vec<Vec<f64>>,
    points: Vec<layers::PointReplay>,
    gables: Vec<f64>,
    ma: Vec<f64>,
    exact_minus_grid: Vec<f64>,
    pareto: Vec<f64>,
    bnb: Vec<BnbRun>,
    slice_evaluate: Vec<f64>,
}

/// The traced run: an untraced pass, a traced pass of the same work, then
/// per-point layer replays until the time is spent.
fn traced(
    kind: Kind,
    opts: &Opts,
    plan: &Plan,
    run_start: Instant,
    mut ledger: Ledger,
) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let (mut untraced, untraced_s) = run_pass(plan, &off)?;
    let tracer = Tracer::new(true);
    let root = tracer.span("bench.run");
    let (mut outs, traced_s) = run_pass(plan, &tracer)?;
    if opts.corrupt {
        corrupt(&mut outs);
        corrupt(&mut untraced);
    }
    let journal = journal_sweep(plan, &plan.legs[0])?;
    let lattice: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .time("dse.lattice", || {
                    DominanceLattice::build(&plan.legs[0].socs)
                })
                .1
        })
        .collect();

    let deadline = run_start + std::time::Duration::from_secs_f64(opts.seconds);
    let mut lay = Layers {
        leg_point_s: vec![Vec::new(); plan.legs.len()],
        ..Layers::default()
    };
    if kind == Kind::ExactEnergy {
        // Branch and bound gets half of the time left for replays.
        let half = deadline.saturating_duration_since(Instant::now()) / 2;
        let stop = Instant::now() + half;
        let enough = |runs: &[BnbRun]| !runs.is_empty() && Instant::now() > stop;
        (lay.bnb, lay.slice_evaluate) =
            check_bnb(plan, &tracer, opts.threads, &enough, &mut ledger);
    }
    let socs = &plan.legs[0].socs;
    let order: Vec<usize> = (0..socs.len()).map(|k| (k * 37) % socs.len()).collect();
    for (done, &i) in order.iter().enumerate() {
        if done >= 3 && Instant::now() > deadline {
            break;
        }
        let w = &plan.workload;
        for (li, leg) in plan.legs.iter().enumerate() {
            let soc = &socs[i];
            let (c, cfg) = (&leg.constraints, &leg.config);
            let step = match (leg.kind, leg.model, cfg.evaluate) {
                (LegKind::Slice, ..) => Ok(()),
                (LegKind::Pareto, ..) => layers::replay_pareto(&tracer, w, soc, c, cfg).map(|s| {
                    lay.pareto.push(s);
                    lay.leg_point_s[li].push(s);
                }),
                (_, ModelKind::Hilp, EvaluatePolicy::Exact) => {
                    layers::replay_exact(&tracer, w, soc, c, cfg).map(|(grid, exact)| {
                        lay.exact_minus_grid.push(exact - grid);
                        lay.leg_point_s[li].push(exact);
                    })
                }
                (_, ModelKind::Hilp, _) => layers::replay_hilp(&tracer, w, soc, c, cfg).map(|r| {
                    lay.leg_point_s[li].push(r.evaluate);
                    lay.points.push(r);
                }),
                (_, ModelKind::Gables, _) => {
                    layers::replay_baselines(&tracer, w, soc, c, cfg).map(|(g, ma)| {
                        lay.gables.push(g);
                        lay.ma.push(ma);
                        lay.leg_point_s[li].push(g);
                    })
                }
                (_, ModelKind::MultiAmdahl, _) => Ok(()),
            };
            if let Err(e) = step {
                ledger.error(e);
            }
        }
    }
    if let Some(li) = plan
        .legs
        .iter()
        .position(|l| l.model == ModelKind::MultiAmdahl)
    {
        lay.leg_point_s[li] = lay.ma.clone();
    }
    if let Some(li) = plan.legs.iter().position(|l| l.kind == LegKind::Slice) {
        lay.leg_point_s[li] = lay.slice_evaluate.clone();
    }
    drop(root);
    check(plan, kind, &[outs.clone(), untraced], &mut ledger);

    let mut m = Metrics::per_layer();
    layer_metrics(&mut m, plan, opts, &outs, &lay);
    m.set("dse.lattice_ms", ms(median(&lattice)));
    m.set("trace.overhead_frac", (traced_s - untraced_s) / untraced_s);
    let context = crate::finish_trace(&tracer, &journal, &mut m, &mut ledger, &opts.workload);
    Ok(Outcome {
        metrics: m,
        ledger,
        context,
    })
}

/// The telemetry journal of one more sweep of `leg` with the program's
/// own telemetry on. It is timed by no metric; its spans are checked
/// for negative self time.
fn journal_sweep(plan: &Plan, leg: &Leg) -> Result<Journal, String> {
    let config = SweepConfig {
        telemetry: Telemetry::with_capacity(crate::trace::JOURNAL_EVENTS),
        ..leg.config.clone()
    };
    evaluate_space_with_stats(
        &plan.workload,
        &leg.socs,
        &leg.constraints,
        leg.model,
        &config,
    )
    .map_err(|e| format!("{}: {e}", leg.name))?;
    Ok(config.telemetry.journal())
}

fn layer_metrics(m: &mut Metrics, plan: &Plan, opts: &Opts, outs: &[LegOut], lay: &Layers) {
    let sweeps: Vec<&LegOut> = plan
        .legs
        .iter()
        .zip(outs)
        .filter(|(l, _)| l.model == ModelKind::Hilp && l.kind != LegKind::Pareto)
        .map(|(_, o)| o)
        .collect();
    let sum = |f: fn(&SweepStats) -> f64| sweeps.iter().map(|o| f(&o.stats)).sum::<f64>();
    let levels = sum(|s| s.levels_solved as f64);
    m.set(
        "dse.sweep_s",
        mean(&outs.iter().map(|o| o.seconds).collect::<Vec<_>>()),
    );
    m.set("dse.first_point_ms", ms(outs[0].first_point_s));
    let selfs: Vec<f64> = outs
        .iter()
        .zip(&lay.leg_point_s)
        .map(|(o, per_point)| {
            let n = o.points.len() + o.fronts.len();
            // A Pareto sweep reports no stats; it splits threads the same way.
            let threads = match o.stats.threads_used {
                0 => ThreadBudget::split(opts.threads, n).outer,
                used => used,
            };
            o.seconds - n as f64 * mean(per_point) / threads as f64
        })
        .collect();
    m.set("dse.self_s", mean(&selfs));
    m.set(
        "dse.cache_hit_ratio",
        ratio(
            sum(|s| s.cache_hits as f64),
            sum(|s| (s.solves + s.cache_hits) as f64),
        ),
    );
    m.set(
        "dse.early_level_ratio",
        ratio(sum(|s| s.early_terminated_levels as f64), levels),
    );
    m.set(
        "dse.inherited_level_ratio",
        ratio(sum(|s| s.bound_inherited_levels as f64), levels),
    );
    m.set(
        "dse.jobs_executed_ratio",
        ratio(
            sum(|s| s.heuristic_jobs_executed as f64),
            sum(|s| s.heuristic_jobs_total as f64),
        ),
    );
    let point_s: Vec<f64> = sweeps
        .iter()
        .flat_map(|o| o.stats.point_seconds.iter().copied())
        .collect();
    m.set("dse.point_ms_p50", ms(median(&point_s)));
    m.set("dse.point_ms_tail", ms(tail(&point_s)));
    let fronts: Vec<&ParetoDesignPoint> = outs.iter().flat_map(|o| &o.fronts).collect();
    let complete = fronts.iter().filter(|f| f.complete).count();
    m.set(
        "dse.fronts_complete",
        ratio(complete as f64, fronts.len() as f64),
    );

    let p = &lay.points;
    let all_levels: Vec<&layers::LevelTimes> = p.iter().flat_map(|r| &r.levels).collect();
    let per_level = |f: fn(&layers::LevelTimes) -> f64| {
        ms(mean(&all_levels.iter().map(|l| f(l)).collect::<Vec<_>>()))
    };
    m.set(
        "core.evaluate_ms",
        ms(mean(&p.iter().map(|r| r.evaluate).collect::<Vec<_>>())),
    );
    m.set(
        "core.levels",
        ratio(all_levels.len() as f64, p.len() as f64),
    );
    m.set("core.encode_ms", per_level(|l| l.encode));
    m.set(
        "core.self_ms",
        ms(mean(
            &p.iter()
                .map(layers::PointReplay::self_seconds)
                .collect::<Vec<_>>(),
        )),
    );
    m.set("core.exact_ms", ms(mean(&lay.exact_minus_grid)));
    m.set("core.pareto_ms", ms(mean(&lay.pareto)));
    m.set("sched.bound_ms", per_level(|l| l.bound));
    m.set("sched.heuristic_ms", per_level(|l| l.heuristic));
    let jobs =
        |f: fn(&layers::LevelTimes) -> usize| all_levels.iter().map(|l| f(l) as f64).sum::<f64>();
    m.set(
        "sched.heuristic_jobs_ratio",
        ratio(
            jobs(|l| l.telemetry.heuristic_jobs_executed),
            jobs(|l| l.telemetry.heuristic_jobs_total),
        ),
    );
    let bnb = &lay.bnb;
    let one: Vec<f64> = bnb.iter().map(|b| b.one_s).collect();
    let many: Vec<f64> = bnb.iter().map(|b| b.many_s).collect();
    let nodes: Vec<f64> = bnb.iter().map(|b| b.nodes as f64).collect();
    m.set("sched.bnb_ms_1w", ms(mean(&one)));
    m.set("sched.bnb_ms_2w", ms(mean(&many)));
    m.set("sched.bnb_nodes", mean(&nodes));
    m.set(
        "sched.bnb_nodes_per_s",
        ratio(nodes.iter().sum(), many.iter().sum()),
    );
    m.set("baselines.gables_ms", ms(mean(&lay.gables)));
    m.set("baselines.ma_ms", ms(mean(&lay.ma)));
}
