//! The `hilpd` workload: one closed-loop client against an in-process
//! daemon on loopback TCP.
//!
//! Each pass starts a fresh daemon, runs one cold HILP sweep job (which
//! records a baseline), [`WARM_JOBS`] identical warm jobs (answered by
//! identity replay), and [`SPEC_JOBS`] single-SoC what-if jobs whose power
//! and bandwidth edits the seed picks. The two counts only set how many
//! samples a pass gives `server.job_warm_ms` and `whatif_ms`; no metric
//! weights one kind of job against another. Every job opens its own
//! connection, as the `hilp submit` client does: a job submitted on the
//! same connection right after the previous job's terminal record can be
//! refused while the daemon has not yet reaped that job's thread.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

use hilp_core::{Constraints, Evaluation, Hilp, WhatIfPath, Workload, WorkloadVariant};
use hilp_dse::{
    evaluate_space_with_stats, specfile, DesignPoint, DominanceLattice, ModelKind, SweepConfig,
};
use hilp_server::{
    parse_request, render_request, JobSpec, Request, Server, ServerConfig, SubmitRequest,
};
use hilp_telemetry::{Record, Telemetry};

use crate::common::{committed, ms, space, timed_passes, Opts, Outcome, Rng, SETUP_REPS};
use crate::layers::evaluator;
use crate::metrics::{mean, median, peak_rss_mb, ratio, tail, Ledger, Metrics};
use crate::reference::close;
use crate::trace::Tracer;

pub const WARM_JOBS: usize = 8;

/// The daemon's worker allowance: one thread is left to the client, so
/// the run never keeps more than `--threads` threads busy.
fn daemon_threads(opts: &Opts) -> usize {
    opts.threads.saturating_sub(1).max(1)
}
pub const SPEC_JOBS: usize = 16;
const TENANT: &str = "perfbench";

/// The what-if edits a seed draws from: every power budget with every
/// bandwidth budget, none equal to the paper's 600 W / 800 GB/s.
const POWERS_W: [f64; 8] = [500.0, 400.0, 300.0, 250.0, 200.0, 150.0, 100.0, 75.0];
const BANDWIDTHS_GBPS: [f64; 4] = [700.0, 600.0, 500.0, 400.0];

/// The paper's flagship SoC, edited by each what-if job.
fn spec_text(power_w: f64, bandwidth_gbps: f64) -> String {
    format!(
        "cpus = 4\ngpu_sms = 16\ndsa = LUD 16\ndsa = HS 16\npower_w = {power_w}\nbandwidth_gbps = {bandwidth_gbps}\n"
    )
}

type Edit = (f64, f64);

/// `SPEC_JOBS` distinct edits per pass, drawn from the seed.
fn edits_for_pass(rng: &mut Rng) -> Vec<Edit> {
    let mut all: Vec<Edit> = POWERS_W
        .iter()
        .flat_map(|&p| BANDWIDTHS_GBPS.iter().map(move |&b| (p, b)))
        .collect();
    rng.shuffle(&mut all);
    all.truncate(SPEC_JOBS);
    all
}

struct WirePoint {
    index: usize,
    label: String,
    makespan_seconds: f64,
    energy_joules: f64,
    gap: f64,
}

/// One job as the client saw it; times are seconds since submit.
struct JobTrace {
    latency_s: f64,
    accepted_s: f64,
    first_point_s: f64,
    points: Vec<WirePoint>,
    event: String,
    replayed: u64,
    detail: String,
    records: usize,
    bytes: usize,
    gaps_s: Vec<f64>,
    parse_s: Vec<f64>,
    request_s: f64,
}

impl JobTrace {
    fn finished(&self, points: usize) -> bool {
        self.event == "finished" && self.points.len() == points
    }
}

fn submit(job: JobSpec) -> Request {
    Request::Submit(SubmitRequest {
        tenant: TENANT.to_string(),
        job,
        deadline_seconds: None,
        per_point_nodes: None,
    })
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next line, or `None` at end of stream.
    fn line(&mut self, buf: &mut String) -> Result<Option<usize>, String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Ok(None),
            Ok(n) => Ok(Some(n)),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends `request` and waits for one terminal job record.
    fn control(&mut self, request: &Request, expect: &str) -> Result<(), String> {
        self.send(&render_request(request))?;
        let mut buf = String::new();
        self.line(&mut buf)?;
        match Record::parse(buf.trim()) {
            Ok(Record::Job { event, .. }) if event == expect => Ok(()),
            other => Err(format!("expected {expect}, got {other:?}")),
        }
    }
}

/// Submits one job on a fresh connection and drains its stream.
fn run_job(addr: &str, tracer: &Tracer, job: JobSpec) -> Result<JobTrace, String> {
    let _span = tracer.span("server.job");
    let t0 = Instant::now();
    let mut conn = Conn::open(addr)?;
    let request = submit(job);
    let (line, request_s) = tracer.time("server.request", || {
        let line = render_request(&request);
        if tracer.enabled() {
            let _ = std::hint::black_box(parse_request(&line));
        }
        line
    });
    conn.send(&line)?;
    let mut t = JobTrace {
        latency_s: f64::NAN,
        accepted_s: f64::NAN,
        first_point_s: f64::NAN,
        points: Vec::new(),
        event: String::new(),
        replayed: 0,
        detail: String::new(),
        records: 0,
        bytes: 0,
        gaps_s: Vec::new(),
        parse_s: Vec::new(),
        request_s,
    };
    let mut buf = String::new();
    let mut last = 0.0;
    loop {
        let Some(n) = conn.line(&mut buf)? else {
            return Err("daemon closed the stream before the job ended".into());
        };
        let now = t0.elapsed().as_secs_f64();
        if t.records > 0 {
            t.gaps_s.push(now - last);
        }
        last = now;
        t.records += 1;
        t.bytes += n;
        let (record, parse_s) = tracer.time("telemetry.parse", || Record::parse(buf.trim()));
        t.parse_s.push(parse_s);
        match record? {
            Record::Job { event, .. } if event == "accepted" => t.accepted_s = now,
            Record::Point {
                index,
                label,
                makespan_seconds,
                energy_joules,
                gap,
                ..
            } => {
                if t.points.is_empty() {
                    t.first_point_s = now;
                }
                t.points.push(WirePoint {
                    index: usize::try_from(index).unwrap_or(usize::MAX),
                    label,
                    makespan_seconds,
                    energy_joules,
                    gap,
                });
            }
            Record::Job {
                event,
                replayed,
                detail,
                ..
            } => {
                t.event = event;
                t.replayed = replayed;
                t.detail = detail;
                t.latency_s = t0.elapsed().as_secs_f64();
                return Ok(t);
            }
            _ => {}
        }
    }
}

/// A running daemon and its serving thread.
struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Spawns a daemon and waits for it to answer a ping.
    fn start(opts: &Opts) -> Result<Daemon, String> {
        let config = ServerConfig {
            threads: daemon_threads(opts),
            ..ServerConfig::default()
        };
        let (addr, handle) =
            Server::spawn("127.0.0.1:0", &config).map_err(|e| format!("spawn hilpd: {e}"))?;
        let daemon = Daemon { addr, handle };
        Conn::open(&daemon.addr)?.control(&Request::Ping, "pong")?;
        Ok(daemon)
    }

    /// Shuts the daemon down and waits for its serving thread.
    fn stop(self) -> Result<(), String> {
        Conn::open(&self.addr)?.control(&Request::Shutdown, "shutdown")?;
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("hilpd: {e}")),
            Err(_) => Err("hilpd serving thread panicked".into()),
        }
    }
}

struct Pass {
    cold: JobTrace,
    warm: Vec<JobTrace>,
    specs: Vec<(Edit, JobTrace)>,
}

impl Pass {
    fn jobs(&self) -> impl Iterator<Item = &JobTrace> {
        std::iter::once(&self.cold)
            .chain(&self.warm)
            .chain(self.specs.iter().map(|(_, j)| j))
    }
}

fn run_pass(opts: &Opts, edits: Vec<Edit>, tracer: &Tracer) -> Result<(Pass, f64), String> {
    let t0 = Instant::now();
    let daemon = Daemon::start(opts)?;
    let sweep = || JobSpec::Sweep {
        model: ModelKind::Hilp,
        step: opts.step,
    };
    let cold = run_job(&daemon.addr, tracer, sweep())?;
    let warm = (0..WARM_JOBS)
        .map(|_| run_job(&daemon.addr, tracer, sweep()))
        .collect::<Result<Vec<_>, _>>()?;
    let specs = edits
        .into_iter()
        .map(|e| {
            let text = spec_text(e.0, e.1);
            run_job(&daemon.addr, tracer, JobSpec::Spec { text }).map(|j| (e, j))
        })
        .collect::<Result<Vec<_>, _>>()?;
    daemon.stop()?;
    Ok((Pass { cold, warm, specs }, t0.elapsed().as_secs_f64()))
}

/// In-process answers every streamed result is checked against.
struct Expected {
    workload: Workload,
    sweep: Vec<DesignPoint>,
}

impl Expected {
    /// The in-process sweep, with `telemetry` as its sink.
    fn compute(opts: &Opts, telemetry: &Telemetry) -> Result<Expected, String> {
        let workload = Workload::rodinia(WorkloadVariant::Default);
        let config = SweepConfig {
            telemetry: telemetry.clone(),
            ..committed(opts.threads)
        };
        let (sweep, _) = evaluate_space_with_stats(
            &workload,
            &space(opts.step),
            &Constraints::paper_default(),
            ModelKind::Hilp,
            &config,
        )
        .map_err(|e| e.to_string())?;
        Ok(Expected { workload, sweep })
    }

    /// The spec job's evaluator, configured as the daemon configures a
    /// one-point job (all of its threads inside the point).
    fn spec_evaluator(&self, edit: Edit, opts: &Opts) -> Result<Hilp, String> {
        let (soc, constraints) =
            specfile::parse_soc(&spec_text(edit.0, edit.1)).map_err(|e| e.to_string())?;
        let threads = daemon_threads(opts);
        let mut config = committed(threads);
        config.solver.heuristic_threads = threads;
        config.solver.bnb_threads = threads;
        Ok(evaluator(&self.workload, &soc, &constraints, &config))
    }

    /// The spec job's result, evaluated in-process.
    fn spec_point(&self, edit: Edit, opts: &Opts) -> Option<(String, Evaluation)> {
        let hilp = self.spec_evaluator(edit, opts).ok()?;
        Some((hilp.soc().label(), hilp.evaluate().ok()?))
    }
}

/// Whether a streamed point carries `label` and these results (within
/// the committed tolerance).
fn same(w: &WirePoint, label: &str, makespan_seconds: f64, energy_joules: f64, gap: f64) -> bool {
    w.label == label
        && close(w.makespan_seconds, makespan_seconds)
        && close(w.energy_joules, energy_joules)
        && close(w.gap, gap)
}

fn check(opts: &Opts, passes: &[Pass], exp: &Expected, ledger: &mut Ledger) {
    let n = exp.sweep.len();
    let sweep_ok = |j: &JobTrace| {
        j.finished(n)
            && j.points.iter().all(|w| {
                exp.sweep
                    .get(w.index)
                    .is_some_and(|p| same(w, &p.label, p.makespan_seconds, p.energy_joules, p.gap))
            })
    };
    let mut spec_cache: Vec<(Edit, Option<(String, Evaluation)>)> = Vec::new();
    for pass in passes {
        let cold = &pass.cold;
        ledger.op(sweep_ok(cold), || {
            format!("cold job failed its check: {} {}", cold.event, cold.detail)
        });
        ledger.op(cold.replayed == 0, || {
            format!("cold job replayed {} points", cold.replayed)
        });
        for w in &pass.warm {
            ledger.op(sweep_ok(w), || {
                format!("warm job failed its check: {} {}", w.event, w.detail)
            });
            ledger.op(w.replayed == n as u64, || {
                format!("warm job replayed {} of {n} points", w.replayed)
            });
        }
        for (edit, j) in &pass.specs {
            if !spec_cache.iter().any(|(e, _)| e == edit) {
                spec_cache.push((*edit, exp.spec_point(*edit, opts)));
            }
            let expected = spec_cache.iter().find(|(e, _)| e == edit).map(|(_, p)| p);
            let ok = j.finished(1)
                && expected.is_some_and(|p| {
                    p.as_ref().is_some_and(|(label, e)| {
                        same(
                            &j.points[0],
                            label,
                            e.makespan_seconds,
                            e.energy_joules,
                            e.gap,
                        )
                    })
                });
            ledger.op(ok, || {
                format!(
                    "spec job {edit:?} failed its check: {} {}",
                    j.event, j.detail
                )
            });
        }
    }
}

fn setup(opts: &Opts) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        std::hint::black_box(space(opts.step));
        std::hint::black_box(Workload::rodinia(WorkloadVariant::Default));
        let daemon = Daemon::start(opts)?;
        times.push(t0.elapsed().as_secs_f64());
        daemon.stop()?;
    }
    Ok(median(&times))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let setup_s = setup(opts)?;
    let mut rng = Rng::new(opts.seed);
    let mut ledger = Ledger::default();
    if opts.trace {
        return traced(opts, &mut rng, ledger);
    }
    let off = Tracer::new(false);
    let mut rss = f64::NAN;
    let mut passes: Vec<(Pass, f64)> = timed_passes(opts.seconds, 1, |i| {
        let pass = run_pass(opts, edits_for_pass(&mut rng), &off);
        if i == 0 {
            rss = peak_rss_mb();
        }
        pass
    })?;
    if opts.corrupt {
        for (pass, _) in &mut passes {
            corrupt(pass);
        }
    }
    let passes: Vec<Pass> = passes.into_iter().map(|(p, _)| p).collect();
    let exp = Expected::compute(opts, &Telemetry::disabled())?;
    check(opts, &passes, &exp, &mut ledger);

    let mut m = Metrics::default();
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.cold.points.len() as f64 / p.cold.latency_s)
        .collect();
    let whatif: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.specs.iter().map(|(_, j)| j.latency_s))
        .collect();
    let gaps: Vec<f64> = passes[0].cold.points.iter().map(|w| w.gap).collect();
    let within = gaps.iter().filter(|&&g| g <= 0.10 + 1e-12).count();
    m.set("setup_s", setup_s);
    m.set("points_per_s", median(&rates));
    m.set(
        "job_cold_s",
        median(&passes.iter().map(|p| p.cold.latency_s).collect::<Vec<_>>()),
    );
    m.set("whatif_ms", ms(median(&whatif)));
    m.set("within_10pct", ratio(within as f64, gaps.len() as f64));
    m.set("mean_gap", mean(&gaps));
    m.set("peak_rss_mb", rss);
    Ok(Outcome {
        metrics: m,
        ledger,
        context: vec![
            ("passes", passes.len().to_string()),
            ("whatif_samples", whatif.len().to_string()),
            ("daemon_threads", daemon_threads(opts).to_string()),
        ],
    })
}

/// Halves the first point of the cold job.
fn corrupt(pass: &mut Pass) {
    if let Some(w) = pass.cold.points.first_mut() {
        w.makespan_seconds *= 0.5;
    }
}

/// The traced run: untraced and traced passes alternate until the time
/// is spent, then the in-process floors of the same edits are measured.
fn traced(opts: &Opts, rng: &mut Rng, mut ledger: Ledger) -> Result<Outcome, String> {
    let run_start = Instant::now();
    // The reference sweep is timed by no metric, so it carries the
    // program's own telemetry, whose spans are checked for negative self
    // time.
    let telemetry = Telemetry::with_capacity(crate::trace::JOURNAL_EVENTS);
    let exp = Expected::compute(opts, &telemetry)?;
    let off = Tracer::new(false);
    let tracer = Tracer::new(true);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut passes = Vec::new();
    let mut edits = Vec::new();
    let pair_s = |t: &[f64], u: &[f64]| median(t) + median(u);
    while passes.is_empty()
        || run_start.elapsed().as_secs_f64() + pair_s(&traced_s, &untraced_s) < opts.seconds
    {
        let pass_edits = edits_for_pass(rng);
        let (pass, s) = run_pass(opts, pass_edits.clone(), &off)?;
        passes.push(pass);
        untraced_s.push(s);
        let root = tracer.span("bench.pass");
        let (pass, s) = run_pass(opts, pass_edits.clone(), &tracer)?;
        drop(root);
        passes.push(pass);
        traced_s.push(s);
        edits.extend(pass_edits);
    }
    if opts.corrupt {
        passes.iter_mut().for_each(corrupt);
    }

    // In-process floors for the same edits: a scratch evaluation and a
    // delta re-evaluation against the unedited flagship SoC.
    let mut scratch = Vec::new();
    let mut delta = Vec::new();
    let mut paths = [0u32; 3];
    let root = tracer.span("bench.replay");
    let parent = exp.spec_evaluator((600.0, 800.0), opts)?;
    let recorded = parent.evaluate_recorded().map_err(|e| e.to_string())?;
    for &edit in &edits {
        let hilp = exp.spec_evaluator(edit, opts)?;
        let (r, s) = tracer.time("core.evaluate", || hilp.evaluate());
        r.map_err(|e| e.to_string())?;
        scratch.push(s);
        let (r, s) = tracer.time("core.delta", || hilp.evaluate_delta(&parent, &recorded));
        let (_, path) = r.map_err(|e| e.to_string())?;
        delta.push(s);
        paths[match path {
            WhatIfPath::Identity => 0,
            WhatIfPath::Certified { .. } => 1,
            WhatIfPath::Scratch => 2,
        }] += 1;
    }
    let socs = space(opts.step);
    let lattice: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .time("dse.lattice", || DominanceLattice::build(&socs))
                .1
        })
        .collect();
    drop(root);
    check(opts, &passes, &exp, &mut ledger);

    let mut m = Metrics::per_layer();
    let traced: Vec<&Pass> = passes.iter().skip(1).step_by(2).collect();
    let jobs: Vec<&JobTrace> = traced.iter().flat_map(|p| p.jobs()).collect();
    let sweeps: Vec<&JobTrace> = traced
        .iter()
        .flat_map(|p| std::iter::once(&p.cold).chain(&p.warm))
        .collect();
    let collect = |f: &dyn Fn(&JobTrace) -> f64| jobs.iter().map(|j| f(j)).collect::<Vec<_>>();
    let whatif: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.specs.iter().map(|(_, j)| j.latency_s))
        .collect();
    let prepoint: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.warm.iter().map(|j| j.first_point_s - j.accepted_s))
        .collect();
    let gaps: Vec<f64> = jobs.iter().flat_map(|j| j.gaps_s.iter().copied()).collect();
    let parse: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.parse_s.iter().copied())
        .collect();
    let replayed: u64 = sweeps.iter().map(|j| j.replayed).sum();
    let streamed: usize = sweeps.iter().map(|j| j.points.len()).sum();
    m.set("server.accept_ms", ms(median(&collect(&|j| j.accepted_s))));
    let cold_first: Vec<f64> = traced.iter().map(|p| p.cold.first_point_s).collect();
    m.set("server.first_point_ms", ms(median(&cold_first)));
    m.set("server.prepoint_ms", ms(median(&prepoint)));
    let warm: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.warm.iter().map(|j| j.latency_s))
        .collect();
    m.set("server.job_warm_ms", ms(median(&warm)));
    m.set("server.record_gap_us", median(&gaps) * 1e6);
    let per_pass = traced.len() as f64;
    m.set(
        "server.records",
        collect(&|j| j.records as f64).iter().sum::<f64>() / per_pass,
    );
    m.set(
        "server.bytes",
        collect(&|j| j.bytes as f64).iter().sum::<f64>() / per_pass,
    );
    m.set(
        "server.replay_ratio",
        ratio(replayed as f64, streamed as f64),
    );
    m.set("server.whatif_tail_ms", ms(tail(&whatif)));
    m.set(
        "server.spec_overhead_ms",
        ms(median(&whatif) - median(&scratch)),
    );
    m.set(
        "server.request_us",
        median(&collect(&|j| j.request_s)) * 1e6,
    );
    m.set("telemetry.parse_us", median(&parse) * 1e6);
    m.set(
        "trace.overhead_frac",
        median(&traced_s) / median(&untraced_s) - 1.0,
    );
    m.set("dse.lattice_ms", ms(median(&lattice)));
    m.set("core.evaluate_ms", ms(mean(&scratch)));
    m.set("core.delta_ms", ms(mean(&delta)));
    let per_edit = |n: u32| ratio(f64::from(n), edits.len() as f64);
    m.set("core.delta_identity", per_edit(paths[0]));
    m.set("core.delta_certified", per_edit(paths[1]));
    m.set("core.delta_scratch", per_edit(paths[2]));
    let context = crate::finish_trace(
        &tracer,
        &telemetry.journal(),
        &mut m,
        &mut ledger,
        &opts.workload,
    );
    Ok(Outcome {
        metrics: m,
        ledger,
        context,
    })
}
