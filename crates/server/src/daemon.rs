//! The `hilpd` daemon: a long-running, multi-tenant sweep service.
//!
//! One thread per connection parses request lines; each accepted job
//! runs on its own thread, sharding its design points across the
//! existing sweep worker pool (`hilp-parallel`'s `WorkQueue`) with a
//! fair share of the daemon's total thread allowance. Results stream
//! back as journal records while the sweep runs (see
//! [`crate::protocol`]).
//!
//! Cross-request amortization: every replay-safe finished job persists
//! its [`SweepBaseline`] (which carries the memoized per-point results
//! *and* the per-level bound store contents of the recording sweep)
//! keyed by a job fingerprint, so an identical re-submission — e.g. the
//! 372-point Fig. 7 sweep a dashboard refreshes — answers by identity
//! replay at near-zero cost, bit-identical to the first run.
//!
//! Every job carries a cancel token tripped when its client disconnects
//! (or sends `cancel`); cancel-only budgets are replay-safe (see
//! [`hilp_dse::SweepBudgets::replay_safe`]), so the disconnect guard
//! costs no amortization.

use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hilp_core::{CancelToken, SolverConfig, TimetableKind};
use hilp_dse::{
    design_space, evaluate_space_recorded_streamed, specfile, DesignPoint, ModelKind, PointUpdate,
    SweepBaseline, SweepBudgets, SweepConfig, SweepObserver,
};
use hilp_soc::{Constraints, SocSpec};
use hilp_telemetry::Record;
use hilp_workloads::{Workload, WorkloadVariant};

use crate::net::{Listener, Socket};
use crate::protocol::{parse_request, JobSpec, Request, SubmitRequest};
use crate::quota::{TenantLedger, TenantQuota};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Total worker-thread allowance shared fairly by concurrent jobs
    /// (`0` = all available cores; when the core count cannot be
    /// determined the daemon falls back to 4 and reports every job as
    /// degraded).
    pub threads: usize,
    /// The quota applied to every tenant.
    pub quota: TenantQuota,
    /// Append every record sent to any client (plus job lifecycle
    /// records) to this JSONL file — the server-side journal CI uploads
    /// on failure.
    pub journal: Option<std::path::PathBuf>,
    /// Suppress stderr progress messages.
    pub quiet: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 0,
            quota: TenantQuota::default(),
            journal: None,
            quiet: true,
        }
    }
}

/// The sweep configuration every server job runs under: exactly the
/// committed `BENCH_sweep.json` configuration (event timetable, serial
/// multi-start, memoization, bound termination), so
/// streamed makespans diff cleanly against the committed baseline.
/// Thread counts are layered on per job — they are result-invariant.
#[must_use]
pub fn committed_sweep_config() -> SweepConfig {
    SweepConfig {
        solver: SolverConfig {
            timetable: TimetableKind::Event,
            heuristic_threads: 1,
            ..SolverConfig::sweep()
        },
        memoize: true,
        ..SweepConfig::default()
    }
}

/// FNV-1a over the fields that determine a job's inputs; baselines are
/// stored and looked up under this fingerprint.
fn job_fingerprint(job: &JobSpec) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match job {
        JobSpec::Sweep { model, step } => {
            eat(b"sweep");
            eat(crate::protocol::model_tag(*model).as_bytes());
            eat(&(*step as u64).to_le_bytes());
        }
        JobSpec::Spec { text } => {
            eat(b"spec");
            eat(text.as_bytes());
        }
    }
    h
}

/// State shared by every connection and job thread.
struct Shared {
    total_threads: usize,
    /// The startup core-count probe failed; every job reports degraded
    /// capacity.
    degraded: bool,
    active_jobs: AtomicUsize,
    next_job_id: AtomicU64,
    ledger: TenantLedger,
    /// The resolved listen address (the shutdown path self-connects to
    /// unblock the accept loop).
    addr: String,
    /// Persisted baselines keyed by job fingerprint.
    baselines: Mutex<std::collections::HashMap<u64, Arc<SweepBaseline>>>,
    start: Instant,
    shutdown: AtomicBool,
    journal: Option<Mutex<std::fs::File>>,
    quiet: bool,
}

impl Shared {
    fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    fn say(&self, msg: &str) {
        if !self.quiet {
            eprintln!("hilpd: {msg}");
        }
    }

    /// Appends `record` to the server-side journal file (best effort).
    fn journal(&self, record: &Record) {
        if let Some(file) = &self.journal {
            if let Ok(mut file) = file.lock() {
                let _ = writeln!(file, "{}", record.to_json());
            }
        }
    }
}

/// A connection's shared line writer: job threads stream records through
/// it while the reader thread keeps watching for cancel/disconnect.
#[derive(Clone)]
struct WireWriter {
    shared: Arc<Shared>,
    sink: Arc<Mutex<Socket>>,
}

impl WireWriter {
    /// Sends one record (best effort — a disconnected client is handled
    /// by the reader side tripping the job's cancel token) and mirrors
    /// it into the server journal.
    fn send(&self, record: &Record) {
        self.shared.journal(record);
        if let Ok(mut sink) = self.sink.lock() {
            let _ = sink.write_all(format!("{}\n", record.to_json()).as_bytes());
            let _ = sink.flush();
        }
    }

    /// Stamps a [`JobEvent`] with the daemon clock and sends it.
    fn send_job(&self, event: JobEvent<'_>) {
        self.send(&event.record(&self.shared));
    }
}

/// Payload of one `Record::Job` wire event. Fields irrelevant to a
/// given event keep their zero defaults, so control acks stay terse at
/// the call site.
#[derive(Default)]
struct JobEvent<'a> {
    event: &'a str,
    id: u64,
    tenant: &'a str,
    points: u64,
    replayed: u64,
    truncated: u64,
    degraded: bool,
    seconds: f64,
    detail: &'a str,
}

impl JobEvent<'_> {
    fn record(&self, shared: &Shared) -> Record {
        Record::Job {
            t_us: shared.now_us(),
            event: self.event.to_string(),
            id: self.id,
            tenant: self.tenant.to_string(),
            points: self.points,
            replayed: self.replayed,
            truncated: self.truncated,
            degraded: u64::from(self.degraded),
            seconds: self.seconds,
            detail: self.detail.to_string(),
        }
    }
}

/// The resolved inputs of one admitted job.
struct JobInputs {
    workload: Workload,
    socs: Vec<SocSpec>,
    constraints: Constraints,
    model: ModelKind,
    fingerprint: u64,
}

fn resolve_inputs(job: &JobSpec) -> Result<JobInputs, String> {
    let fingerprint = job_fingerprint(job);
    match job {
        JobSpec::Sweep { model, step } => {
            let mut socs = design_space(4.0);
            if *step > 1 {
                socs = socs.into_iter().step_by(*step).collect();
            }
            Ok(JobInputs {
                workload: Workload::rodinia(WorkloadVariant::Default),
                socs,
                constraints: Constraints::paper_default(),
                model: *model,
                fingerprint,
            })
        }
        JobSpec::Spec { text } => {
            let (soc, constraints) = specfile::parse_soc(text).map_err(|e| e.to_string())?;
            Ok(JobInputs {
                workload: Workload::rodinia(WorkloadVariant::Default),
                socs: vec![soc],
                constraints,
                model: ModelKind::Hilp,
                fingerprint,
            })
        }
    }
}

/// Streams every completed point to the client as a wire record.
struct StreamObserver<'a> {
    writer: &'a WireWriter,
    job_id: u64,
}

impl SweepObserver for StreamObserver<'_> {
    fn point_done(&self, update: &PointUpdate) {
        let p: &DesignPoint = &update.point;
        self.writer.send(&Record::Point {
            t_us: self.writer.shared.now_us(),
            job: self.job_id,
            index: update.index as u64,
            label: p.label.clone(),
            makespan_seconds: p.makespan_seconds,
            energy_joules: p.energy_joules,
            speedup: p.speedup,
            avg_wlp: p.avg_wlp,
            gap: p.gap,
            seconds: update.seconds,
            truncated: update.truncated.map_or_else(String::new, |k| k.to_string()),
            replayed: u64::from(update.replayed),
            cached: u64::from(update.cached),
        });
    }
}

/// Runs one admitted job to its terminal record. Called on the job's own
/// thread; the connection's reader thread owns cancellation.
#[allow(clippy::too_many_lines)]
fn run_job(
    shared: &Arc<Shared>,
    writer: &WireWriter,
    id: u64,
    tenant: &str,
    inputs: &JobInputs,
    budgets: SweepBudgets,
    finished: &AtomicBool,
) {
    // Fair share: a job entering while `n - 1` others run gets
    // `total / n` threads for its lifetime. Thread counts are
    // result-invariant, so shares only move wall-clock, never results.
    let active = shared.active_jobs.fetch_add(1, Ordering::SeqCst) + 1;
    let threads = (shared.total_threads / active.max(1)).max(1);
    let replay_safe = budgets.replay_safe();
    let cancel = budgets.cancel.clone();
    let baseline = replay_safe
        .then(|| {
            shared
                .baselines
                .lock()
                .expect("baseline store")
                .get(&inputs.fingerprint)
                .cloned()
        })
        .flatten();
    let config = SweepConfig {
        threads,
        budgets,
        baseline,
        ..committed_sweep_config()
    };
    let observer = StreamObserver { writer, job_id: id };
    let t0 = Instant::now();
    let outcome = evaluate_space_recorded_streamed(
        &inputs.workload,
        &inputs.socs,
        &inputs.constraints,
        inputs.model,
        &config,
        Some(&observer),
    );
    let seconds = t0.elapsed().as_secs_f64();
    shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
    let error;
    let terminal = match outcome {
        Ok((points, stats, baseline)) => {
            let degraded = shared.degraded || stats.parallelism_fallback;
            // Persist the refreshed baseline for the next identical
            // submission; a truncated (cancelled) run records nothing
            // (`baseline.points() == 0`), leaving any previous good
            // baseline in place.
            if replay_safe && stats.truncated_points == 0 && baseline.points() > 0 {
                shared
                    .baselines
                    .lock()
                    .expect("baseline store")
                    .insert(inputs.fingerprint, Arc::new(baseline));
            }
            let event = if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                "cancelled"
            } else {
                "finished"
            };
            let truncated = stats.truncated_points as u64;
            let replayed = stats.delta_identity_points as u64;
            shared
                .ledger
                .finish(tenant, points.len() as u64, replayed, truncated);
            shared.say(&format!(
                "job {id} ({tenant}) {event}: {} points, {replayed} replayed, \
                 {truncated} truncated, {seconds:.2}s on {threads} thread(s)",
                points.len()
            ));
            JobEvent {
                event,
                id,
                tenant,
                points: points.len() as u64,
                replayed,
                truncated,
                degraded,
                seconds,
                ..JobEvent::default()
            }
        }
        Err(e) => {
            shared.ledger.finish(tenant, 0, 0, 0);
            shared.say(&format!("job {id} ({tenant}) failed: {e}"));
            error = e.to_string();
            JobEvent {
                event: "failed",
                id,
                tenant,
                degraded: shared.degraded,
                seconds,
                detail: &error,
                ..JobEvent::default()
            }
        }
    };
    // Flag first, send second: a client that answers the terminal record
    // with a new submit must find this job already marked finished.
    finished.store(true, Ordering::SeqCst);
    writer.send_job(terminal);
}

/// The job a connection currently has running.
struct ActiveJob {
    id: u64,
    token: CancelToken,
    /// Set just before the job's terminal record is sent; from then on
    /// the thread only has to return, so joining it cannot block.
    finished: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

fn handle_submit(
    shared: &Arc<Shared>,
    writer: &WireWriter,
    submit: SubmitRequest,
    active: &mut Option<ActiveJob>,
) {
    let reject = |detail: &str| {
        writer.send_job(JobEvent {
            event: "rejected",
            tenant: &submit.tenant,
            detail,
            ..JobEvent::default()
        });
    };
    if active.is_some() {
        reject("connection already has a running job (open another connection)");
        return;
    }
    let inputs = match resolve_inputs(&submit.job) {
        Ok(inputs) => inputs,
        Err(e) => {
            reject(&e);
            return;
        }
    };
    if let Err(e) = shared.ledger.begin(&submit.tenant) {
        reject(&e);
        return;
    }
    let quota = shared.ledger.quota();
    let token = CancelToken::new();
    let budgets = SweepBudgets {
        per_point_nodes: quota.clamp_nodes(submit.per_point_nodes),
        sweep_deadline: quota.clamp_deadline(submit.deadline_seconds.map(Duration::from_secs_f64)),
        cancel: Some(token.clone()),
    };
    let id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
    shared.say(&format!(
        "job {id} ({}) accepted: {} point(s)",
        submit.tenant,
        inputs.socs.len()
    ));
    writer.send_job(JobEvent {
        event: "accepted",
        id,
        tenant: &submit.tenant,
        points: inputs.socs.len() as u64,
        degraded: shared.degraded,
        ..JobEvent::default()
    });
    let finished = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let writer = writer.clone();
        let tenant = submit.tenant.clone();
        let finished = Arc::clone(&finished);
        std::thread::spawn(move || {
            run_job(&shared, &writer, id, &tenant, &inputs, budgets, &finished);
        })
    };
    *active = Some(ActiveJob {
        id,
        token,
        finished,
        handle,
    });
}

fn handle_connection(shared: &Arc<Shared>, stream: Socket) {
    let Ok(sink) = stream.try_clone() else {
        return;
    };
    let writer = WireWriter {
        shared: Arc::clone(shared),
        sink: Arc::new(Mutex::new(sink)),
    };
    let mut active: Option<ActiveJob> = None;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        // Reap a job whose terminal record is out, so a serial client can
        // submit again on the same connection the moment it sees that
        // record (its thread may not have returned yet; joining waits for
        // that, never for solving work).
        if active
            .as_ref()
            .is_some_and(|j| j.finished.load(Ordering::SeqCst))
        {
            if let Some(job) = active.take() {
                let _ = job.handle.join();
            }
        }
        match parse_request(line) {
            Ok(Request::Submit(submit)) => handle_submit(shared, &writer, submit, &mut active),
            Ok(Request::Cancel { id }) => match &active {
                Some(job) if job.id == id => {
                    shared.say(&format!("job {id} cancelled by request"));
                    job.token.cancel();
                }
                _ => writer.send_job(JobEvent {
                    event: "rejected",
                    id,
                    detail: "no such active job on this connection",
                    ..JobEvent::default()
                }),
            },
            Ok(Request::Ping) => {
                writer.send_job(JobEvent {
                    event: "pong",
                    ..JobEvent::default()
                });
            }
            Ok(Request::Stats) => {
                let (running, jobs_done, points) = shared.ledger.totals();
                writer.send_job(JobEvent {
                    event: "stats",
                    id: running as u64,
                    points,
                    degraded: shared.degraded,
                    seconds: shared.start.elapsed().as_secs_f64(),
                    detail: &format!("jobs_done={jobs_done}"),
                    ..JobEvent::default()
                });
            }
            Ok(Request::Shutdown) => {
                // Flag first, acknowledge second: once the client sees the
                // ack it may immediately reconnect to unblock the accept
                // loop, which must already observe the flag.
                shared.shutdown.store(true, Ordering::SeqCst);
                writer.send_job(JobEvent {
                    event: "shutdown",
                    ..JobEvent::default()
                });
                // Unblock the accept loop so it can observe the flag —
                // without this the daemon would linger until the next
                // client happened to connect.
                let _ = Socket::connect(&shared.addr);
                break;
            }
            Err(e) => {
                writer.send_job(JobEvent {
                    event: "rejected",
                    detail: &e,
                    ..JobEvent::default()
                });
            }
        }
    }
    // Disconnect (or shutdown): cancel-on-disconnect trips the active
    // job's token; the sweep degrades its remaining points and drains.
    if let Some(job) = active.take() {
        if !job.finished.load(Ordering::SeqCst) {
            shared.say(&format!("job {} client went away; cancelling", job.id));
        }
        job.token.cancel();
        let _ = job.handle.join();
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
    addr: String,
}

impl Server {
    /// Binds to `addr` — a TCP `host:port` (port `0` picks an ephemeral
    /// port; see [`Server::local_addr`]) or, when the address contains a
    /// `/`, a Unix socket path.
    ///
    /// # Errors
    ///
    /// Propagates bind and journal-file errors.
    pub fn bind(addr: &str, config: &ServerConfig) -> std::io::Result<Server> {
        let listener = Listener::bind(addr)?;
        let (total_threads, degraded) = if config.threads == 0 {
            match std::thread::available_parallelism() {
                Ok(n) => (n.get(), false),
                Err(_) => (4, true),
            }
        } else {
            (config.threads, false)
        };
        let journal = match &config.journal {
            Some(path) => Some(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
            None => None,
        };
        let resolved = listener.local_addr();
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                total_threads,
                degraded,
                active_jobs: AtomicUsize::new(0),
                next_job_id: AtomicU64::new(1),
                ledger: TenantLedger::new(config.quota.clone()),
                addr: resolved.clone(),
                baselines: Mutex::new(std::collections::HashMap::new()),
                start: Instant::now(),
                shutdown: AtomicBool::new(false),
                journal,
                quiet: config.quiet,
            }),
            addr: resolved,
        })
    }

    /// The resolved listen address (for clients, after ephemeral-port
    /// resolution).
    #[must_use]
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Serves connections until a client sends `shutdown`. Each
    /// connection gets its own thread; running jobs at shutdown are
    /// abandoned to the process exit.
    ///
    /// # Errors
    ///
    /// Propagates accept errors other than transient interruptions.
    pub fn run(self) -> std::io::Result<()> {
        self.shared.say(&format!("listening on {}", self.addr));
        loop {
            let stream = match self.listener.accept() {
                Ok(stream) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if self.shared.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(&shared, stream));
        }
    }

    /// Binds and serves on a background thread, returning the resolved
    /// address and the serving thread's handle. The thread exits once a
    /// client sends `shutdown` (the daemon unblocks its own accept
    /// loop).
    ///
    /// # Errors
    ///
    /// Propagates bind errors.
    pub fn spawn(
        addr: &str,
        config: &ServerConfig,
    ) -> std::io::Result<(String, std::thread::JoinHandle<std::io::Result<()>>)> {
        let server = Server::bind(addr, config)?;
        let resolved = server.addr.clone();
        let handle = std::thread::spawn(move || server.run());
        Ok((resolved, handle))
    }
}
