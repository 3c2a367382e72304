//! Options, the timed-pass loop, and helpers shared by every workload.

use std::sync::OnceLock;
use std::time::Instant;

use hilp_core::{encode, Constraints, SocSpec, Workload};
use hilp_dse::{PointUpdate, SweepConfig, SweepObserver};
use hilp_sched::lower_bound;

use crate::metrics::{median, Ledger, Metrics};

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Threads the whole run may keep busy.
    pub threads: usize,
    /// Keep every `step`-th SoC of the design space (1 = all 372).
    pub step: usize,
    /// Corrupt one output on purpose before it is checked.
    pub corrupt: bool,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub ledger: Ledger,
    /// Extra `"key": <json>` pairs for the context line.
    pub context: Vec<(&'static str, String)>,
}

/// Times of repeated set-ups are reported as their median.
pub const SETUP_REPS: usize = 101;

/// Runs `setup` [`SETUP_REPS`] times and returns the last result with
/// the median time.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let value = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Runs passes until the next one (predicted to last as long as the
/// median pass so far) would end after `seconds`, running at least
/// `min_passes`.
pub fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> Result<(T, f64), String>,
) -> Result<Vec<(T, f64)>, String> {
    let start = Instant::now();
    let mut out: Vec<(T, f64)> = Vec::new();
    loop {
        if out.len() >= min_passes {
            let durations: Vec<f64> = out.iter().map(|(_, d)| *d).collect();
            if start.elapsed().as_secs_f64() + median(&durations) > seconds {
                return Ok(out);
            }
        }
        out.push(pass(out.len())?);
    }
}

/// The configuration every committed result was produced under
/// (`sweep_timing`'s optimized configuration and every `hilpd` job), at
/// `threads` sweep workers.
pub fn committed(threads: usize) -> SweepConfig {
    SweepConfig {
        threads,
        ..hilp_server::committed_sweep_config()
    }
}

/// The paper's 372-SoC design space, subsampled by `step`.
pub fn space(step: usize) -> Vec<SocSpec> {
    hilp_dse::design_space(4.0)
        .into_iter()
        .step_by(step.max(1))
        .collect()
}

/// Records when a streamed sweep delivers its first point.
pub struct FirstPoint {
    t0: Instant,
    first: OnceLock<f64>,
}

impl FirstPoint {
    pub fn new() -> FirstPoint {
        FirstPoint {
            t0: Instant::now(),
            first: OnceLock::new(),
        }
    }

    /// Seconds from construction to the first point (NaN if none came).
    pub fn seconds(&self) -> f64 {
        self.first.get().copied().unwrap_or(f64::NAN)
    }
}

impl SweepObserver for FirstPoint {
    fn point_done(&self, _update: &PointUpdate) {
        let _ = self.first.set(self.t0.elapsed().as_secs_f64());
    }
}

/// A proven lower bound on any makespan (in seconds) the grid or exact
/// policy can report for this point: the combinatorial bound of the
/// instance at the policy's finest tick. Every coarser tick of the
/// refinement cascade is a multiple of the finest one, so rounding
/// durations up to it never undercuts this bound.
pub fn finest_tick_bound(
    workload: &Workload,
    soc: &SocSpec,
    constraints: &Constraints,
    config: &SweepConfig,
) -> Result<f64, String> {
    let tick = config.policy.exact_tick_seconds();
    let (instance, _) = encode(workload, soc, constraints, tick).map_err(|e| e.to_string())?;
    Ok(f64::from(lower_bound(&instance)) * tick)
}

/// SplitMix64: a small seeded generator for the seed-chosen inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Milliseconds of a seconds value.
pub fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}
