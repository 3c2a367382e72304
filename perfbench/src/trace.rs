//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into a crate's public functions from
//! this benchmark's own code, nest per thread through a thread-local
//! stack, and are kept in memory until [`Tracer::write_jsonl`] writes them
//! out when the run ends. A disabled tracer costs one branch per span.
//!
//! The same self-time check is applied to the program's own telemetry
//! journal ([`journal_self_times`]), whose spans nest by a per-thread
//! depth counter rather than by recorded parents.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hilp_telemetry::{Journal, Record};

/// Event-ring capacity of a telemetry handle whose journal is read: large
/// enough that a whole 372-point sweep's spans fit without overwriting.
pub const JOURNAL_EVENTS: usize = 1 << 18;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub thread: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that is a child of the innermost open span on this
    /// thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let index = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                thread: THREAD_ID.with(|t| *t),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span named `name`, returning its result and its
    /// wall time in seconds (timed whether or not tracing is on).
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let _span = self.span(name);
        let t0 = Instant::now();
        let out = f();
        (out, t0.elapsed().as_secs_f64())
    }

    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name,
                s.thread,
                s.start_ns,
                s.end_ns,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
            )?;
        }
        out.flush()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[index].end_ns = end_ns;
        }
    }
}

/// Self time of every span: its duration minus the part of it covered by
/// child spans on the same thread. Negative values (children outlasting
/// their parent) are returned as-is so the caller can flag them.
pub fn self_times(spans: &[SpanRec]) -> Vec<i64> {
    let mut child_ns = vec![0i64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].thread == s.thread {
                child_ns[p] += i64::try_from(s.dur_ns()).unwrap_or(i64::MAX);
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| i64::try_from(s.dur_ns()).unwrap_or(i64::MAX) - c)
        .collect()
}

/// Self time in seconds per (thread, layer), where a layer is the span
/// name's prefix before the first dot.
pub fn self_by_thread_layer(spans: &[SpanRec]) -> BTreeMap<(u64, String), f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
        *out.entry((s.thread, layer)).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// One span of a telemetry journal with its self time in microseconds.
pub struct JournalSelf {
    pub name: String,
    pub thread: u32,
    pub self_us: i64,
}

/// Self time of every span in a telemetry journal: its duration minus
/// the durations of its children. A span's parent is the latest span on
/// the same thread, one level shallower, that started no later than it.
/// Negative values (children outlasting their parent) are returned as-is
/// so the caller can flag them.
pub fn journal_self_times(journal: &Journal) -> Vec<JournalSelf> {
    struct S<'a> {
        name: &'a str,
        thread: u32,
        depth: u32,
        start: u64,
        dur: u64,
    }
    let mut spans: Vec<S> = journal
        .records
        .iter()
        .filter_map(|r| match r {
            Record::Span {
                name,
                thread,
                depth,
                start_us,
                dur_us,
            } => Some(S {
                name,
                thread: *thread,
                depth: *depth,
                start: *start_us,
                dur: *dur_us,
            }),
            _ => None,
        })
        .collect();
    spans.sort_by_key(|s| (s.thread, s.start, s.depth));
    let mut child_us = vec![0i64; spans.len()];
    // Per thread, the latest-started span at each depth so far.
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        if i > 0 && spans[i - 1].thread != spans[i].thread {
            open.clear();
        }
        let depth = spans[i].depth as usize;
        open.truncate(depth);
        if depth > 0 && open.len() == depth {
            child_us[open[depth - 1]] += i64::try_from(spans[i].dur).unwrap_or(i64::MAX);
        }
        if open.len() == depth {
            open.push(i);
        }
    }
    spans
        .iter()
        .zip(child_us)
        .map(|(s, c)| JournalSelf {
            name: s.name.to_string(),
            thread: s.thread,
            self_us: i64::try_from(s.dur).unwrap_or(i64::MAX) - c,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("a.outer");
            let _inner = t.span("b.inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let selfs = self_times(&spans);
        assert!(selfs.iter().all(|&s| s >= 0));
        assert!(selfs[1] >= 2_000_000);
        assert!(selfs[0] < selfs[1]);
    }

    fn span(depth: u32, start_us: u64, dur_us: u64) -> Record {
        Record::Span {
            name: format!("x.d{depth}"),
            thread: 0,
            depth,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn journal_self_time_subtracts_children_and_flags_overruns() {
        let nested = Journal {
            records: vec![span(1, 10, 20), span(1, 40, 30), span(0, 0, 100)],
        };
        let selfs: Vec<i64> = journal_self_times(&nested)
            .iter()
            .map(|s| s.self_us)
            .collect();
        assert_eq!(selfs, vec![50, 20, 30]);
        // A child recorded as lasting past its parent's end.
        let overrun = Journal {
            records: vec![span(0, 0, 10), span(1, 5, 20)],
        };
        let negative = journal_self_times(&overrun)
            .iter()
            .filter(|s| s.self_us < 0)
            .count();
        assert_eq!(negative, 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("a.x"));
        assert!(t.spans().is_empty());
    }
}
