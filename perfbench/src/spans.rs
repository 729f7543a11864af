//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only here, around the benchmark's own calls into
//! each layer's public functions; the program under test is not
//! instrumented. Each span keeps its name, the thread it ran on, its
//! start and end on the wall clock, the CPU time it consumed and the
//! span that caused it. They are held in memory and written out once,
//! when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::sys;

/// Which CPU clock a span charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuClock {
    /// The calling thread's CPU time: right when the call runs on the
    /// calling thread only, while other threads work in parallel.
    Thread,
    /// The whole process's CPU time: right when the call is the only
    /// activity in the process but may fan out to worker threads of its
    /// own (the sharded replay of a full-scale trace).
    Process,
}

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of this span in the recorder (its identifier).
    pub id: usize,
    /// Identifier of the enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// Layer call the span covers (`pmem.emit`, `sim.inorder`, ...).
    pub name: &'static str,
    /// Which run or cell the call served.
    pub label: String,
    /// Recording thread, numbered in order of first use.
    pub thread: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// CPU time charged to the span, in nanoseconds.
    pub cpu_ns: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from every thread of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    clock: CpuClock,
    spans: Mutex<Vec<Option<Span>>>,
}

impl Recorder {
    /// A recorder charging CPU time on `clock`.
    pub fn new(clock: CpuClock) -> Self {
        Recorder {
            origin: Instant::now(),
            clock,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn cpu_now(&self) -> u64 {
        match self.clock {
            CpuClock::Thread => sys::thread_cpu_ns(),
            CpuClock::Process => sys::process_cpu_ns(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, label: &str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(None);
            spans.len() - 1
        };
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let cpu0 = self.cpu_now();
        let out = f();
        let cpu_ns = self.cpu_now() - cpu0;
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        OPEN.with(|o| o.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            name,
            label: label.to_owned(),
            thread: THREAD_ID.with(|t| *t),
            start_ns,
            end_ns,
            cpu_ns,
        };
        self.spans.lock().expect("span recorder poisoned")[id] = Some(span);
        out
    }

    /// Every finished span, in creation order.
    pub fn finish(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span recorder poisoned")
            .into_iter()
            .flatten()
            .collect()
    }
}

/// Runs `f` in a span when a recorder is given, and plainly otherwise.
pub fn maybe<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    label: &str,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.span(name, label, f),
        None => f(),
    }
}

/// Total CPU seconds of the spans named `name`.
pub fn cpu_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.cpu_ns)
        .sum::<u64>() as f64
        / 1e9
}

/// Writes the spans as tab-separated rows: id, parent, thread, name,
/// label, start, end and CPU nanoseconds.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\tthread\tname\tlabel\tstart_ns\tend_ns\tcpu_ns\n");
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.thread, s.name, s.label, s.start_ns, s.end_ns, s.cpu_ns
        )
        .expect("write to String");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
