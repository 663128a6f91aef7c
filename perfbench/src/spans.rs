//! In-memory span recording around the calls the benchmark makes into each
//! layer, and the traced stepping loop that records one span per `step`.
//!
//! Spans are kept in memory while a run measures and written out as JSON
//! lines when it ends. The clock lives here, in the benchmark; the program
//! under test is not changed.

use std::cell::RefCell;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use cc_mis_sim::driver::{Execution, Status};

/// One timed call: `[start_ns, end_ns)` relative to the log's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, such as `driver.step`.
    pub name: &'static str,
    /// Nanoseconds from the log origin to the call.
    pub start_ns: u64,
    /// Nanoseconds from the log origin to the return.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<usize>,
    /// The instance (solve or batch job) the call belongs to.
    pub instance: u64,
}

impl Span {
    /// The span's wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An append-only span log with a stack of open spans, so each new span
/// records the innermost open one as its parent.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The benchmark's one clock read: every timing, spans included, starts
/// here.
pub fn now() -> Instant {
    // conform: allow(R3) -- benchmark wall-clock timing; no simulated count or output depends on it
    Instant::now()
}

/// A span log shared by the forwarders and the workload code of one run.
pub type SharedLog = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// An empty log behind a shared handle.
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(SpanLog::new()))
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Opens a span and returns its index for [`SpanLog::exit`].
    pub fn enter(&mut self, name: &'static str, instance: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            instance,
        });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` and any span still open inside it.
    pub fn exit(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"instance\":{}}}",
                s.name, s.start_ns, s.end_ns, s.instance
            )?;
        }
        Ok(())
    }
}

/// Closes its span when dropped, so a span also closes when a panic
/// unwinds through it.
struct OpenSpan<'a>(&'a SharedLog, usize);

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if let Ok(mut log) = self.0.try_borrow_mut() {
            log.exit(self.1);
        }
    }
}

/// Runs `f` inside a span named `name` when `log` is given, else just
/// runs it.
pub fn timed<T>(
    log: Option<&SharedLog>,
    name: &'static str,
    instance: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(log) = log else {
        return f();
    };
    let _open = OpenSpan(log, log.borrow_mut().enter(name, instance));
    f()
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Steps `exec` once inside a `driver.step` span. A panicking step becomes
/// an `Err`, so one failing instance or batch job fails alone.
pub fn step_spanned<E: Execution>(
    exec: &mut E,
    log: &SharedLog,
    instance: u64,
) -> Result<Status<E::Outcome>, String> {
    timed(Some(log), "driver.step", instance, || {
        catch_unwind(AssertUnwindSafe(|| exec.step()))
    })
    .map_err(|_| "step panicked".to_string())
}

/// Drives `exec` to completion as `driver::drive` does, one step after
/// another with nothing in between, but with a span around each step.
///
/// The benchmark steps executions itself in a traced run, rather than
/// handing a span-recording `Execution` wrapper to the driver: every
/// `impl Execution` in the tree must be pinned in the conform snapshot
/// manifest, and the benchmark owns no file there.
pub fn drive_spanned<E: Execution>(
    mut exec: E,
    log: &SharedLog,
    instance: u64,
) -> Result<E::Outcome, String> {
    loop {
        if let Status::Done(outcome) = step_spanned(&mut exec, log, instance)? {
            return Ok(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            instance: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > a1 [15,35); root > b [50,70).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 35, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 10, 20, 20]);
        let total: u64 = self_times_ns(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root interval");
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        // Children cover [10,80) and [90,100) of the root.
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn nested_spans_record_parents_and_close_in_order() {
        let log = SpanLog::shared();
        timed(Some(&log), "outer", 7, || {
            timed(Some(&log), "inner", 7, || {});
            timed(Some(&log), "inner", 7, || {});
        });
        let log = log.borrow();
        let s = log.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s[1].end_ns <= s[2].start_ns);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        let mut out = Vec::new();
        log.write_jsonl(&mut out).expect("writing to memory");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text
            .lines()
            .nth(1)
            .expect("two lines")
            .contains("\"parent\":0"));
    }
}
