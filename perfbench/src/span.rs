//! Spans around the calls the benchmark makes into each layer.
//!
//! Every timing here is taken from outside the library: the benchmark
//! opens a span, calls one public function of a layer, and closes the
//! span. Nothing inside the library is instrumented.
//!
//! With tracing off the [`Recorder`] keeps only the two end-to-end
//! sums (set-up and run). With tracing on it also keeps every span in
//! memory — name, start, end, parent and unit — for the per-layer
//! breakdown and for export when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

use gridvm_simcore::time::{SimDuration, SimTime};
use gridvm_storage::block::BlockAddr;
use gridvm_vmm::exec::GuestStorage;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name of the call, e.g. `vmm.run_app`.
    pub name: &'static str,
    /// The unit (one cell of an artifact) the call belongs to.
    pub unit: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Host nanoseconds the call took.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has been opened and not yet closed.
#[must_use = "close the span with Recorder::close"]
#[derive(Debug)]
pub struct Open {
    start: Instant,
    index: Option<u32>,
}

/// Which end-to-end sum a timed call counts towards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A call that builds a unit's world (`setup_s`).
    Setup,
    /// A call that runs a unit's simulation (`wall_s`).
    Run,
}

/// End-to-end phase sums plus, when tracing, the span log.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Option<Vec<Span>>,
    stack: Vec<u32>,
    unit: u32,
    /// Host time spent in calls that build a unit's world.
    pub setup: Duration,
    /// Host time spent in calls that run a unit's simulation.
    pub run: Duration,
}

impl Recorder {
    /// A recorder; `trace` keeps every span in memory.
    pub fn new(trace: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: trace.then(Vec::new),
            stack: Vec::new(),
            unit: 0,
            setup: Duration::ZERO,
            run: Duration::ZERO,
        }
    }

    /// Counts `took` towards `phase`'s sum.
    pub fn count(&mut self, phase: Phase, took: Duration) {
        match phase {
            Phase::Setup => self.setup += took,
            Phase::Run => self.run += took,
        }
    }

    /// Whether spans are being kept.
    pub fn tracing(&self) -> bool {
        self.spans.is_some()
    }

    /// Tags the spans opened from now on with `unit`.
    pub fn set_unit(&mut self, unit: u32) {
        self.unit = unit;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        let index = self.spans.as_mut().map(|spans| {
            let index = spans.len() as u32;
            spans.push(Span {
                name,
                unit: self.unit,
                parent: self.stack.last().copied(),
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(index);
            index
        });
        let start = Instant::now();
        if let (Some(i), Some(spans)) = (index, self.spans.as_mut()) {
            spans[i as usize].start_ns = nanos(start - self.origin);
        }
        Open { start, index }
    }

    /// Closes `open`, returning the host time it covered.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let (Some(i), Some(spans)) = (open.index, self.spans.as_mut()) {
            spans[i as usize].end_ns = nanos(end - self.origin);
            let top = self.stack.pop();
            assert_eq!(top, Some(i), "spans must close innermost first");
        }
        end - open.start
    }

    /// Closes every open span at the current instant. A unit that
    /// panicked leaves its spans open; their time counts towards
    /// neither phase.
    pub fn close_all(&mut self) {
        let now = nanos(self.origin.elapsed());
        while let Some(i) = self.stack.pop() {
            if let Some(spans) = self.spans.as_mut() {
                spans[i as usize].end_ns = now;
            }
        }
    }

    /// Times a call that builds a unit's world; it counts towards
    /// `setup_s`.
    pub fn setup<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        let took = self.close(open);
        self.count(Phase::Setup, took);
        out
    }

    /// Times a call that runs a unit's simulation; it counts towards
    /// `wall_s`.
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.run_timed(name, f).0
    }

    /// [`run`](Self::run), also returning the call's host time.
    pub fn run_timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.open(name);
        let out = f();
        let took = self.close(open);
        self.count(Phase::Run, took);
        (out, took)
    }

    /// Spans recorded so far (empty with tracing off).
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or(&[])
    }

    /// Writes every span as one tab-separated line:
    /// `index unit parent name start_ns end_ns` (parent `-` at top
    /// level).
    pub fn export(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tunit\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.unit, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a run lasts less than 584 years")
}

/// Per-name totals over a slice of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Name → (calls, summed duration s, summed self time s).
    pub by_name: BTreeMap<&'static str, (u64, f64, f64)>,
    /// Summed duration of the spans without a parent, seconds.
    pub top_level_s: f64,
}

impl SpanTotals {
    /// Totals over `spans`, whose parent indices are offsets into
    /// `all` (the recorder's full log). A span's self time is its
    /// duration minus its children's durations.
    pub fn over(all: &[Span], range: std::ops::Range<usize>) -> Self {
        let mut child_ns = vec![0u64; range.len()];
        for s in &all[range.clone()] {
            if let Some(p) = s.parent {
                let p = p as usize;
                if range.contains(&p) {
                    child_ns[p - range.start] += s.duration_ns();
                }
            }
        }
        let mut totals = SpanTotals::default();
        for (k, s) in all[range].iter().enumerate() {
            let d = s.duration_ns();
            let e = totals.by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d as f64 * 1e-9;
            e.2 += d.saturating_sub(child_ns[k]) as f64 * 1e-9;
            if s.parent.is_none() {
                totals.top_level_s += d as f64 * 1e-9;
            }
        }
        totals
    }

    /// Calls of `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |e| e.0)
    }

    /// Summed host seconds of `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.1)
    }

    /// Summed self seconds of `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |e| e.2)
    }
}

/// A [`GuestStorage`] decorator that records one span per `io_run`,
/// named `read` or `write` by direction, and otherwise forwards every
/// call unchanged.
pub struct TimedStorage<'a> {
    inner: &'a mut dyn GuestStorage,
    rec: &'a mut Recorder,
    read: &'static str,
    write: &'static str,
}

impl<'a> TimedStorage<'a> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(
        inner: &'a mut dyn GuestStorage,
        rec: &'a mut Recorder,
        read: &'static str,
        write: &'static str,
    ) -> Self {
        TimedStorage {
            inner,
            rec,
            read,
            write,
        }
    }
}

impl GuestStorage for TimedStorage<'_> {
    fn io_run(&mut self, now: SimTime, start: BlockAddr, count: u64, write: bool) -> SimTime {
        let open = self.rec.open(if write { self.write } else { self.read });
        let done = self.inner.io_run(now, start, count, write);
        self.rec.close(open);
        done
    }

    fn client_cpu_per_block(&self) -> SimDuration {
        self.inner.client_cpu_per_block()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_recorder_keeps_only_the_phase_sums() {
        let mut rec = Recorder::new(false);
        rec.setup("a", || ());
        rec.run("b", || ());
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::new(true);
        rec.set_unit(3);
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        std::thread::sleep(Duration::from_millis(2));
        rec.close(inner);
        rec.close(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 3));
        let t = SpanTotals::over(spans, 0..2);
        assert!(t.secs("inner") >= 0.002);
        let outer_self = t.self_secs("outer");
        assert!(
            (outer_self - (t.secs("outer") - t.secs("inner"))).abs() < 1e-9,
            "self time is duration minus children"
        );
        assert!((t.top_level_s - t.secs("outer")).abs() < 1e-12);
        let mut out = Vec::new();
        rec.export(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
