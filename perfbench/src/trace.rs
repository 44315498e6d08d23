//! The traced run's instruments: spans around the benchmark's calls into
//! each layer, counts recorded at the same boundaries, and a counting
//! global allocator.
//!
//! Spans are recorded on the calling thread only and kept in memory until
//! the run ends. Each span has a name, a start, an end and a parent; the
//! spans of one operation (a refresh, a request, a churn round) share an
//! operation id. With tracing off, [`Tracer::span`] only calls its closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
}

/// Span and count recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off (spans already recorded stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Start a new operation: later root spans carry its id.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start: self.now(),
            end: 0,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Record one observation of the count `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counts.entry(name).or_default().push(value);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Every observation of the count `name`.
    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of its interval its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, c)| self_time((s.start, s.end), c))
            .collect()
    }

    /// Over the root spans named `root`, the share of their total duration
    /// that no child span covers: the part of an operation the trace does
    /// not attribute to a layer.
    pub fn uncovered_share(&self, root: &str) -> f64 {
        let self_times = self.self_times();
        let (mut uncovered, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(self_times) {
            if s.parent.is_none() && s.name == root {
                uncovered += own;
                total += s.end - s.start;
            }
        }
        if total == 0 {
            0.0
        } else {
            uncovered as f64 / total as f64
        }
    }

    /// Write `header` (one JSON object) and then every span, one JSON
    /// object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start, s.end
            )?;
        }
        out.flush()
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// `span`'s duration minus the union of `children` clipped to it.
/// Sorts `children` in place.
pub fn self_time(span: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (start, end) = span;
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// Median cost in nanoseconds of one `Instant::now()` pair, the floor
/// under every span.
pub fn timer_overhead_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2_001)
        .map(|_| {
            let outer = Instant::now();
            let a = Instant::now();
            let b = Instant::now();
            std::hint::black_box((a, b));
            outer.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::percentile(&mut samples, 0.5).unwrap_or(0.0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and requested bytes while
/// [`count_allocations`] has switched counting on. The counters are plain
/// statistics that publish no other data, so every access is `Relaxed`.
pub struct CountingAlloc;

impl CountingAlloc {
    fn record(size: usize) {
        // Relaxed: statistics only, no data is published through them
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` was allocated by `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations and bytes requested, process-wide, while `f` runs. Only
/// meaningful while no other thread allocates.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        // Relaxed: statistics only; `f` runs on this thread
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    // Relaxed: the switch orders nothing but this thread's own counting
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    // Relaxed: as above
    COUNTING.store(false, Ordering::Relaxed);
    (
        out,
        // Relaxed: statistics only, read back on the thread that counted
        ALLOCATIONS.load(Ordering::Relaxed) - a0,
        ALLOCATED_BYTES.load(Ordering::Relaxed) - b0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &mut []), 100);
        assert_eq!(self_time((0, 100), &mut [(10, 30), (50, 60)]), 70);
        // overlapping children count once
        assert_eq!(self_time((0, 100), &mut [(40, 70), (10, 50)]), 40);
        // children reaching outside the span are clipped to it
        assert_eq!(self_time((10, 20), &mut [(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 10), &mut [(0, 10), (2, 3)]), 0);
    }

    #[test]
    fn spans_nest_share_an_op_and_report_uncovered_time() {
        let mut t = Tracer::new(true);
        t.begin_op();
        t.span("op", |t| {
            t.span("a", |t| t.span("a.inner", |_| ()));
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.op == 1 && s.end >= s.start));
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let own = t.self_times();
        assert_eq!(
            own[0],
            (spans[0].end - spans[0].start)
                - (spans[1].end - spans[1].start)
                - (spans[3].end - spans[3].start)
        );
        let share = t.uncovered_share("op");
        assert!((0.0..0.5).contains(&share), "{share}");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 5), 5);
        t.count("c", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.counts("c").is_empty());
    }
}
