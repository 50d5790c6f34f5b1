//! In-memory spans recorded by the benchmark around its calls into each
//! layer, plus the two observers it plugs into the program: a
//! [`SharedEstimatorCache`] wrapper that times the link cache, and a
//! [`MetricsSink`] that timestamps ladder rung events.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sqe_core::{CacheKey, DegradeReason, MetricsSink, Quality, SharedEstimatorCache, SitId};
use sqe_histogram::Histogram;

/// Spans written out per run; the rest only feed the self times, so a
/// run's trace file stays around 15 MB.
const WRITTEN_SPANS: usize = 100_000;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One layer call. Aggregate spans (`calls > 1`) stand for many short
/// calls under one parent — the link cache is probed thousands of times
/// per estimate — and carry their summed time in `busy_ns`.
struct Span {
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
    busy_ns: u64,
}

/// Spans of one run, kept in memory and written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.busy_ns = end - s.start_ns;
    }

    /// Records `calls` calls of `busy_ns` in total under `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, calls: u64, busy_ns: u64) {
        let p = &self.spans[parent];
        let span = Span {
            name,
            request: p.request,
            parent: Some(parent),
            start_ns: p.start_ns,
            end_ns: p.end_ns,
            calls,
            busy_ns,
        };
        self.spans.push(span);
    }

    /// Busy time of the root span `id`.
    pub fn busy_ns(&self, id: SpanId) -> u64 {
        self.spans[id].busy_ns
    }

    /// Self time per span name: each span's busy time minus the busy
    /// time of its children, summed with the number of spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += s.busy_ns.saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Writes the first [`WRITTEN_SPANS`] spans as one JSON object per
    /// line, then a line counting the rest.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(WRITTEN_SPANS) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns, s.calls, s.busy_ns
            )?;
        }
        let rest = self.spans.len().saturating_sub(WRITTEN_SPANS);
        writeln!(w, "{{\"spans_not_written\": {rest}}}")?;
        w.flush()
    }
}

/// Times every call into the wrapped shared cache and counts its hits.
pub struct TimedCache<'a> {
    inner: &'a dyn SharedEstimatorCache,
    calls: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    busy_ns: AtomicU64,
}

/// What one estimate did in the link cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheUse {
    pub calls: u64,
    pub lookups: u64,
    pub hits: u64,
    pub busy_ns: u64,
}

impl<'a> TimedCache<'a> {
    pub fn new(inner: &'a dyn SharedEstimatorCache) -> Self {
        TimedCache {
            inner,
            calls: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    pub fn usage(&self) -> CacheUse {
        CacheUse {
            calls: self.calls.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        r
    }

    fn lookup<T>(&self, f: impl FnOnce() -> Option<T>) -> Option<T> {
        let r = self.timed(f);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        if r.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        r
    }
}

impl SharedEstimatorCache for TimedCache<'_> {
    fn get_link(&self, key: &CacheKey) -> Option<(f64, f64)> {
        self.lookup(|| self.inner.get_link(key))
    }
    fn put_link(&self, key: CacheKey, value: (f64, f64)) {
        self.timed(|| self.inner.put_link(key, value));
    }
    fn get_join(&self, pair: (SitId, SitId)) -> Option<f64> {
        self.lookup(|| self.inner.get_join(pair))
    }
    fn put_join(&self, pair: (SitId, SitId), selectivity: f64) {
        self.timed(|| self.inner.put_join(pair, selectivity));
    }
    fn get_h3(&self, pair: (SitId, SitId)) -> Option<(Histogram, f64)> {
        self.lookup(|| self.inner.get_h3(pair))
    }
    fn put_h3(&self, pair: (SitId, SitId), value: (Histogram, f64)) {
        self.timed(|| self.inner.put_h3(pair, value));
    }
}

/// A ladder event as the sink saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RungEvent {
    Attempted(Quality),
    Answered(Quality),
}

/// Timestamps every rung event; the gap between consecutive events is
/// the time spent in the rung the earlier one opened.
#[derive(Default)]
pub struct RungClock {
    events: Mutex<Vec<(Instant, RungEvent)>>,
}

impl RungClock {
    /// Takes the events recorded since the last call.
    pub fn drain(&self) -> Vec<(Instant, RungEvent)> {
        std::mem::take(&mut *self.events.lock().expect("rung clock poisoned"))
    }

    fn push(&self, e: RungEvent) {
        let now = Instant::now();
        self.events
            .lock()
            .expect("rung clock poisoned")
            .push((now, e));
    }
}

impl MetricsSink for RungClock {
    fn rung_attempted(&self, quality: Quality) {
        self.push(RungEvent::Attempted(quality));
    }
    fn rung_answered(&self, quality: Quality, _reason: Option<DegradeReason>) {
        self.push(RungEvent::Answered(quality));
    }
}
