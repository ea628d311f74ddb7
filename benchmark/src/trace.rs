//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it, and an id
//! shared by all spans of one bin or one request. Spans are kept in
//! memory and written as JSON lines when the run ends. The program under
//! test is not instrumented: every span is stamped from the benchmark's
//! side of a public call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of a recorded span, unique within one run.
pub type SpanRef = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<crate>.<module>.<what>`.
    pub name: &'static str,
    /// The bin id or request id every span of one operation shares.
    pub id: u64,
    /// This span's handle.
    pub span: SpanRef,
    /// The span that caused this one.
    pub parent: Option<SpanRef>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A span recorder owned by one thread. Recorders of one run share an
/// origin and use distinct lanes, so their spans merge without clashes.
pub struct Tracer {
    on: bool,
    origin: Instant,
    lane: u32,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for lane `lane` (< 256). When `on` is false nothing is
    /// kept and every call returns at once.
    pub fn new(on: bool, origin: Instant, lane: u32) -> Self {
        Tracer {
            on,
            origin,
            lane,
            spans: Vec::new(),
        }
    }

    /// Whether spans are kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread of the same run.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer::new(self.on, self.origin, lane)
    }

    /// Record a span from stamps already taken.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanRef> {
        if !self.on {
            return None;
        }
        let span = (self.lane << 24) | self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            span,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        Some(span)
    }

    /// Start a span whose end is not known yet; finish it with
    /// [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        start: Instant,
    ) -> Option<SpanRef> {
        self.record(name, id, parent, start, start)
    }

    /// Set the end of a span started with [`Tracer::open`] on this
    /// recorder.
    pub fn close(&mut self, span: Option<SpanRef>, end: Instant) {
        if let Some(span) = span {
            let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
            let s = &mut self.spans[(span & 0x00FF_FFFF) as usize];
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Run `f`, record it as a span, and return its result with the
    /// elapsed milliseconds (measured whether or not spans are kept).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanRef>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, id, parent, start, end);
        (out, (end - start).as_secs_f64() * 1e3)
    }

    /// Take over another recorder's spans.
    pub fn merge(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write one JSON object per span, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self_ns) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"span\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name, s.id, s.span, parent, s.start_ns, s.end_ns, own
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<SpanRef, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let origin = Instant::now();
        let at = |us: u64| origin + Duration::from_micros(us);
        let mut t = Tracer::new(true, origin, 1);
        let root = t.record("root", 9, None, at(0), at(100));
        // Two overlapping children cover [10, 50]; a third pokes past the
        // parent's end and is clipped to [90, 100].
        let kid = t.record("kid", 9, root, at(10), at(40));
        t.record("kid", 9, root, at(30), at(50));
        t.record("kid", 9, root, at(90), at(120));
        t.record("grandkid", 9, kid, at(10), at(15));
        let late = t.open("late", 9, None, at(200));
        t.close(late, at(260));
        assert_eq!(
            self_times(t.spans()),
            vec![50_000, 25_000, 20_000, 30_000, 5_000, 60_000]
        );
        assert_eq!(t.ms_of("kid"), vec![0.03, 0.02, 0.03]);
    }

    #[test]
    fn lanes_keep_handles_apart_and_off_keeps_nothing() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 1);
        let mut b = a.fork(2);
        let ra = a.record("x", 0, None, origin, origin).unwrap();
        let rb = b.record("x", 0, None, origin, origin).unwrap();
        assert_ne!(ra, rb);
        a.merge(b);
        assert_eq!(a.spans().len(), 2);

        let mut off = Tracer::new(false, origin, 3);
        let (v, ms) = off.time("y", 0, None, || 5);
        assert_eq!(v, 5);
        assert!(ms >= 0.0);
        assert!(off.spans().is_empty());
    }
}
