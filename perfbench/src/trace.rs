//! Wall-clock spans recorded around calls into the program's layers.
//!
//! Untraced runs pass `None` and pay one `Instant::now()` pair per call,
//! which they need for their own end-to-end timings anyway; the traced run
//! keeps every span in memory and derives the per-layer metrics from them.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded call: its layer name, the span that caused it, and how
/// long it took.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub dur: Duration,
}

/// In-memory span store, shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self::default()
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            parent,
            dur: Duration::ZERO,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize, dur: Duration) {
        self.spans.lock().expect("span store poisoned")[id].dur = dur;
    }

    /// Every span named `name`, in the order they were opened.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        let spans = self.spans.lock().expect("span store poisoned");
        spans.iter().filter(|s| s.name == name).cloned().collect()
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans(name).iter().map(|s| ms(s.dur)).collect()
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Per span name, in first-seen order: calls, total and self time in
    /// milliseconds (self time leaves out the time of child spans).
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child = vec![Duration::ZERO; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child[p] += s.dur;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, c) in spans.iter().zip(&child) {
            let own = ms(s.dur.saturating_sub(*c));
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += ms(s.dur);
                    r.3 += own;
                }
                None => rows.push((s.name, 1, ms(s.dur), own)),
            }
        }
        rows
    }
}

/// Run `f`, returning its result and wall time; with a tracer, also record
/// the call as a span named `name` under `parent`.  Returns the span id
/// (`None` when untraced) so callers can nest spans under it.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> R,
) -> (R, Duration) {
    let start = Instant::now();
    let id = tracer.map(|t| t.open(name, parent));
    let result = f(id);
    let dur = start.elapsed();
    if let (Some(t), Some(id)) = (tracer, id) {
        t.close(id, dur);
    }
    (result, dur)
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let tracer = Tracer::new();
        let ((), outer) = timed(Some(&tracer), "outer", None, |id| {
            for _ in 0..3 {
                timed(Some(&tracer), "inner", id, |_| {
                    std::thread::sleep(Duration::from_millis(1))
                });
            }
        });
        let inner = tracer.spans("inner");
        assert_eq!(inner.len(), 3);
        assert!(inner.iter().all(|s| s.parent == Some(0)));
        assert!(tracer.total_ms("inner") >= 3.0);
        assert!(tracer.total_ms("inner") <= ms(outer));
        let summary = tracer.summary();
        assert_eq!(summary[0].0, "outer");
        assert_eq!(summary[0].1, 1);
        assert_eq!(summary[1].1, 3);
        // The outer span's self time leaves out its children.
        assert!(summary[0].3 <= summary[0].2 - summary[1].2 + 1e-9);
        // Untraced calls still time themselves but record nothing.
        let (v, d) = timed(None, "outer", None, |id| id.is_none());
        assert!(v && d >= Duration::ZERO);
        assert_eq!(tracer.spans("outer").len(), 1);
    }
}
