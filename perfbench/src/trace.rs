//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer, kept in memory and printed when the run ends. They never nest:
//! each is a leaf under the run's root, so a span's self time is its
//! duration, and the root's remainder (the run's wall time minus every
//! span) is the `unattributed_ms` row that makes the table add up.

use std::time::Instant;

/// Flat spans under one root.
pub struct Tracer {
    root: Instant,
    spans: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// Opens the root span now.
    pub fn new() -> Tracer {
        Tracer {
            root: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` (`layer.what`).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.spans.push((name, start.elapsed().as_secs_f64() * 1e3));
        r
    }

    /// Total self time of every span named `name`, in ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.0 == name).map(|s| s.1).sum()
    }

    /// Self time per span name, in first-seen order, in ms.
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        let mut rows: Vec<(&'static str, f64)> = Vec::new();
        for &(name, ms) in &self.spans {
            match rows.iter_mut().find(|r| r.0 == name) {
                Some(r) => r.1 += ms,
                None => rows.push((name, ms)),
            }
        }
        rows
    }

    /// Wall time since the root opened, in ms.
    pub fn wall_ms(&self) -> f64 {
        self.root.elapsed().as_secs_f64() * 1e3
    }

    /// Spans recorded so far.
    pub fn calls(&self) -> u64 {
        self.spans.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_fold_calls_by_name() {
        let mut t = Tracer::new();
        t.span("a.x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("b.y", || ());
        t.span("a.x", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert!(t.ms("a.x") >= 3.0);
        let attributed: f64 = rows.iter().map(|r| r.1).sum();
        assert!(attributed <= t.wall_ms());
        assert_eq!(t.calls(), 3);
    }
}
