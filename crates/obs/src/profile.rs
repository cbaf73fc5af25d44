//! Phase-scoped wall-clock profiler — explicitly **nondeterministic**.
//!
//! Everything else in this crate is a pure function of the simulation
//! seed; wall-clock timings are not, so they live behind a hard
//! separation: every rendered line starts with the `profile:` prefix,
//! and fixtures/CI diffs filter those lines (`grep -v '^profile:'`).
//! Nothing in the trace or the metrics registry ever depends on a
//! profiler reading.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Collects named wall-clock phase spans. Disabled profilers skip the
/// clock reads entirely.
#[derive(Debug, Default, Clone)]
pub struct Profiler {
    enabled: bool,
    notes: Vec<String>,
    spans: Vec<(String, Duration)>,
}

impl Profiler {
    /// A profiler; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Profiler {
        Profiler {
            enabled,
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Is the profiler recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Time `f` as phase `name` and return its result.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.spans.push((name.to_owned(), start.elapsed()));
        result
    }

    /// Record an externally measured span.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        if self.enabled {
            self.spans.push((name.to_owned(), elapsed));
        }
    }

    /// Record how the run was executed (`key=value`, e.g. which executor
    /// and lane packing served it): facts that change the wall clock but
    /// never the deterministic output, so they live with the spans.
    pub fn note(&mut self, note: impl Into<String>) {
        if self.enabled {
            self.notes.push(note.into());
        }
    }

    /// Recorded `(phase, duration)` spans, in recording order.
    pub fn spans(&self) -> &[(String, Duration)] {
        &self.spans
    }

    /// One `profile:`-prefixed line per note, then per span, in
    /// recording order, plus a total line. Empty string when disabled or
    /// nothing recorded — callers can always print the result verbatim.
    pub fn render(&self) -> String {
        if !self.enabled || self.spans.is_empty() && self.notes.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "profile: {note}");
        }
        if self.spans.is_empty() {
            return out;
        }
        let mut total = Duration::ZERO;
        for (name, elapsed) in &self.spans {
            total += *elapsed;
            let _ = writeln!(out, "profile: phase={name} wall_us={}", elapsed.as_micros());
        }
        let _ = writeln!(out, "profile: phase=total wall_us={}", total.as_micros());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::new(false);
        let v = p.time("phase-a", || 41 + 1);
        assert_eq!(v, 42);
        p.record("phase-b", Duration::from_millis(5));
        p.note("occupancy=392/448");
        assert!(p.spans().is_empty());
        assert_eq!(p.render(), "");
    }

    #[test]
    fn enabled_profiler_renders_prefixed_lines() {
        let mut p = Profiler::new(true);
        p.time("fan-out", || ());
        p.record("dictionary-build", Duration::from_micros(250));
        p.note("occupancy=392/448");
        let text = p.render();
        for line in text.lines() {
            assert!(line.starts_with("profile: "), "unprefixed line: {line}");
        }
        assert!(text.contains("phase=fan-out"));
        assert!(text.contains("phase=dictionary-build wall_us=250"));
        assert!(text.contains("phase=total"));
        assert!(text.starts_with("profile: occupancy=392/448\n"), "{text}");
    }
}
