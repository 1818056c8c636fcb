//! Harness-side spans, kept in memory and written as Chrome-trace JSON
//! when the run ends (`--trace-out FILE`; open in `chrome://tracing` or
//! Perfetto). Spans inside the crates are a later issue.

use crate::workloads::Unit;
use std::time::Instant;

/// Spans recorded so far, relative to the first one.
pub struct Spans {
    origin: Instant,
    events: Vec<String>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = self.origin.elapsed();
        let r = f();
        let dur = self.origin.elapsed() - start;
        self.events.push(format!(
            "{{\"name\": \"{name}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}}}",
            start.as_micros(),
            dur.as_micros()
        ));
        r
    }

    /// The traced unit's per-level busy time and sink time, as counter
    /// events beside the spans.
    pub fn unit_counters(&mut self, u: &Unit) {
        let ts = self.origin.elapsed().as_micros();
        let mut args: Vec<String> = u
            .levels
            .iter()
            .map(|l| format!("\"{}_busy_us\": {}", l.name, l.busy_ns / 1000))
            .collect();
        args.push(format!("\"sink_us\": {}", u.sink_ns / 1000));
        self.events.push(format!(
            "{{\"name\": \"traced unit\", \"ph\": \"C\", \"pid\": 1, \"ts\": {ts}, \"args\": {{{}}}}}",
            args.join(", ")
        ));
    }

    pub fn to_json(&self) -> String {
        format!("{{\"traceEvents\": [\n{}\n]}}\n", self.events.join(",\n"))
    }
}
