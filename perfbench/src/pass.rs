//! What one pass over a workload's inputs produced.

use picolfsr::obs::{MetricValue, MetricsSnapshot, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Nanoseconds since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The outcome of one pass: a fresh stack built, every input served
/// once and checked against the oracle.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time to build personalities and construct the stack.
    pub setup_ns: u64,
    /// Host time of the calibration probe, averaged over a probe just
    /// before and one just after the pass.
    pub probe_ns: u64,
    /// Host time of each iteration of the client loop; together they
    /// make up the timed region (serving every input).
    pub segments_ns: Vec<u64>,
    /// Host latency of each step.
    pub steps_ns: Vec<u64>,
    /// Host time of each power-loss recovery.
    pub recover_ns: Vec<u64>,
    /// Items attempted.
    pub attempted: u64,
    /// Items delivered and matching the oracle.
    pub verified: u64,
    /// Items that mismatched, were lost unaccounted or hit an
    /// unexpected error.
    pub failed: u64,
    /// Payload bytes of the verified items.
    pub bytes: u64,
    /// Simulated statistics: registry counters and the benchmark's
    /// own client-side counts. Identical in every pass of one seed.
    pub counts: BTreeMap<String, u64>,
    /// Per-call host durations kept for percentiles across passes.
    pub samples: BTreeMap<&'static str, Vec<u64>>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Pass {
    /// Records one failed item.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Adds `n` to a benchmark-side count.
    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_default() += n;
    }

    /// Adds every counter and histogram total of a registry snapshot.
    pub fn absorb(&mut self, snap: &MetricsSnapshot) {
        for (name, v) in snap.iter() {
            match v {
                MetricValue::Counter(c) => self.count(name, *c),
                MetricValue::Histogram(h) => {
                    self.count(&format!("{name}#count"), h.count);
                    self.count(&format!("{name}#sum"), h.sum);
                }
                MetricValue::Gauge(_) => {}
            }
        }
    }

    /// Adds a program tracer's event and span totals.
    pub fn absorb_tracer(&mut self, t: &Tracer) {
        self.count("bench.obs_events", t.recorded());
        self.count("bench.obs_spans", t.spans().len() as u64);
    }

    /// Sum of a registry counter over every scope (`shard0/…`) it
    /// appears under.
    pub fn total(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| {
                k.as_str() == name || k.strip_suffix(name).is_some_and(|head| head.ends_with('/'))
            })
            .map(|(_, v)| v)
            .sum()
    }

    /// Simulated PiCoGA cycles: compute, context switches and context
    /// loads.
    pub fn sim_cycles(&self) -> u64 {
        ["compute", "context_switch", "context_load"]
            .iter()
            .map(|k| self.total(&format!("picoga.cycles.{k}")))
            .sum()
    }
}
