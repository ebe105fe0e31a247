//! Turns a run's passes into the named metrics and prints them: one
//! line per metric, then the JSON result line.

use crate::calib;
use crate::pass::Pass;
use crate::spans::Spans;
use crate::Args;
use std::collections::{BTreeMap, BTreeSet};

/// Per-layer self times: metric name and the span it sums.
const LAYER_TIMES: [(&str, &str); 21] = [
    ("flow.build_s", "flow.build"),
    ("dream.checksum_s", "dream.checksum"),
    ("dream.scramble_s", "dream.scramble"),
    ("resilience.self_check_s", "resilience.self_check"),
    ("stream.open_s", "stream.open"),
    ("stream.feed_s", "stream.feed"),
    ("stream.tick_s", "stream.tick"),
    ("stream.collect_s", "stream.collect"),
    ("stream.resume_s", "stream.resume"),
    ("stream.finish_s", "stream.finish"),
    ("cluster.open_s", "cluster.open"),
    ("cluster.feed_s", "cluster.feed"),
    ("cluster.tick_s", "cluster.tick"),
    ("cluster.collect_s", "cluster.collect"),
    ("cluster.resume_s", "cluster.resume"),
    ("cluster.migrate_s", "cluster.migrate"),
    ("cluster.drain_s", "cluster.drain"),
    ("cluster.kill_s", "cluster.kill"),
    ("cluster.finish_s", "cluster.finish"),
    ("cluster.recover_s", "cluster.recover"),
    ("wal.recover_s", "wal.recover"),
];

/// Per-layer call counts: metric name and the span it counts.
const LAYER_CALLS: [(&str, &str); 4] = [
    ("flow.builds", "flow.build"),
    ("dream.checksum_calls", "dream.checksum"),
    ("dream.scramble_calls", "dream.scramble"),
    ("resilience.self_checks", "resilience.self_check"),
];

/// Per-layer simulated counts: metric name and the pass count (a
/// registry counter summed over scopes, or a benchmark-side count).
const LAYER_COUNTS: [(&str, &str); 24] = [
    ("picoga.compute_cycles", "picoga.cycles.compute"),
    (
        "picoga.context_switch_cycles",
        "picoga.cycles.context_switch",
    ),
    ("picoga.context_load_cycles", "picoga.cycles.context_load"),
    ("dream.cache_hits", "dream.cache.hits"),
    ("dream.cache_misses", "dream.cache.misses"),
    ("dream.cache_evictions", "dream.cache.evictions"),
    ("resilience.scrub_runs", "dream.resilience.scrub_runs"),
    ("resilience.probe_runs", "dream.resilience.probe_runs"),
    ("resilience.detections", "dream.resilience.detections"),
    ("resilience.recoveries", "resilience.recoveries"),
    ("stream.chunks", "service.chunks_processed"),
    ("stream.checkpoints", "service.checkpoints"),
    ("stream.restores", "service.restores"),
    ("stream.rollbacks", "service.fault_rollbacks"),
    ("stream.degraded", "service.degraded_low_priority"),
    ("cluster.failovers", "cluster.failovers"),
    ("cluster.streams_restored", "bench.streams_restored"),
    ("cluster.streams_lost", "bench.streams_lost"),
    ("wal.frames", "bench.wal_frames"),
    ("wal.bytes", "bench.wal_bytes"),
    ("wal.flushes", "bench.wal_flushes"),
    ("wal.frames_replayed", "bench.wal_frames_replayed"),
    (
        "wal.hasher_software_frames",
        "bench.wal_hasher_software_frames",
    ),
    ("obs.events_recorded", "bench.obs_events"),
];

/// Per-layer accept ratios: metric name, accepted count, attempted
/// count.
const LAYER_RATIOS: [(&str, &str, &str); 3] = [
    (
        "stream.open_accept_ratio",
        "bench.stream_open_accepts",
        "bench.stream_open_attempts",
    ),
    (
        "stream.feed_accept_ratio",
        "bench.stream_feed_accepts",
        "bench.stream_feed_attempts",
    ),
    (
        "cluster.migrate_ok_ratio",
        "bench.migrate_applied",
        "bench.migrate_attempts",
    ),
];

/// The simulated statistics of `pass` that differ from `first`'s.
pub fn drift(first: &Pass, pass: &Pass, index: usize) -> Vec<String> {
    let keys: BTreeSet<&String> = first.counts.keys().chain(pass.counts.keys()).collect();
    let mut out: Vec<String> = keys
        .into_iter()
        .filter_map(|k| {
            let (a, b) = (first.counts.get(k), pass.counts.get(k));
            (a != b).then(|| format!("pass {index}: {k} {a:?} -> {b:?}"))
        })
        .collect();
    for (what, a, b) in [
        ("attempted", first.attempted, pass.attempted),
        ("verified", first.verified, pass.verified),
        ("bytes", first.bytes, pass.bytes),
        (
            "steps",
            first.steps_ns.len() as u64,
            pass.steps_ns.len() as u64,
        ),
        (
            "loop iterations",
            first.segments_ns.len() as u64,
            pass.segments_ns.len() as u64,
        ),
        (
            "recoveries",
            first.recover_ns.len() as u64,
            pass.recover_ns.len() as u64,
        ),
    ] {
        if a != b {
            out.push(format!("pass {index}: {what} {a} -> {b}"));
        }
    }
    out
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (the mean of the middle two for an even count).
fn median_f(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn median(v: Vec<u64>) -> f64 {
    median_f(v.into_iter().map(|x| x as f64).collect())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Host time of a set of passes that replay identical work, rescaled by
/// `scale` to the reference host speed (see [`calib`]).
///
/// Index `k` of a pass's series (its k-th loop iteration, step or
/// recovery) is the same work in every pass of a seed, so the median
/// over passes is that work's cost with the host's second-long slow
/// stretches voted out. Totals and percentiles are taken over these
/// per-index medians.
struct Timing {
    /// Host time of one pass's timed region, ns.
    pass_ns: f64,
    /// Per-step latencies, ns, sorted.
    steps: Vec<f64>,
    /// Per-recovery host times, ns.
    recover: Vec<f64>,
}

impl Timing {
    fn of(passes: &[&Pass], scale: f64) -> Self {
        let per_index = |series: &dyn Fn(&Pass) -> &[u64]| -> Vec<f64> {
            let n = passes.iter().map(|p| series(p).len()).min().unwrap_or(0);
            (0..n)
                .map(|k| scale * median_f(passes.iter().map(|p| series(p)[k] as f64).collect()))
                .collect()
        };
        let mut steps = per_index(&|p| &p.steps_ns);
        steps.sort_by(f64::total_cmp);
        Timing {
            pass_ns: per_index(&|p| &p.segments_ns).iter().sum(),
            steps,
            recover: per_index(&|p| &p.recover_ns),
        }
    }
}

/// Peak resident memory of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The metrics of one run.
pub struct Summary {
    workload: String,
    passes: usize,
    timed: usize,
    traced: usize,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    drift: Vec<String>,
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Summary {
    /// Computes every metric. End-to-end figures come from the timed
    /// untraced passes, per-layer figures from the traced passes.
    pub fn new(
        workload: &str,
        passes: &[(Pass, bool)],
        traces: &[(usize, Spans)],
        drift: Vec<String>,
    ) -> Self {
        let timed: Vec<&Pass> = passes
            .iter()
            .skip(1)
            .filter(|(_, t)| !t)
            .map(|(p, _)| p)
            .collect();
        let traced: Vec<&Pass> = passes.iter().filter(|(_, t)| *t).map(|(p, _)| p).collect();
        let first = &passes[0].0;
        let attempted = passes.iter().map(|(p, _)| p.attempted).sum::<u64>();
        let failed = passes.iter().map(|(p, _)| p.failed).sum::<u64>();
        let failures = passes
            .iter()
            .flat_map(|(p, _)| p.failures.iter().cloned())
            .take(8)
            .collect();

        let probe_ns = median(passes.iter().map(|(p, _)| p.probe_ns).collect());
        let scale = ratio(calib::REFERENCE_NS, probe_ns);
        let t = Timing::of(&timed, scale);
        let steps = t.steps.len();

        let mut notes = vec![format!(
            "host speed: probe {:.3} ms, host times rescaled x{scale:.4} to the {} ms reference",
            probe_ns / 1e6,
            calib::REFERENCE_NS / 1e6
        )];
        notes.push(format!(
            "step samples {steps} per pass, each the median of {} passes",
            timed.len()
        ));
        if steps < 1000 {
            notes.push("step_p99_us has fewer than 10 samples above it".into());
        }
        notes.push(if t.recover.is_empty() {
            "recover_ms n/a (no power losses in this workload)".into()
        } else {
            format!(
                "recover_ms {} ms over {} recoveries per pass",
                median_f(t.recover.clone()) / 1e6,
                t.recover.len()
            )
        });
        notes.push(format!(
            "error_ratio {} ({failed} of {attempted})",
            ratio(failed as f64, attempted as f64)
        ));

        let end_to_end = vec![
            (
                "host_mbps",
                ratio(first.bytes as f64 * 1e3, t.pass_ns),
                "MB/s",
            ),
            (
                "items_per_s",
                ratio(first.verified as f64 * 1e9, t.pass_ns),
                "1/s",
            ),
            ("step_p50_us", quantile(&t.steps, 0.50) / 1e3, "us"),
            ("step_p99_us", quantile(&t.steps, 0.99) / 1e3, "us"),
            (
                "host_ns_per_sim_cycle",
                ratio(t.pass_ns, first.sim_cycles() as f64),
                "ns",
            ),
            (
                "sim_gbps",
                ratio(first.bytes as f64 * 8.0 * 0.2, first.sim_cycles() as f64),
                "Gbit/s",
            ),
            (
                "setup_s",
                scale * median(passes.iter().map(|(p, _)| p.setup_ns).collect()) / 1e9,
                "s",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];

        let mut per_layer = Vec::new();
        let self_times: Vec<BTreeMap<&str, (u64, u64)>> =
            traces.iter().map(|(_, s)| s.self_times()).collect();
        for (metric, span) in LAYER_TIMES {
            let per_pass = self_times
                .iter()
                .map(|t| t.get(span).map_or(0, |v| v.0))
                .collect();
            per_layer.push((metric, scale * median(per_pass) / 1e9, "s"));
        }
        for (metric, span) in LAYER_CALLS {
            let calls = self_times
                .first()
                .and_then(|t| t.get(span))
                .map_or(0, |v| v.1);
            per_layer.push((metric, calls as f64, "count"));
        }
        let pooled = |class: &str| {
            median_f(
                traced
                    .iter()
                    .flat_map(|p| p.samples.get(class).into_iter().flatten())
                    .map(|&ns| ns as f64)
                    .collect(),
            ) * scale
                / 1e3
        };
        per_layer.push((
            "dream.checksum_small_p50_us",
            pooled("dream.checksum_small"),
            "us",
        ));
        per_layer.push((
            "dream.checksum_large_p50_us",
            pooled("dream.checksum_large"),
            "us",
        ));
        for (metric, key) in LAYER_COUNTS {
            per_layer.push((metric, first.total(key) as f64, "count"));
        }
        per_layer.push(("obs.spans", first.total("bench.obs_spans") as f64, "count"));
        for (metric, ok, tried) in LAYER_RATIOS {
            per_layer.push((
                metric,
                ratio(first.total(ok) as f64, first.total(tried) as f64),
                "ratio",
            ));
        }
        let tt = Timing::of(&traced, scale);
        per_layer.push(("recover_ms", median_f(tt.recover) / 1e6, "ms"));
        per_layer.push((
            "error_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        ));
        // host_mbps is bytes over pass time, so its relative gap is
        // 1 - plain time / traced time.
        per_layer.push((
            "bench.trace_overhead_pct",
            (1.0 - ratio(t.pass_ns, tt.pass_ns)) * 100.0,
            "%",
        ));
        per_layer.push(("bench.step_samples", steps as f64, "count"));

        Summary {
            workload: workload.to_string(),
            passes: passes.len(),
            timed: timed.len(),
            traced: traced.len(),
            attempted,
            failed,
            failures,
            drift,
            end_to_end,
            per_layer,
            notes,
        }
    }

    /// No failed item and no simulated statistic drifting between
    /// passes.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.drift.is_empty()
    }

    /// Prints every metric by name and unit, then the JSON result line
    /// (end-to-end metrics untraced, per-layer metrics traced).
    pub fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} passes {} (timed untraced {}, traced {})",
            self.workload, args.seed, self.passes, self.timed, self.traced
        );
        for (name, value, unit) in &self.end_to_end {
            println!("  {name:<30} {value:>16.4} {unit}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        if args.trace {
            for (name, value, unit) in &self.per_layer {
                println!("  {name:<30} {value:>16.4} {unit}");
            }
        }
        for f in &self.failures {
            println!("  FAILED {f}");
        }
        for d in self.drift.iter().take(16) {
            println!("  DRIFT {d}");
        }
        let metrics = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}
