//! Unified observability report over the whole simulated stack.
//!
//! Two passes, both seeded and deterministic:
//!
//! 1. **Catalogue sweep** — every CRC standard in the catalogue at
//!    M ∈ {8, 32, 128}, each checksum run on its own DREAM app; per
//!    point the report records throughput, per-row fabric occupancy
//!    from the [`obs`] profiler, pipeline fill/drain stalls, and
//!    per-personality lane usage. Unmappable points are listed, not
//!    dropped silently.
//! 2. **Storm smoke pass** — the `stream_storm` smoke campaign, whose
//!    service exports the full unified metrics registry: recovery-event
//!    latency and queue-depth histograms, every decision counter, and
//!    the cycle-stamped event trace length.
//!
//! The output `BENCH_obs.json` is one JSON document with sorted keys
//! and integer values only — two runs with the same seed are
//! byte-identical (CI compares them with `cmp`). Before writing, the
//! binary schema-checks itself: every metric name registered by the
//! storm stack must appear in the document, else it exits 1.
//!
//! Usage: `obs_report [--smoke] [--seed N] [--out PATH]`

use obs::MetricValue;
use std::fmt::Write as _;
use stream::{run_storm, StormConfig};

fn json_histogram(h: &obs::HistogramSnapshot) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
    )
}

#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn rounded_bps(bps: f64) -> u64 {
    if bps.is_finite() && bps > 0.0 {
        bps.round() as u64
    } else {
        0
    }
}

fn catalogue_section(out: &mut String) -> (usize, usize) {
    let ms = [8usize, 32, 128];
    let data = bench::message(128, 0x0B5); // 1024 bits: a multiple of every M
    let mut entries: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for spec in lfsr::crc::CATALOG {
        for m in ms {
            let opts = dream_lfsr::FlowOptions::dream_with_m(m);
            let Ok((mut app, _)) = dream_lfsr::build_crc_app(spec, &opts) else {
                skipped.push(format!(
                    "{{\"spec\":\"{}\",\"m\":{m}}}",
                    obs::json_escape(spec.name)
                ));
                continue;
            };
            let (_, report) = app.checksum(&data);
            let stats = app.update_stats();
            let hub = app.fabric().obs();
            let total = hub.now_cycles();
            let prof = &hub.profiler;
            let occupancy: Vec<String> = prof
                .occupancy_pct(total)
                .iter()
                .map(u64::to_string)
                .collect();
            let lanes: Vec<String> = prof
                .lanes()
                .iter()
                .map(|(name, u)| {
                    format!(
                        "\"{}\":{{\"busy_cycles\":{},\"issues\":{},\"blocks\":{}}}",
                        obs::json_escape(name),
                        u.busy_cycles,
                        u.issues,
                        u.blocks
                    )
                })
                .collect();
            entries.push(format!(
                "{{\"spec\":\"{}\",\"m\":{m},\"rows\":{},\"cells\":{},\
                 \"fabric_cycles\":{total},\"total_cycles\":{},\
                 \"throughput_bps\":{},\"fill_drain_stalls\":{},\
                 \"row_occupancy_pct\":[{}],\"lanes\":{{{}}}}}",
                obs::json_escape(spec.name),
                stats.rows,
                stats.cells,
                report.total_cycles(),
                rounded_bps(report.throughput_bps(bench::CLOCK_HZ)),
                prof.fill_drain_stalls(),
                occupancy.join(","),
                lanes.join(","),
            ));
        }
    }
    let _ = write!(out, "\"catalogue\":[{}]", entries.join(","));
    let _ = write!(out, ",\"unmappable\":[{}]", skipped.join(","));
    (entries.len(), skipped.len())
}

fn main() {
    let (smoke, seed, out_path) = bench::report_args("obs_report", "BENCH_obs.json");

    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"obs_report\",\"seed\":{seed},\"mode\":\"{}\",\"clock_hz\":{},",
        if smoke { "smoke" } else { "full" },
        bench::CLOCK_HZ as u64,
    );

    let (mapped, unmappable) = catalogue_section(&mut doc);

    // Storm pass: the unified registry over the whole serving stack.
    let cfg = if smoke {
        StormConfig::smoke(seed)
    } else {
        StormConfig::full(seed)
    };
    let report = match run_storm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("storm pass failed: {e}");
            std::process::exit(1);
        }
    };
    let recovery = match report.metrics.get("resilience.recovery_cycles") {
        Some(MetricValue::Histogram(h)) => *h,
        _ => obs::HistogramSnapshot::default(),
    };
    let queue_depth = match report.metrics.get("service.queue_depth") {
        Some(MetricValue::Histogram(h)) => *h,
        _ => obs::HistogramSnapshot::default(),
    };
    let metric_lines: Vec<String> = report
        .metrics
        .to_json_lines()
        .lines()
        .map(str::to_owned)
        .collect();
    let _ = write!(
        doc,
        ",\"storm\":{{\"planned\":{},\"completed\":{},\"unfinished\":{},\
         \"mismatches\":{},\"faults_injected\":{},\"ticks_run\":{},\
         \"passed\":{},\"trace_lines\":{},\
         \"recovery_cycles\":{},\"queue_depth\":{},\
         \"metrics\":[{}]}}}}",
        report.planned,
        report.completed,
        report.unfinished,
        report.mismatches,
        report.faults_injected,
        report.ticks_run,
        report.passed(),
        report.trace_log.lines().count(),
        json_histogram(&recovery),
        json_histogram(&queue_depth),
        metric_lines.join(","),
    );
    doc.push('\n');

    // Schema self-check: every metric the stack registered must appear
    // in the document. A partial export fails loudly, not silently.
    let missing: Vec<&String> = report
        .metric_names
        .iter()
        .filter(|name| !doc.contains(&format!("\"name\":\"{}\"", obs::json_escape(name))))
        .collect();
    if !missing.is_empty() {
        eprintln!(
            "schema check failed: {} registered metric(s) missing from the report:",
            missing.len()
        );
        for name in missing {
            eprintln!("  {name}");
        }
        std::process::exit(1);
    }

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "obs_report: {mapped} catalogue points ({unmappable} unmappable) + storm seed={seed} -> {out_path}"
    );
    println!(
        "storm: completed={} mismatches={} recoveries(count={} p50={} p99={} max={}) \
         queue_depth(p50={} p99={} max={}) metrics={}",
        report.completed,
        report.mismatches,
        recovery.count,
        recovery.p50,
        recovery.p99,
        recovery.max,
        queue_depth.p50,
        queue_depth.p99,
        queue_depth.max,
        report.metric_names.len(),
    );
    if !report.passed() {
        eprintln!("storm pass FAILED its own acceptance gate");
        std::process::exit(1);
    }
}
