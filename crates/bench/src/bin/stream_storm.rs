//! Seeded multi-stream storm over the fault-tolerant serving layer.
//!
//! Simulates hundreds of concurrent CRC and scrambler streams feeding
//! chunked data through the DREAM fabric while faults are injected and
//! a load spike forces the admission ladder through every shedding
//! rung. Every completed stream's digest is checked against the
//! software oracle. Reproducible: the same seed always yields the same
//! report, byte for byte.
//!
//! Writes a flat JSON summary (sorted keys, integers only —
//! byte-identical across same-seed runs) to `--out` (default
//! `BENCH_storm.json`) for the `gate` regression table.
//!
//! Usage: `stream_storm [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero if any stream finishes with a wrong digest, any
//! planned stream fails to complete, or the p99 queue depth exceeds the
//! configured bound, so it doubles as a CI regression gate.

use std::fmt::Write as _;
use stream::{run_storm, StormConfig};

fn main() {
    let (smoke, seed, out_path) = bench::report_args("stream_storm", "BENCH_storm.json");

    let cfg = if smoke {
        StormConfig::smoke(seed)
    } else {
        StormConfig::full(seed)
    };
    let report = match run_storm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("storm failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    let c = &report.counters;
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"stream_storm\",\"seed\":{},\"mode\":\"{}\",\
         \"planned\":{},\"completed\":{},\"shed\":{},\"unfinished\":{},\
         \"mismatches\":{},\"faults_injected\":{},\"ticks_run\":{},\
         \"p99_queue_depth\":{},\"max_queue_depth\":{},\
         \"opened\":{},\"parked_fault\":{},\"parked_idle\":{},\
         \"resumed\":{},\"checkpoints\":{},\"restores\":{},\
         \"fault_rollbacks\":{},\"degraded_low_priority\":{},\
         \"passed\":{}}}",
        report.seed,
        if smoke { "smoke" } else { "full" },
        report.planned,
        report.completed,
        report.shed,
        report.unfinished,
        report.mismatches,
        report.faults_injected,
        report.ticks_run,
        report.p99_queue_depth,
        report.max_queue_depth,
        c.opened,
        c.parked_fault,
        c.parked_idle,
        c.resumed,
        c.checkpoints,
        c.restores,
        c.fault_rollbacks,
        c.degraded_low_priority,
        report.passed(),
    );
    doc.push('\n');
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Path goes to stderr so same-seed stdout stays byte-identical
    // even when the runs write to different --out files.
    eprintln!("stream_storm: JSON summary -> {out_path}");
    if !report.passed() {
        std::process::exit(1);
    }
}
