//! Seeded chaos campaign over the self-healing cluster control loop.
//!
//! Drives `cluster`'s chaos harness: the full storm workload (random
//! migrations, a drain, a kill, fabric faults) plus an adversarial
//! schedule layered on top — shard slowdowns that trip circuit
//! breakers, corrupted and truncated checkpoint transfers mid-
//! migration, byzantine health probes that lie about fabric state,
//! fault flaps, admission storms, duplicate delivery of tokenized
//! operations, and a rolling personality upgrade executed mid-chaos.
//! Every completed stream's digest is checked against the software
//! oracle and every loss must be typed.
//!
//! Prints the human-readable report to stdout and writes a flat JSON
//! summary (integers and booleans only — byte-identical across
//! same-seed runs, CI compares two with `cmp`) to `--out`. The JSON is
//! schema-self-checked before it is written: every gate key the
//! regression ratchet reads must parse back out of the document.
//!
//! Usage: `chaos_storm [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero on any digest mismatch, unaccounted loss, unfinished
//! stream, or double-applied duplicate, so it doubles as a CI gate.

use cluster::{run_chaos_storm, ChaosStormConfig};
use std::fmt::Write as _;

/// Every integer key the `gate` table may read; the self-check
/// refuses to write a document any of these fail to parse back out of.
const SCHEMA_U64: &[&str] = &[
    "seed",
    "shards",
    "planned",
    "completed",
    "restarts",
    "mismatches",
    "losses_unaccounted",
    "unfinished",
    "dup_violations",
    "dups_suppressed",
    "slowdowns",
    "transfers_corrupted",
    "transfers_truncated",
    "byzantine_lies",
    "fault_flaps",
    "admission_storms",
    "faults_injected",
    "upgraded",
    "upgrade_skipped",
    "ticks_run",
    "migrations",
    "migration_retries",
    "failovers",
    "lost_streams",
    "checkpoints_stored",
    "breaker_trips",
    "retry_attempts",
    "retry_backoff_ticks",
    "rebalance_moves",
    "retire_vetoes",
    "shards_reopened",
    "probe_migrations",
];

fn main() {
    let mut seed: u64 = 2008;
    let mut out_path = String::from("BENCH_chaos.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // The smoke campaign is currently the only shape; the flag
            // is accepted so every storm binary drives the same way.
            "--smoke" => {}
            "--seed" => {
                let v = args.next().unwrap_or_default();
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed expects an unsigned integer, got {v:?}");
                    std::process::exit(2);
                });
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out expects a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: chaos_storm [--smoke] [--seed N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let cfg = ChaosStormConfig::smoke(seed);
    let report = match run_chaos_storm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos storm failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    let c = &report.counters;
    let x = &report.chaos;
    let shard_lines: Vec<String> = report
        .shard_lines
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"state\":\"{}\",\"opened\":{},\"completed\":{},\"chunks\":{}}}",
                obs::json_escape(&s.name),
                obs::json_escape(s.state),
                s.opened,
                s.completed,
                s.chunks,
            )
        })
        .collect();
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"chaos_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"mismatches\":{},\"losses_unaccounted\":{},\"unfinished\":{},\
         \"dup_violations\":{},\"dups_suppressed\":{},\
         \"slowdowns\":{},\"transfers_corrupted\":{},\
         \"transfers_truncated\":{},\"byzantine_lies\":{},\
         \"fault_flaps\":{},\"admission_storms\":{},\
         \"faults_injected\":{},\"upgraded\":{},\"upgrade_skipped\":{},\
         \"ticks_run\":{},\"migrations\":{},\"migration_retries\":{},\
         \"failovers\":{},\"lost_streams\":{},\"checkpoints_stored\":{},\
         \"breaker_trips\":{},\"retry_attempts\":{},\
         \"retry_backoff_ticks\":{},\"rebalance_moves\":{},\
         \"retire_vetoes\":{},\"shards_reopened\":{},\
         \"probe_migrations\":{},\"shard_lines\":[{}],\"passed\":{}}}",
        report.seed,
        report.shards,
        report.planned,
        report.completed,
        report.restarts,
        report.mismatches,
        report.losses_unaccounted,
        report.unfinished,
        report.dup_violations,
        report.dups_suppressed,
        x.slowdowns,
        x.transfers_corrupted,
        x.transfers_truncated,
        x.byzantine_lies,
        x.fault_flaps,
        x.admission_storms,
        report.faults_injected,
        report.upgraded,
        report.upgrade_skipped,
        report.ticks_run,
        c.migrations,
        c.migration_retries,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        c.breaker_trips,
        c.retry_attempts,
        c.retry_backoff_ticks,
        c.rebalance_moves,
        c.retire_vetoes,
        c.shards_reopened,
        c.probe_migrations,
        shard_lines.join(","),
        report.passed(),
    );
    doc.push('\n');

    for key in SCHEMA_U64 {
        if obs::json_u64(&doc, key).is_none() {
            eprintln!("schema self-check failed: key {key:?} does not parse back");
            std::process::exit(2);
        }
    }
    if !doc.contains("\"passed\":true") && !doc.contains("\"passed\":false") {
        eprintln!("schema self-check failed: no boolean \"passed\" key");
        std::process::exit(2);
    }

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Path goes to stderr so same-seed stdout stays byte-identical
    // even when the runs write to different --out files.
    eprintln!("chaos_storm: JSON summary -> {out_path}");
    if !report.passed() {
        std::process::exit(1);
    }
}
