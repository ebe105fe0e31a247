//! Seeded crash-recovery campaign over the journaled control plane.
//!
//! Drives `cluster`'s crash harness: chaos-storm traffic over a
//! cluster whose control plane journals every decision to a simulated
//! disk, whole-cluster power losses at seeded progress points, and a
//! hostile storage layer (torn tail writes, lost unflushed suffixes,
//! duplicated appends, bit rot in superseded segments). Each crash is
//! followed by journal replay and control-plane reconstruction; every
//! durably applied idempotency token is then redelivered and must be
//! suppressed. The journal's own frames are checksummed through a
//! fabric CRC lane that the campaign degrades, faults and heals, so
//! the log rides the paper's recovery ladder.
//!
//! Prints the human-readable report to stdout and writes a flat JSON
//! summary (integers and booleans only — byte-identical across
//! same-seed runs, CI compares two with `cmp`) to `--out`. The JSON is
//! schema-self-checked before it is written: every gate key the
//! regression ratchet reads must parse back out of the document.
//!
//! Usage: `crash_storm [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero on any digest mismatch, unaccounted loss, unfinished
//! stream, double-applied token, or missed coverage floor, so it
//! doubles as a CI gate.

use cluster::{run_crash_storm, CrashStormConfig};
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
    "crashes",
    "recoveries",
    "torn_tails",
    "bit_rots",
    "dup_appends",
    "torn_detected",
    "corrupt_detected",
    "dup_frames_detected",
    "frames_replayed",
    "streams_restored",
    "streams_lost",
    "tokens_restored",
    "migrations_committed",
    "migrations_aborted",
    "in_doubt_suppressed",
    "in_doubt_reapplied",
    "in_doubt_void",
    "hasher_frames",
    "hasher_software_frames",
    "hasher_ladder_runs",
    "storage_torn_tails",
    "storage_bit_rots",
    "storage_lost_suffixes",
    "storage_dup_appends",
    "faults_injected",
    "ticks_run",
    "migrations",
    "failovers",
    "lost_streams",
    "checkpoints_stored",
];

fn main() {
    // The smoke campaign is currently the only shape; `--smoke` is
    // accepted so every report binary drives the same way.
    let (_, seed, out_path) = bench::report_args("crash_storm", "BENCH_crash.json");

    let cfg = CrashStormConfig::smoke(seed);
    let report = match run_crash_storm(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("crash storm failed: {e}");
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
        "{{\"bench\":\"crash_storm\",\"seed\":{},\"shards\":{},\
         \"planned\":{},\"completed\":{},\"restarts\":{},\
         \"mismatches\":{},\"losses_unaccounted\":{},\"unfinished\":{},\
         \"dup_violations\":{},\"dups_suppressed\":{},\
         \"crashes\":{},\"recoveries\":{},\"torn_tails\":{},\
         \"bit_rots\":{},\"dup_appends\":{},\"torn_detected\":{},\
         \"corrupt_detected\":{},\"dup_frames_detected\":{},\
         \"frames_replayed\":{},\"streams_restored\":{},\
         \"streams_lost\":{},\"tokens_restored\":{},\
         \"migrations_committed\":{},\"migrations_aborted\":{},\
         \"in_doubt_suppressed\":{},\"in_doubt_reapplied\":{},\
         \"in_doubt_void\":{},\"hasher_frames\":{},\
         \"hasher_software_frames\":{},\"hasher_ladder_runs\":{},\
         \"storage_torn_tails\":{},\"storage_bit_rots\":{},\
         \"storage_lost_suffixes\":{},\"storage_dup_appends\":{},\
         \"faults_injected\":{},\"ticks_run\":{},\"migrations\":{},\
         \"failovers\":{},\"lost_streams\":{},\"checkpoints_stored\":{},\
         \"shard_lines\":[{}],\"exercised\":{},\"passed\":{}}}",
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
        report.crashes,
        report.recoveries,
        report.torn_tails,
        report.bit_rots,
        report.dup_appends,
        report.torn_detected,
        report.corrupt_detected,
        report.dup_frames_detected,
        report.frames_replayed,
        report.streams_restored,
        report.streams_lost,
        report.tokens_restored,
        report.migrations_committed,
        report.migrations_aborted,
        report.in_doubt_suppressed,
        report.in_doubt_reapplied,
        report.in_doubt_void,
        report.hasher_frames,
        report.hasher_software_frames,
        report.hasher_ladder_runs,
        x.storage_torn_tails,
        x.storage_bit_rots,
        x.storage_lost_suffixes,
        x.storage_dup_appends,
        report.faults_injected,
        report.ticks_run,
        c.migrations,
        c.failovers,
        c.lost_streams,
        c.checkpoints_stored,
        shard_lines.join(","),
        report.exercised(),
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
    eprintln!("crash_storm: JSON summary -> {out_path}");
    if !report.passed() || !report.exercised() {
        std::process::exit(1);
    }
}
