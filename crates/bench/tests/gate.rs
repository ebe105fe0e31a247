//! The gate table against the committed baselines: every report passes
//! against itself, each rule kind trips exactly its own row on a
//! perturbed copy, and the `gate` binary's exit codes.

use bench::gate::{self, Direction, Path, Reports, Rule, TABLE};
use std::process::Command;

const BASELINES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../baselines");

const FLOOR10: Rule = Rule::Floor { tol_pct: 10 };
const CEIL10_1: Rule = Rule::Ceiling {
    tol_pct: 10,
    slack: 1,
};
const CEIL10_2: Rule = Rule::Ceiling {
    tol_pct: 10,
    slack: 2,
};
const BAND: Rule = Rule::Band {
    tol_pct: 50,
    slack: 2,
};

/// Report, anchor, text replaced at the first match after the anchor,
/// replacement, and the one row (path, rule) it must trip — `None`
/// when the value sits exactly on the admitted edge.
type Case = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    Option<(&'static str, Rule)>,
);

#[rustfmt::skip]
const CASES: &[Case] = &[
    // Floor: 1600 completed at 10 % admits 1440; a 0 % ratchet admits no drop.
    ("BENCH_storm", "", "\"completed\":1600", "\"completed\":1440", None),
    ("BENCH_storm", "", "\"completed\":1600", "\"completed\":1439", Some(("completed", FLOOR10))),
    ("BENCH_lint", "", "\"mapped\":186", "\"mapped\":185", Some(("mapped", Rule::Floor { tol_pct: 0 }))),
    // Exercise floor: 27 cluster migrations at 25 % admit 20.
    ("BENCH_cluster", "", "\"migrations\":27", "\"migrations\":20", None),
    ("BENCH_cluster", "", "\"migrations\":27", "\"migrations\":19", Some(("migrations", Rule::Floor { tol_pct: 25 }))),
    // Ceiling with slack: p99 44 at 10 % + 1 admits 49.
    ("BENCH_storm", "", "\"p99_queue_depth\":44", "\"p99_queue_depth\":49", None),
    ("BENCH_storm", "", "\"p99_queue_depth\":44", "\"p99_queue_depth\":50", Some(("p99_queue_depth", CEIL10_1))),
    // Walked path: recovery_cycles.p99 (5339) precedes queue_depth.p99 (44).
    ("BENCH_obs", "\"queue_depth\":", "\"p99\":44", "\"p99\":49", None),
    ("BENCH_obs", "\"queue_depth\":", "\"p99\":44", "\"p99\":50", Some(("storm.queue_depth.p99", CEIL10_1))),
    // Zero.
    ("BENCH_chaos", "", "\"mismatches\":0", "\"mismatches\":1", Some(("mismatches", Rule::Zero))),
    // Band: 9 faults at 50 % and slack 2 admits [4, 15].
    ("BENCH_storm", "", "\"faults_injected\":9", "\"faults_injected\":3", Some(("faults_injected", BAND))),
    ("BENCH_storm", "", "\"faults_injected\":9", "\"faults_injected\":4", None),
    ("BENCH_storm", "", "\"faults_injected\":9", "\"faults_injected\":15", None),
    ("BENCH_storm", "", "\"faults_injected\":9", "\"faults_injected\":16", Some(("faults_injected", BAND))),
    // Missing catalogue points.
    ("BENCH_obs", "", "\"spec\":\"CRC-3/GSM\",\"m\":8,", "\"spec\":\"CRC-3/GSM\",\"m\":9,", Some(("catalogue[]", Rule::Present))),
    ("BENCH_analyze", "", "\"op\":\"crc-update\"", "\"op\":\"crc-gone\"", Some(("catalogue[]", Rule::Present))),
    // Per-entry numbers at CRC-3/GSM M=32: 2694736842 b/s admits 2425263157,
    // 3 stalls admit 5, 7 cells admit 9, critical path 3 admits 4.
    ("BENCH_obs", "\"m\":32,", "\"throughput_bps\":2694736842", "\"throughput_bps\":2425263156", Some(("catalogue[].throughput_bps", FLOOR10))),
    ("BENCH_obs", "\"m\":32,", "\"fill_drain_stalls\":3", "\"fill_drain_stalls\":6", Some(("catalogue[].fill_drain_stalls", CEIL10_2))),
    ("BENCH_analyze", "\"m\":32,", "\"cells\":7", "\"cells\":10", Some(("catalogue[].cells", CEIL10_2))),
    ("BENCH_analyze", "\"m\":32,", "\"critical_path\":3", "\"critical_path\":5", Some(("catalogue[].critical_path", CEIL10_1))),
    // Per-entry booleans, and 3797 model states admitting 3417.
    ("BENCH_analyze", "\"catalogue\":", "\"ok\":true", "\"ok\":false", Some(("catalogue[].ok", Rule::StaysTrue))),
    ("BENCH_analyze", "\"service-fixed\"", "\"truncated\":false", "\"truncated\":true", Some(("model_checking[].truncated", Rule::IsFalse))),
    ("BENCH_analyze", "\"service-fixed\"", "\"passed\":true", "\"passed\":false", Some(("model_checking[].passed", Rule::Unchanged))),
    ("BENCH_analyze", "\"service-fixed\"", "\"states\":3797", "\"states\":3416", Some(("model_checking[].states", FLOOR10))),
];

fn baselines() -> Reports {
    let reports = gate::load_reports(BASELINES);
    assert_eq!(reports.len(), 9, "every committed BENCH_*.json loads");
    reports
}

/// Replaces the first `from` at or after the first `anchor` in `stem`.
fn perturb(reports: &mut Reports, stem: &str, anchor: &str, from: &str, to: &str) {
    let doc = reports.get_mut(stem).unwrap();
    let at = doc.find(anchor).expect("anchor present");
    let i = at + doc[at..].find(from).expect("text present after anchor");
    doc.replace_range(i..i + from.len(), to);
}

/// (stem, path, rule) of every distinct row `cur` trips against `base`.
fn tripped(base: &Reports, cur: &Reports) -> Vec<(&'static str, String, Rule)> {
    let mut rows: Vec<usize> = gate::check(base, cur)
        .unwrap()
        .iter()
        .map(|r| r.row)
        .collect();
    rows.dedup();
    let row = |i: usize| (TABLE[i].stem, TABLE[i].path_label(), TABLE[i].rule.unwrap());
    rows.into_iter().map(row).collect()
}

#[test]
fn every_committed_baseline_passes_against_itself() {
    let base = baselines();
    assert_eq!(gate::check(&base, &base), Ok(vec![]));
}

#[test]
fn table_reproduces_the_41_scalar_and_11_per_entry_gates() {
    let (mut scalar, mut per_entry) = (0, 0);
    for row in TABLE {
        match (row.rule, row.path) {
            (None, _) => {}
            (Some(_), Path::Each(..) | Path::Entries(_)) => per_entry += 1,
            (Some(Rule::Band { .. }), _) => scalar += 2,
            (Some(_), _) => scalar += 1,
        }
    }
    assert_eq!((scalar, per_entry), (41, 11));
    assert_eq!(TABLE.iter().filter(|r| r.trend.is_some()).count(), 34);
}

#[test]
fn each_rule_kind_trips_exactly_its_row() {
    let base = baselines();
    for &(stem, anchor, from, to, want) in CASES {
        let mut cur = base.clone();
        perturb(&mut cur, stem, anchor, from, to);
        let want: Vec<_> = want
            .map(|(p, r)| (stem, p.to_string(), r))
            .into_iter()
            .collect();
        assert_eq!(tripped(&base, &cur), want, "{stem}: {from} -> {to}");
    }
}

#[test]
fn coverage_has_an_absolute_9900_floor() {
    // Baseline 9950: the 1 % floor admits 9850, the absolute floor does not.
    let mut base = baselines();
    let key = "\"coverage_bp_standard\":";
    perturb(&mut base, "BENCH_fault", key, "10000", "9950");
    let mut cur = base.clone();
    perturb(&mut cur, "BENCH_fault", key, "9950", "9899");
    let want = (
        "BENCH_fault",
        "coverage_bp_standard".to_string(),
        Rule::AtLeast(9900),
    );
    assert_eq!(tripped(&base, &cur), vec![want]);
}

#[test]
fn missing_or_malformed_reports_are_errors_not_regressions() {
    let base = baselines();
    let mut cur = base.clone();
    cur.remove("BENCH_crash");
    let err = gate::check(&base, &cur).unwrap_err();
    assert!(err.contains("BENCH_crash.json is missing"), "{err}");
    let mut cur = base.clone();
    perturb(
        &mut cur,
        "BENCH_lint",
        "",
        "\"errors\":0",
        "\"errors\":\"none\"",
    );
    let err = gate::check(&base, &cur).unwrap_err();
    assert!(err.contains("not an unsigned integer"), "{err}");
}

#[test]
fn schema_check_accepts_every_committed_baseline() {
    for (stem, doc) in &baselines() {
        assert_eq!(gate::check_schema(stem, doc), Ok(()), "{stem}");
    }
}

#[test]
fn schema_check_names_a_missing_gated_key() {
    let mut reports = baselines();
    perturb(&mut reports, "BENCH_chaos", "", "\"mismatches\":0,", "");
    let err = gate::check_schema("BENCH_chaos", &reports["BENCH_chaos"]).unwrap_err();
    assert!(
        err.contains("BENCH_chaos mismatches: missing \"mismatches\""),
        "{err}"
    );
    // A trend-only path is checked too: the cluster's typed losses.
    perturb(
        &mut reports,
        "BENCH_cluster",
        "",
        "\"lost_streams\"",
        "\"lost\"",
    );
    let err = gate::check_schema("BENCH_cluster", &reports["BENCH_cluster"]).unwrap_err();
    assert!(err.contains("lost_streams"), "{err}");
    // Every report carries its own verdict as a boolean.
    perturb(
        &mut reports,
        "BENCH_scope",
        "",
        "\"passed\":true",
        "\"passed\":1",
    );
    let err = gate::check_schema("BENCH_scope", &reports["BENCH_scope"]).unwrap_err();
    assert!(err.contains("BENCH_scope: no boolean \"passed\""), "{err}");
}

#[test]
fn report_binary_exits_2_on_a_bad_argument() {
    for args in [&["--out", "BENCH_fault.json"][..], &["--seed", "x"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn trend_directions_agree_with_rules() {
    for row in TABLE {
        let (Some(rule), Some(t)) = (row.rule, row.trend) else {
            continue;
        };
        let want = match rule {
            Rule::Floor { .. } | Rule::AtLeast(_) | Rule::Present => Direction::Higher,
            Rule::Ceiling { .. } | Rule::Zero => Direction::Lower,
            Rule::Band { .. } => Direction::Neutral,
            Rule::StaysTrue | Rule::IsFalse | Rule::Unchanged => {
                panic!("{}: boolean rows carry no trend", t.slug)
            }
        };
        assert_eq!(t.dir, want, "{} ({rule:?})", t.slug);
    }
}

#[test]
fn renamed_slug_never_shows_the_old_values() {
    let history = std::fs::read_to_string(format!("{BASELINES}/trend.jsonl")).unwrap();
    let table = gate::history_table(&history).unwrap();
    let row = table
        .lines()
        .find(|l| l.contains("storm queue p99"))
        .unwrap();
    assert!(!row.contains("5339"), "{row}");
    let (line, n) = gate::trend_line("t", &baselines());
    assert_eq!(n, 34);
    assert!(line.contains("\"obs_queue_depth_p99\":44") && !line.contains("obs_queue_p99"));
}

#[test]
fn binary_exits_0_clean_1_on_regression_2_on_missing_report() {
    let dir = std::env::temp_dir().join(format!("gate-exit-{}", std::process::id()));
    let run = |reports: &Reports| {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for (stem, doc) in reports {
            std::fs::write(dir.join(format!("{stem}.json")), doc).unwrap();
        }
        let mut gate = Command::new(env!("CARGO_BIN_EXE_gate"));
        gate.args(["--baseline-dir", BASELINES, "--current-dir"])
            .arg(&dir);
        gate.output().unwrap().status.code()
    };
    let mut reports = baselines();
    assert_eq!(run(&reports), Some(0));
    perturb(
        &mut reports,
        "BENCH_lint",
        "",
        "\"errors\":0",
        "\"errors\":1",
    );
    assert_eq!(run(&reports), Some(1));
    reports.remove("BENCH_storm");
    assert_eq!(run(&reports), Some(2));
    std::fs::remove_dir_all(&dir).unwrap();
}
