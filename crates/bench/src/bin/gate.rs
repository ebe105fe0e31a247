//! Regression gate and cross-PR trend table over the `BENCH_*.json`
//! reports, driven by the declarative table in `bench::gate`.
//!
//! With no mode flag, enforces every gated row of the table on the
//! reports in `--current-dir` (default `.`) against the committed ones
//! in `--baseline-dir` (default `baselines`), then prints the trend
//! table: baseline vs current per metric, with signed deltas and a
//! trailing `!` on a directed metric that moved the wrong way. Exits 1
//! on any regression and 2 when a report is missing or malformed.
//!
//! `--append LABEL` instead snapshots the current metrics as one flat
//! JSON line appended to `<baseline-dir>/trend.jsonl`; `--history`
//! prints the cross-PR table from that file (the most recent six
//! snapshots). Neither gates.
//!
//! Usage: `gate [--baseline-dir DIR] [--current-dir DIR] [--append LABEL | --history]`

use bench::gate;

fn fail(code: i32, msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(code);
}

fn main() {
    let mut baseline_dir = String::from("baselines");
    let mut current_dir = String::from(".");
    let mut append_label: Option<String> = None;
    let mut history = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(2, &format!("{flag} expects a value")))
        };
        match a.as_str() {
            "--baseline-dir" => baseline_dir = val("--baseline-dir"),
            "--current-dir" => current_dir = val("--current-dir"),
            "--append" => append_label = Some(val("--append")),
            "--history" => history = true,
            other => fail(
                2,
                &format!(
                    "unknown argument {other:?}; usage: gate [--baseline-dir DIR] \
                     [--current-dir DIR] [--append LABEL | --history]"
                ),
            ),
        }
    }

    let trend_path = format!("{baseline_dir}/trend.jsonl");
    if history {
        let body = std::fs::read_to_string(&trend_path).unwrap_or_default();
        match gate::history_table(&body) {
            Some(table) => print!("{table}"),
            None => {
                println!("no history at {trend_path} yet (run with --append LABEL to start one)");
            }
        }
        return;
    }

    let current = gate::load_reports(&current_dir);
    if let Some(label) = append_label {
        if label.is_empty() || label.contains(['"', '\\']) || label.len() > 64 {
            fail(
                2,
                "--append label must be 1..=64 chars without quotes or backslashes",
            );
        }
        let (line, captured) = gate::trend_line(&label, &current);
        let prior = std::fs::read_to_string(&trend_path).unwrap_or_default();
        if let Err(e) = std::fs::write(&trend_path, prior + &line) {
            fail(1, &format!("cannot append to {trend_path}: {e}"));
        }
        println!("gate: appended {captured} metric(s) as \"{label}\" -> {trend_path}");
        return;
    }

    let baseline = gate::load_reports(&baseline_dir);
    let regressions =
        gate::check(&baseline, &current).unwrap_or_else(|e| fail(2, &format!("gate: {e}")));
    let gated = gate::TABLE.iter().filter(|r| r.rule.is_some()).count();
    println!("gate: {gated} row(s) of {current_dir} checked against {baseline_dir}");
    print!("{}", gate::trend_table(&baseline, &current));
    if regressions.is_empty() {
        println!("no regressions");
    } else {
        eprintln!("{} regression(s):", regressions.len());
        for r in &regressions {
            eprintln!("  {}", r.message);
        }
        std::process::exit(1);
    }
}
