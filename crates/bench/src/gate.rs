//! One declarative table of regression gates and trend metrics over
//! the `BENCH_*.json` reports.
//!
//! Each [`Row`] names a report stem, a [`Path`] into that report, an
//! optional gate [`Rule`] enforced against the committed baseline, and
//! an optional [`Trend`] (label, history slug, better direction) shown
//! in the cross-PR table. The `gate` binary is a thin driver over
//! [`check`], [`trend_table`], [`trend_line`] and [`history_table`];
//! the `report` binary runs [`check_schema`] on each report before it
//! writes it.
//!
//! Tolerances are integer percentages of the baseline, applied with
//! integer arithmetic; every tolerance is a constant of its row.

use crate::json::{json_objects, json_section, json_str, json_u64, Obj};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use Direction::{Higher, Lower, Neutral};
use Path::{At, Each, Entries, Max, Sum};
use Rule::{AtLeast, Band, Ceiling, Floor, IsFalse, Present, StaysTrue, Unchanged, Zero};

/// Which way a metric should move across PRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better: throughput, coverage, survivors.
    Higher,
    /// Smaller is better: latency tails, losses, warnings.
    Lower,
    /// An exercise counter — it measures how much adversity a harness
    /// applied, not how well the system did; no direction is "better".
    Neutral,
}

impl Direction {
    /// Column cell for the trend table.
    fn label(self) -> &'static str {
        match self {
            Higher => "higher",
            Lower => "lower",
            Neutral => "-",
        }
    }

    /// `" !"` when a directed metric moved the wrong way, else `""`.
    fn flag(self, base: u64, cur: u64) -> &'static str {
        let worse = match self {
            Higher => cur < base,
            Lower => cur > base,
            Neutral => false,
        };
        if worse {
            " !"
        } else {
            ""
        }
    }
}

/// A top-level array of objects, each identified by its `key` fields.
#[derive(Debug)]
pub struct Array {
    /// Top-level member holding the array.
    pub name: &'static str,
    /// Fields whose values together identify one entry.
    pub key: &'static [&'static str],
}

/// Where a row's value lives in its report.
#[derive(Debug, Clone, Copy)]
pub enum Path {
    /// A scalar reached by walking member keys from the document root.
    At(&'static [&'static str]),
    /// The entries of an array: gated as "none missing", trended as a count.
    Entries(&'static Array),
    /// One field of every entry, gated entry by entry against the baseline.
    Each(&'static Array, &'static str),
    /// The largest value of a field over all entries.
    Max(&'static Array, &'static str),
    /// The sum of a field over all entries.
    Sum(&'static Array, &'static str),
}

/// What a gated value must satisfy. Rules that compare against the
/// baseline read it; the others read the current report only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Must be exactly 0.
    Zero,
    /// Must be at least `baseline·(100−tol_pct)/100`.
    Floor {
        /// Allowed drop, percent of the baseline.
        tol_pct: u64,
    },
    /// Must be at most `baseline·(100+tol_pct)/100 + slack`.
    Ceiling {
        /// Allowed rise, percent of the baseline.
        tol_pct: u64,
        /// Absolute allowance on top, for near-zero baselines.
        slack: u64,
    },
    /// Floor and ceiling at once: an exercise counter that may neither
    /// collapse nor explode.
    Band {
        /// Allowed move either way, percent of the baseline.
        tol_pct: u64,
        /// Absolute allowance on the ceiling side.
        slack: u64,
    },
    /// Must be at least this absolute value.
    AtLeast(u64),
    /// A boolean that was `true` in the baseline must stay `true`.
    StaysTrue,
    /// A boolean that must be `false`.
    IsFalse,
    /// A boolean verdict that must equal the baseline's.
    Unchanged,
    /// Every baseline entry must still exist (on [`Path::Entries`]).
    Present,
}

/// A metric's line in the trend table and its key in `trend.jsonl`.
#[derive(Debug, Clone, Copy)]
pub struct Trend {
    /// Human label.
    pub label: &'static str,
    /// History key; a new meaning always gets a new slug.
    pub slug: &'static str,
    /// Which way is an improvement.
    pub dir: Direction,
}

/// One line of the table.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Report file stem, e.g. `BENCH_storm`.
    pub stem: &'static str,
    /// Where the value lives.
    pub path: Path,
    /// Gate enforced against the baseline, if any.
    pub rule: Option<Rule>,
    /// Trend-table entry, if any.
    pub trend: Option<Trend>,
}

const fn gate(stem: &'static str, path: Path, rule: Rule) -> Row {
    Row {
        stem,
        path,
        rule: Some(rule),
        trend: None,
    }
}

const fn metric(
    stem: &'static str,
    path: Path,
    label: &'static str,
    slug: &'static str,
    dir: Direction,
) -> Row {
    Row {
        stem,
        path,
        rule: None,
        trend: Some(Trend { label, slug, dir }),
    }
}

impl Row {
    const fn trend(mut self, label: &'static str, slug: &'static str, dir: Direction) -> Row {
        self.trend = Some(Trend { label, slug, dir });
        self
    }

    /// The path as text, e.g. `storm.queue_depth.p99` or `catalogue[].cells`.
    #[must_use]
    pub fn path_label(&self) -> String {
        match self.path {
            At(keys) => keys.join("."),
            Entries(a) => format!("{}[]", a.name),
            Each(a, f) => format!("{}[].{f}", a.name),
            Max(a, f) => format!("max {}[].{f}", a.name),
            Sum(a, f) => format!("sum {}[].{f}", a.name),
        }
    }
}

const OBS: &str = "BENCH_obs";
const ANALYZE: &str = "BENCH_analyze";
const STORM: &str = "BENCH_storm";
const CLUSTER: &str = "BENCH_cluster";
const CHAOS: &str = "BENCH_chaos";
const CRASH: &str = "BENCH_crash";
const SCOPE: &str = "BENCH_scope";
const LINT: &str = "BENCH_lint";
const FAULT: &str = "BENCH_fault";

const OBS_POINTS: Array = Array {
    name: "catalogue",
    key: &["spec", "m"],
};
const ANALYZE_POINTS: Array = Array {
    name: "catalogue",
    key: &["spec", "m", "op"],
};
const MODELS: Array = Array {
    name: "model_checking",
    key: &["model"],
};

const GENERAL: u64 = 10;
const EXERCISE: u64 = 25;

/// Every gate and every trend metric, grouped by report in trend order.
#[rustfmt::skip]
pub const TABLE: &[Row] = &[
    // Per-point throughput and stalls of the paper's catalogue.
    metric(OBS, Max(&OBS_POINTS, "throughput_bps"), "peak throughput (b/s)", "obs_peak_bps", Higher),
    gate(OBS, At(&["storm", "queue_depth", "p99"]), Ceiling { tol_pct: GENERAL, slack: 1 })
        .trend("storm queue p99 (chunks)", "obs_queue_depth_p99", Lower),
    gate(OBS, Entries(&OBS_POINTS), Present),
    gate(OBS, Each(&OBS_POINTS, "throughput_bps"), Floor { tol_pct: GENERAL }),
    gate(OBS, Each(&OBS_POINTS, "fill_drain_stalls"), Ceiling { tol_pct: GENERAL, slack: 2 }),
    // Static analysis of every mapping, and the model checker.
    gate(ANALYZE, Entries(&ANALYZE_POINTS), Present)
        .trend("catalogue points analysed", "analyze_points", Higher),
    metric(ANALYZE, Max(&ANALYZE_POINTS, "critical_path"), "max critical path (levels)", "analyze_crit_path", Lower),
    gate(ANALYZE, Each(&ANALYZE_POINTS, "ok"), StaysTrue),
    gate(ANALYZE, Each(&ANALYZE_POINTS, "critical_path"), Ceiling { tol_pct: GENERAL, slack: 1 }),
    gate(ANALYZE, Each(&ANALYZE_POINTS, "cells"), Ceiling { tol_pct: GENERAL, slack: 2 }),
    gate(ANALYZE, Entries(&MODELS), Present).trend("models checked", "mc_models", Higher),
    metric(ANALYZE, Sum(&MODELS, "states"), "model states explored", "mc_states", Higher),
    gate(ANALYZE, Each(&MODELS, "truncated"), IsFalse),
    gate(ANALYZE, Each(&MODELS, "passed"), Unchanged),
    gate(ANALYZE, Each(&MODELS, "states"), Floor { tol_pct: GENERAL }),
    // Stream storm.
    gate(STORM, At(&["completed"]), Floor { tol_pct: GENERAL })
        .trend("streams completed", "storm_completed", Higher),
    gate(STORM, At(&["mismatches"]), Zero),
    gate(STORM, At(&["unfinished"]), Zero),
    gate(STORM, At(&["faults_injected"]), Band { tol_pct: 50, slack: 2 })
        .trend("faults injected", "storm_faults", Neutral),
    gate(STORM, At(&["p99_queue_depth"]), Ceiling { tol_pct: GENERAL, slack: 1 })
        .trend("queue p99 (chunks)", "storm_queue_p99", Lower),
    // Cluster storm.
    gate(CLUSTER, At(&["completed"]), Floor { tol_pct: GENERAL })
        .trend("streams completed", "cluster_completed", Higher),
    gate(CLUSTER, At(&["mismatches"]), Zero),
    gate(CLUSTER, At(&["losses_unaccounted"]), Zero),
    gate(CLUSTER, At(&["unfinished"]), Zero),
    gate(CLUSTER, At(&["migrations"]), Floor { tol_pct: EXERCISE })
        .trend("live migrations", "cluster_migrations", Higher),
    gate(CLUSTER, At(&["failovers"]), Floor { tol_pct: EXERCISE })
        .trend("failover replays", "cluster_failovers", Higher),
    metric(CLUSTER, At(&["lost_streams"]), "typed losses", "cluster_losses", Lower),
    metric(CLUSTER, At(&["checkpoints_stored"]), "checkpoints swept", "cluster_checkpoints", Neutral),
    // Chaos storm.
    gate(CHAOS, At(&["completed"]), Floor { tol_pct: GENERAL })
        .trend("streams completed", "chaos_completed", Higher),
    gate(CHAOS, At(&["mismatches"]), Zero),
    gate(CHAOS, At(&["losses_unaccounted"]), Zero),
    gate(CHAOS, At(&["unfinished"]), Zero),
    gate(CHAOS, At(&["dup_violations"]), Zero),
    gate(CHAOS, At(&["migrations"]), Floor { tol_pct: EXERCISE }),
    gate(CHAOS, At(&["breaker_trips"]), Floor { tol_pct: EXERCISE })
        .trend("breaker trips", "chaos_breaker_trips", Higher),
    metric(CHAOS, At(&["probe_migrations"]), "healing probe migrations", "chaos_probes", Neutral),
    gate(CHAOS, At(&["upgraded"]), Floor { tol_pct: EXERCISE })
        .trend("shards upgraded", "chaos_upgraded", Higher),
    metric(CHAOS, At(&["dups_suppressed"]), "duplicates suppressed", "chaos_dups_suppressed", Neutral),
    gate(CHAOS, At(&["faults_injected"]), Floor { tol_pct: EXERCISE }),
    // Crash storm: zeros, and pure ratchets on the crash exercise.
    metric(CRASH, At(&["completed"]), "streams completed", "crash_completed", Higher),
    gate(CRASH, At(&["recoveries"]), Floor { tol_pct: 0 })
        .trend("crash recoveries", "crash_recoveries", Higher),
    metric(CRASH, At(&["frames_replayed"]), "journal frames replayed", "crash_frames", Neutral),
    metric(CRASH, At(&["streams_restored"]), "streams restored", "crash_restored", Higher),
    gate(CRASH, At(&["mismatches"]), Zero).trend("digest mismatches", "crash_mismatches", Lower),
    metric(CRASH, At(&["dups_suppressed"]), "duplicates suppressed", "crash_dups_suppressed", Neutral),
    gate(CRASH, At(&["losses_unaccounted"]), Zero),
    gate(CRASH, At(&["dup_violations"]), Zero),
    gate(CRASH, At(&["crashes"]), Floor { tol_pct: 0 }),
    gate(CRASH, At(&["hasher_ladder_runs"]), Floor { tol_pct: 0 }),
    // Cluster observability report.
    gate(SCOPE, At(&["spans_total"]), Floor { tol_pct: 0 })
        .trend("causal spans recorded", "scope_spans", Higher),
    gate(SCOPE, At(&["open_spans"]), Zero).trend("open-span leaks", "scope_open_spans", Lower),
    metric(SCOPE, At(&["chaos_migrate_p99"]), "migration p99 (ticks)", "scope_migrate_p99", Lower),
    metric(SCOPE, At(&["chaos_failover_p99"]), "failover p99 (ticks)", "scope_failover_p99", Lower),
    metric(SCOPE, At(&["completed_total"]), "fleet streams completed", "scope_completed", Higher),
    gate(SCOPE, At(&["span_misuse"]), Zero),
    gate(SCOPE, At(&["balance_violations"]), Zero),
    gate(SCOPE, At(&["failovers_unrooted"]), Zero),
    // Fabric lint sweep.
    gate(LINT, At(&["mapped"]), Floor { tol_pct: 0 }).trend("mappings verified", "lint_mapped", Higher),
    gate(LINT, At(&["warnings"]), Ceiling { tol_pct: GENERAL, slack: 2 })
        .trend("lint warnings", "lint_warnings", Lower),
    gate(LINT, At(&["errors"]), Zero),
    // Fault-injection campaign.
    gate(FAULT, At(&["coverage_bp_standard"]), Floor { tol_pct: 1 })
        .trend("coverage (basis points)", "fault_coverage_bp", Higher),
    gate(FAULT, At(&["coverage_bp_standard"]), AtLeast(9900)),
    gate(FAULT, At(&["semantic"]), Floor { tol_pct: EXERCISE })
        .trend("semantic faults", "fault_semantic", Higher),
    gate(FAULT, At(&["faulted"]), Floor { tol_pct: EXERCISE }),
    gate(FAULT, At(&["wrong_answers_dmr"]), Zero),
];

/// `base·(100−tol)/100`: the lowest value a floor admits.
fn floor(base: u64, tol_pct: u64) -> u64 {
    base * (100 - tol_pct.min(100)) / 100
}

/// `base·(100+tol)/100 + slack`: the highest value a ceiling admits.
fn ceiling(base: u64, tol_pct: u64, slack: u64) -> u64 {
    base * (100 + tol_pct) / 100 + slack
}

impl Rule {
    fn reads_baseline(self) -> bool {
        !matches!(self, Zero | AtLeast(_) | IsFalse)
    }

    /// Why `cur` regresses against `base`, or `None` when it passes.
    /// `Err` when a value is not of the rule's type.
    fn judge(self, base: Option<&str>, cur: &str) -> Result<Option<String>, String> {
        let num = |raw: &str| {
            raw.parse::<u64>()
                .map_err(|_| format!("{raw:?} is not an unsigned integer"))
        };
        let flag = |raw: &str| match raw {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(format!("{raw:?} is not a boolean")),
        };
        let base = base.unwrap_or_default();
        let below = |c: u64, b: u64, tol: u64| {
            let f = floor(b, tol);
            (c < f).then(|| format!("{c} below floor {f} (baseline {b}, tolerance {tol}%)"))
        };
        let above = |c: u64, b: u64, tol: u64, slack: u64| {
            let f = ceiling(b, tol, slack);
            (c > f).then(|| {
                format!("{c} above ceiling {f} (baseline {b}, tolerance {tol}%, slack {slack})")
            })
        };
        Ok(match self {
            Zero => {
                let c = num(cur)?;
                (c != 0).then(|| format!("{c}, must be 0"))
            }
            Floor { tol_pct } => below(num(cur)?, num(base)?, tol_pct),
            Ceiling { tol_pct, slack } => above(num(cur)?, num(base)?, tol_pct, slack),
            Band { tol_pct, slack } => {
                let (c, b) = (num(cur)?, num(base)?);
                below(c, b, tol_pct).or_else(|| above(c, b, tol_pct, slack))
            }
            AtLeast(min) => {
                let c = num(cur)?;
                (c < min).then(|| format!("{c} below the absolute {min} floor"))
            }
            StaysTrue => (flag(base)? && !flag(cur)?).then(|| "was true, now false".to_string()),
            IsFalse => flag(cur)?.then(|| "is true, must be false".to_string()),
            Unchanged => {
                let (c, b) = (flag(cur)?, flag(base)?);
                (c != b).then(|| format!("flipped (baseline {b}, current {c})"))
            }
            Present => return Err("Present applies only to an entries path".to_string()),
        })
    }
}

/// Report text by stem.
pub type Reports = BTreeMap<&'static str, String>;

/// Reads `{dir}/{stem}.json` once for every stem in [`TABLE`]; missing
/// files are left out.
#[must_use]
pub fn load_reports(dir: &str) -> Reports {
    let stems: BTreeSet<&'static str> = TABLE.iter().map(|r| r.stem).collect();
    stems
        .into_iter()
        .filter_map(|stem| {
            Some((
                stem,
                std::fs::read_to_string(format!("{dir}/{stem}.json")).ok()?,
            ))
        })
        .collect()
}

fn walk<'a>(doc: &'a str, keys: &[&str]) -> Option<&'a str> {
    keys.iter().try_fold(doc, |d, k| json_section(d, k))
}

/// Entry key (its key fields' values, space-separated) → entry object.
fn entries<'a>(doc: &'a str, array: &Array) -> Result<BTreeMap<String, &'a str>, String> {
    let section = json_section(doc, array.name).ok_or(format!("no \"{}\" array", array.name))?;
    json_objects(section)
        .into_iter()
        .map(|obj| {
            let key: Option<Vec<String>> = array
                .key
                .iter()
                .map(|k| json_str(obj, k).or_else(|| json_section(obj, k).map(str::to_owned)))
                .collect();
            let key = key.ok_or(format!("malformed {} entry: {obj}", array.name))?;
            Ok((key.join(" "), obj))
        })
        .collect()
}

/// The row's trend value in `doc`, or `None` if it is absent.
fn trend_value(row: &Row, doc: &str) -> Option<u64> {
    let fields = |a: &Array, f: &str| -> Option<Vec<u64>> {
        let objs = json_objects(json_section(doc, a.name)?);
        Some(
            objs.iter()
                .filter_map(|o| json_section(o, f)?.parse().ok())
                .collect(),
        )
    };
    match row.path {
        At(keys) => walk(doc, keys)?.parse().ok(),
        Entries(a) => Some(json_objects(json_section(doc, a.name)?).len() as u64),
        Max(a, f) => fields(a, f)?.into_iter().max(),
        Sum(a, f) => Some(fields(a, f)?.into_iter().sum()),
        Each(..) => None,
    }
}

/// One failed gate: the index of its row in [`TABLE`] and what failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Index into [`TABLE`].
    pub row: usize,
    /// Human-readable description.
    pub message: String,
}

fn field<'a>(obj: &'a str, f: &str) -> Result<&'a str, String> {
    json_section(obj, f).ok_or(format!("entry lacks \"{f}\": {obj}"))
}

fn report<'a>(reports: &'a Reports, stem: &str, side: &str) -> Result<&'a str, String> {
    reports
        .get(stem)
        .map(String::as_str)
        .ok_or(format!("{side} {stem}.json is missing"))
}

fn check_row(row: &Row, rule: Rule, base: &str, cur: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    match row.path {
        Entries(a) if rule == Present => {
            let cur = entries(cur, a)?;
            for key in entries(base, a)?.keys() {
                if !cur.contains_key(key) {
                    out.push(format!("[{key}] missing from current report"));
                }
            }
        }
        Each(a, f) => {
            let cur = entries(cur, a)?;
            for (key, b) in entries(base, a)? {
                // A missing entry is the `Present` row's regression.
                let Some(c) = cur.get(&key) else { continue };
                let b = rule.reads_baseline().then(|| field(b, f)).transpose()?;
                if let Some(why) = rule.judge(b, field(c, f)?)? {
                    out.push(format!("[{key}].{f} {why}"));
                }
            }
        }
        At(keys) => {
            let value = |doc| walk(doc, keys).ok_or(format!("missing \"{}\"", keys.join(".")));
            let b = rule.reads_baseline().then(|| value(base)).transpose()?;
            out.extend(rule.judge(b, value(cur)?)?);
        }
        _ => return Err(format!("{rule:?} cannot gate {}", row.path_label())),
    }
    Ok(out)
}

/// Enforces every gated row of [`TABLE`] on `cur` against `base`.
///
/// # Errors
///
/// A missing report or a malformed value (the first one found) — the
/// reports cannot be judged at all.
pub fn check(base: &Reports, cur: &Reports) -> Result<Vec<Regression>, String> {
    let mut out = Vec::new();
    for (i, row) in TABLE.iter().enumerate() {
        let Some(rule) = row.rule else { continue };
        let (b, c) = (
            report(base, row.stem, "baseline")?,
            report(cur, row.stem, "current")?,
        );
        let lines = check_row(row, rule, b, c)
            .map_err(|e| format!("{} {}: {e}", row.stem, row.path_label()))?;
        out.extend(lines.into_iter().map(|l| Regression {
            row: i,
            message: format!("{} {}: {l}", row.stem, row.path_label()),
        }));
    }
    Ok(out)
}

/// Checks that `doc` carries a boolean `passed` verdict (top-level, or
/// per storm section or model) and every value [`TABLE`] reads from
/// report `stem`, each of the type its row needs: the document gated
/// against itself must not error, and every trend value must resolve.
///
/// # Errors
///
/// The first path that is missing or malformed, named as in the gate's
/// messages.
pub fn check_schema(stem: &str, doc: &str) -> Result<(), String> {
    if !doc.contains("\"passed\":true") && !doc.contains("\"passed\":false") {
        return Err(format!("{stem}: no boolean \"passed\""));
    }
    for row in TABLE.iter().filter(|r| r.stem == stem) {
        let label = || format!("{stem} {}", row.path_label());
        if let Some(rule) = row.rule {
            check_row(row, rule, doc, doc).map_err(|e| format!("{}: {e}", label()))?;
        }
        if row.trend.is_some() && trend_value(row, doc).is_none() {
            return Err(format!("{}: no value", label()));
        }
    }
    Ok(())
}

fn trended() -> impl Iterator<Item = (&'static Row, Trend)> {
    TABLE.iter().filter_map(|r| Some((r, r.trend?)))
}

/// Baseline vs current, one line per trend metric, with signed deltas;
/// a directed metric that moved the wrong way is flagged `!`.
#[must_use]
pub fn trend_table(base: &Reports, cur: &Reports) -> String {
    let mut out = format!(
        "| {:<14} | {:<28} | {:>6} | {:>14} | {:>14} | {:>10} |\n|{:-<16}|{:-<30}|{:-<8}|{:-<16}|{:-<16}|{:-<12}|\n",
        "report", "metric", "better", "baseline", "current", "delta", "", "", "", "", "", ""
    );
    for (row, t) in trended() {
        let value = |r: &Reports| r.get(row.stem).and_then(|d| trend_value(row, d));
        let (b, c) = (value(base), value(cur));
        let cell = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let delta = match (b, c) {
            (Some(b), Some(c)) if b > 0 => {
                let pct = (i128::from(c) - i128::from(b)) * 100 / i128::from(b);
                format!("{pct:+}%{}", t.dir.flag(b, c))
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "| {:<14} | {:<28} | {:>6} | {:>14} | {:>14} | {delta:>10} |",
            row.stem,
            t.label,
            t.dir.label(),
            cell(b),
            cell(c),
        );
    }
    out
}

/// One flat `trend.jsonl` line (newline included) snapshotting every
/// trend metric present in `cur`, keys in table order, and how many
/// metrics it holds.
#[must_use]
pub fn trend_line(label: &str, cur: &Reports) -> (String, usize) {
    let mut line = Obj::new().field("label", label);
    let mut captured = 0;
    for (row, t) in trended() {
        if let Some(v) = cur.get(row.stem).and_then(|d| trend_value(row, d)) {
            line = line.field(t.slug, v);
            captured += 1;
        }
    }
    (line.finish(), captured)
}

/// The cross-PR table from `trend.jsonl` text: one row per trend
/// metric, one column per snapshot (the most recent six), `None` when
/// there are no snapshots.
#[must_use]
pub fn history_table(body: &str) -> Option<String> {
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    let shown = lines
        .get(lines.len().saturating_sub(6)..)
        .filter(|s| !s.is_empty())?;
    let mut out = format!("| {:<28} |", "metric");
    for l in shown {
        let label = json_str(l, "label").unwrap_or_else(|| "?".to_string());
        let _ = write!(out, " {label:>12} |");
    }
    let _ = write!(out, "\n|{:-<30}|", "");
    out.push_str(&format!("{:-<14}|", "").repeat(shown.len()));
    out.push('\n');
    for (_, t) in trended() {
        let _ = write!(out, "| {:<28} |", t.label);
        for l in shown {
            let v = json_u64(l, t.slug).map_or_else(|| "-".to_string(), |v| v.to_string());
            let _ = write!(out, " {v:>12} |");
        }
        out.push('\n');
    }
    Some(out)
}
