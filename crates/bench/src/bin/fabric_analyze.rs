//! Whole-configuration static analysis report over the personality
//! catalogue plus the bounded model-checking regression suite.
//!
//! Four passes, all deterministic:
//!
//! 1. **Catalogue sweep** — every CRC standard in the catalogue (plus
//!    the 802.11 scrambler) at M ∈ {8, 32, 128} (full mode adds 16 and
//!    64), each mapped operation lowered to the analysis IR and run
//!    through [`analyze::check_config`]: linearity/affineness
//!    certificate, static timing, and the `AZ` fabric bounds. Every
//!    catalogue personality must come back affine and clean.
//! 2. **Nonlinear rejection demo** — a deliberately nonlinear LUT
//!    configuration must be *rejected* with `AZ001` + `AZ002`; the
//!    analyzer saying yes to everything would be vacuous.
//! 3. **Timing cross-check** — the static timing model's per-row busy
//!    and fill/drain predictions are compared against the `obs` fabric
//!    profiler's measurements of a live scrambler run.
//! 4. **Model checking** — exhaustive small-scope exploration of the
//!    serving and recovery state machines. The fixed service model and
//!    both recovery policies must pass; the pre-fix `transact()` model
//!    must rediscover the PR 5 double-park bug with a counterexample
//!    trace.
//!
//! The output `BENCH_analyze.json` is one JSON document with sorted
//! sections and integer/boolean values only — two runs with the same
//! seed are byte-identical (CI compares them with `cmp`). Before
//! writing, the binary schema-checks itself: every `AZ` code and every
//! required section must appear in the document, else it exits 1. Any
//! gate failure (unclean personality, missed rejection, timing
//! mismatch, model-checking surprise) also exits 1.
//!
//! Usage: `fabric_analyze [--smoke] [--seed N] [--out PATH]`

use analyze::{
    analyze_timing, check_config, explore, AnalysisParams, AnalyzeCode, BreakerModel, ClusterModel,
    Exploration, ExploreLimits, FabricConfig, JournalModel, Model, RecoveryModel, ServiceModel,
    Severity,
};
use dream_lfsr::{build_crc_app, build_scrambler_app, FlowOptions};
use gf2::BitVec;
use lfsr::scramble::ScramblerSpec;
use picoga::{PgaOperation, PicogaParams};
use std::fmt::Write as _;

/// One analysed mapping point, rendered to a JSON object string.
fn analyse_op(
    spec: &str,
    m: usize,
    op_name: &str,
    method: &str,
    op: &PgaOperation,
) -> (String, bool) {
    let cfg = FabricConfig::from_op(op);
    let params = AnalysisParams::for_fabric(&PicogaParams::dream());
    let timing = analyze_timing(&cfg);
    let (ok, affine, linear, n_nonlinear, warnings, errors) = match check_config(&cfg, &params) {
        Ok(a) => (
            true,
            a.cert.affine,
            a.cert.linear,
            a.cert.n_nonlinear,
            a.report.warnings(),
            0,
        ),
        Err(e) => {
            let cert_affine = e
                .report
                .findings
                .iter()
                .all(|f| f.code != AnalyzeCode::NonAffineOutput);
            (
                false,
                cert_affine,
                false,
                e.report
                    .findings
                    .iter()
                    .filter(|f| f.code == AnalyzeCode::NonlinearCell)
                    .count(),
                e.report.warnings(),
                e.report.errors(),
            )
        }
    };
    let entry = format!(
        "{{\"spec\":\"{}\",\"m\":{m},\"op\":\"{}\",\"method\":\"{method}\",\
         \"cells\":{},\"rows\":{},\"critical_path\":{},\"row_pressure\":{},\
         \"max_fanout\":{},\"dead_cells\":{},\"latency\":{},\"ii\":{},\
         \"stalls_per_issue\":{},\"affine\":{affine},\"linear\":{linear},\
         \"nonlinear_cells\":{n_nonlinear},\"warnings\":{warnings},\
         \"errors\":{errors},\"ok\":{ok}}}",
        obs::json_escape(spec),
        obs::json_escape(op_name),
        cfg.cells().len(),
        timing.rows_used,
        timing.critical_path,
        timing.max_row_pressure,
        timing.max_fanout,
        timing.dead_cells.len(),
        timing.latency,
        timing.initiation_interval,
        timing.fill_drain_stalls_per_issue,
    );
    (entry, ok)
}

/// Catalogue sweep: CRC standards + the 802.11 scrambler. Returns
/// (mapped, unmappable, unclean).
fn catalogue_section(out: &mut String, ms: &[usize]) -> (usize, usize, usize) {
    let mut entries: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    let mut unclean = 0usize;
    for spec in lfsr::crc::CATALOG {
        for &m in ms {
            // The sweep *is* the analysis; build without the strict
            // gates so rejections are reported here, not thrown there.
            let opts = FlowOptions {
                verify: None,
                analyze: false,
                ..FlowOptions::dream_with_m(m)
            };
            let Ok((app, _)) = build_crc_app(spec, &opts) else {
                skipped.push(format!(
                    "{{\"spec\":\"{}\",\"m\":{m}}}",
                    obs::json_escape(spec.name)
                ));
                continue;
            };
            let (method, ops): (&str, Vec<(&str, &PgaOperation)>) = if app.transform().is_some() {
                let mut v = vec![("crc-update", app.update_op())];
                if let Some(fin) = app.finalize_op() {
                    v.push(("crc-finalize", fin));
                }
                ("derby", v)
            } else {
                ("dense", vec![("crc-update-dense", app.update_op())])
            };
            for (op_name, op) in ops {
                let (entry, ok) = analyse_op(spec.name, m, op_name, method, op);
                unclean += usize::from(!ok);
                entries.push(entry);
            }
        }
    }
    for &m in ms {
        let opts = FlowOptions {
            verify: None,
            analyze: false,
            ..FlowOptions::dream_with_m(m)
        };
        match build_scrambler_app(ScramblerSpec::ieee80211(), &opts) {
            Ok((app, _)) => {
                let (entry, ok) = analyse_op("802.11-scrambler", m, "scrambler", "derby", app.op());
                unclean += usize::from(!ok);
                entries.push(entry);
            }
            Err(_) => skipped.push(format!("{{\"spec\":\"802.11-scrambler\",\"m\":{m}}}")),
        }
    }
    let _ = write!(out, "\"catalogue\":[{}]", entries.join(","));
    let _ = write!(out, ",\"unmappable\":[{}]", skipped.join(","));
    (entries.len(), skipped.len(), unclean)
}

/// The analyzer must reject a deliberately nonlinear configuration.
fn nonlinear_demo(out: &mut String) -> bool {
    use analyze::{CellFunc, LutTable};
    let mut cfg = FabricConfig::new("nonlinear-demo", 2);
    // An AND gate: minterm x0&x1 only — degree 2, not affine.
    let s = cfg.add_cell(0, vec![0, 1], CellFunc::Lut(LutTable::new(2, 0b1000)));
    cfg.add_output(Some(s));
    let (rejected, codes) = match check_config(&cfg, &AnalysisParams::dream()) {
        Ok(_) => (false, Vec::new()),
        Err(e) => {
            let mut codes: Vec<&str> = e.report.findings.iter().map(|f| f.code.as_str()).collect();
            codes.sort_unstable();
            codes.dedup();
            (true, codes)
        }
    };
    let listed: Vec<String> = codes.iter().map(|c| format!("\"{c}\"")).collect();
    let _ = write!(
        out,
        ",\"nonlinear_demo\":{{\"rejected\":{rejected},\"codes\":[{}]}}",
        listed.join(",")
    );
    rejected && codes.contains(&"AZ001") && codes.contains(&"AZ002")
}

/// Static timing vs the live fabric profiler, one scrambler run per M.
fn cross_check_section(out: &mut String, ms: &[usize]) -> bool {
    let mut entries: Vec<String> = Vec::new();
    let mut all_ok = true;
    for &m in ms {
        let opts = FlowOptions {
            verify: None,
            analyze: false,
            ..FlowOptions::dream_with_m(m)
        };
        let Ok((mut app, _)) = build_scrambler_app(ScramblerSpec::ieee80211(), &opts) else {
            continue;
        };
        let timing = analyze_timing(&FabricConfig::from_op(app.op()));
        let hub = app.fabric().obs();
        let busy0 = hub.profiler.row_busy().to_vec();
        let stalls0 = hub.profiler.fill_drain_stalls();
        let (issues0, blocks0) = lane_totals(&hub.profiler);

        let data = BitVec::ones(8 * m); // 8 blocks per issue
        let _ = app.scramble(0x7F, &data);

        let hub = app.fabric().obs();
        let busy: Vec<u64> = hub
            .profiler
            .row_busy()
            .iter()
            .zip(busy0.iter().chain(std::iter::repeat(&0)))
            .map(|(a, b)| a - b)
            .collect();
        let stalls = hub.profiler.fill_drain_stalls() - stalls0;
        let (issues1, blocks1) = lane_totals(&hub.profiler);
        let (issues, blocks) = (issues1 - issues0, blocks1 - blocks0);

        let ok = analyze::cross_check(&timing, issues, blocks, &busy, stalls).is_ok();
        all_ok &= ok;
        entries.push(format!(
            "{{\"m\":{m},\"rows\":{},\"latency\":{},\"issues\":{issues},\
             \"blocks\":{blocks},\"stalls\":{stalls},\"ok\":{ok}}}",
            timing.rows_used, timing.latency,
        ));
    }
    let ok = all_ok && !entries.is_empty();
    let _ = write!(out, ",\"cross_check\":[{}]", entries.join(","));
    ok
}

fn lane_totals(p: &obs::FabricProfiler) -> (u64, u64) {
    p.lanes()
        .values()
        .fold((0, 0), |(i, b), u| (i + u.issues, b + u.blocks))
}

/// Renders one exploration; returns whether it matched expectations.
fn mc_entry<M: Model>(
    name: &str,
    x: &Exploration<M::Event>,
    expect_violation: Option<&str>,
) -> (String, bool) {
    let violations: Vec<String> = x
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"invariant\":\"{}\",\"trace_len\":{},\"trace\":\"{}\"}}",
                obs::json_escape(&v.invariant),
                v.trace.len(),
                obs::json_escape(&format!("{:?}", v.trace)),
            )
        })
        .collect();
    let entry = format!(
        "{{\"model\":\"{name}\",\"states\":{},\"transitions\":{},\"depth\":{},\
         \"truncated\":{},\"passed\":{},\"violations\":[{}]}}",
        x.states,
        x.transitions,
        x.depth_reached,
        x.truncated,
        x.passed(),
        violations.join(","),
    );
    let ok = !x.truncated
        && match expect_violation {
            None => x.passed(),
            Some(inv) => x.violations.iter().any(|v| v.invariant == inv),
        };
    (entry, ok)
}

fn mc_section(out: &mut String) -> bool {
    let limits = ExploreLimits::default();
    let mut entries = Vec::new();
    let mut all_ok = true;

    let fixed = ServiceModel::small();
    let (e, ok) = mc_entry::<ServiceModel>("service-fixed", &explore(&fixed, &limits), None);
    entries.push(e);
    all_ok &= ok;

    let buggy = ServiceModel::small_prefix_bug();
    let (e, ok) = mc_entry::<ServiceModel>(
        "service-prefix-transact-bug",
        &explore(&buggy, &limits),
        Some("no-double-park"),
    );
    entries.push(e);
    all_ok &= ok;

    for (name, model) in [
        ("recovery-standard", RecoveryModel::standard()),
        ("recovery-stream-serving", RecoveryModel::stream_serving()),
    ] {
        let (e, ok) = mc_entry::<RecoveryModel>(name, &explore(&model, &limits), None);
        entries.push(e);
        all_ok &= ok;
    }

    // The cluster control plane: the fixed model must pass; each seeded
    // bug must be rediscovered with its counterexample trace.
    for (name, model, expect) in [
        ("cluster-fixed", ClusterModel::small(), None),
        (
            "cluster-fence-bug",
            ClusterModel::fence_bug(),
            Some("placement-fence"),
        ),
        (
            "cluster-lost-detach-bug",
            ClusterModel::lost_detach_bug(),
            Some("stream-conservation"),
        ),
        (
            "cluster-stale-resume-bug",
            ClusterModel::stale_resume_bug(),
            Some("failover-replays-from-checkpoint"),
        ),
    ] {
        let (e, ok) = mc_entry::<ClusterModel>(name, &explore(&model, &limits), expect);
        entries.push(e);
        all_ok &= ok;
    }

    // The per-shard circuit breaker: the fixed model must pass; each
    // seeded bug must be rediscovered with its counterexample trace.
    for (name, model, expect) in [
        ("breaker-fixed", BreakerModel::small(), None),
        (
            "breaker-probe-flood-bug",
            BreakerModel::probe_flood_bug(),
            Some("half-open-single-probe"),
        ),
        (
            "breaker-early-close-bug",
            BreakerModel::early_close_bug(),
            Some("half-open-early-close"),
        ),
        (
            "breaker-sticky-open-bug",
            BreakerModel::sticky_open_bug(),
            Some("open-dwell-bound"),
        ),
    ] {
        let (e, ok) = mc_entry::<BreakerModel>(name, &explore(&model, &limits), expect);
        entries.push(e);
        all_ok &= ok;
    }

    // The write-ahead log's recovery contract: the fixed model must
    // pass; each seeded bug must be rediscovered with its
    // counterexample trace.
    for (name, model, expect) in [
        ("journal-fixed", JournalModel::small(), None),
        (
            "journal-torn-replay-bug",
            JournalModel::torn_bug(),
            Some("replay-stops-at-torn-tail"),
        ),
        (
            "journal-tokenless-replay-bug",
            JournalModel::tokenless_bug(),
            Some("no-double-apply-across-recovery"),
        ),
    ] {
        let (e, ok) = mc_entry::<JournalModel>(name, &explore(&model, &limits), expect);
        entries.push(e);
        all_ok &= ok;
    }

    let _ = write!(out, ",\"model_checking\":[{}]", entries.join(","));
    all_ok
}

fn main() {
    let (smoke, seed, out_path) = bench::report_args("fabric_analyze", "BENCH_analyze.json");
    // The paper's M trio in smoke mode; full mode adds the intermediate
    // look-ahead factors.
    let ms: &[usize] = if smoke {
        &[8, 32, 128]
    } else {
        &[8, 16, 32, 64, 128]
    };

    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\"bench\":\"fabric_analyze\",\"seed\":{seed},\"mode\":\"{}\",",
        if smoke { "smoke" } else { "full" },
    );
    let codes: Vec<String> = AnalyzeCode::ALL
        .iter()
        .map(|c| {
            format!(
                "{{\"code\":\"{c}\",\"severity\":\"{}\",\"summary\":\"{}\"}}",
                match c.severity() {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                },
                obs::json_escape(c.summary()),
            )
        })
        .collect();
    let _ = write!(doc, "\"codes\":[{}],", codes.join(","));

    let (mapped, unmappable, unclean) = catalogue_section(&mut doc, ms);
    let demo_ok = nonlinear_demo(&mut doc);
    let cross_ok = cross_check_section(&mut doc, &[8, 32, 128]);
    let mc_ok = mc_section(&mut doc);
    doc.push('}');
    doc.push('\n');

    // Schema self-check: every stable AZ code and every section must
    // appear in the document — a partial export fails loudly.
    let mut missing: Vec<String> = AnalyzeCode::ALL
        .iter()
        .filter(|c| !doc.contains(&format!("\"{c}\"")))
        .map(|c| c.as_str().to_string())
        .collect();
    for section in [
        "\"codes\":",
        "\"catalogue\":",
        "\"unmappable\":",
        "\"nonlinear_demo\":",
        "\"cross_check\":",
        "\"model_checking\":",
    ] {
        if !doc.contains(section) {
            missing.push(section.to_string());
        }
    }
    if !missing.is_empty() {
        eprintln!("schema check failed: missing from the report: {missing:?}");
        std::process::exit(1);
    }

    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }

    println!(
        "fabric_analyze: {mapped} analysed point(s) ({unmappable} unmappable, \
         {unclean} unclean) -> {out_path}"
    );
    println!(
        "gates: nonlinear-rejection={} timing-cross-check={} model-checking={}",
        if demo_ok { "pass" } else { "FAIL" },
        if cross_ok { "pass" } else { "FAIL" },
        if mc_ok { "pass" } else { "FAIL" },
    );
    if unclean > 0 || !demo_ok || !cross_ok || !mc_ok {
        eprintln!("fabric_analyze FAILED one or more acceptance gates");
        std::process::exit(1);
    }
}
