//! `BENCH_analyze`: whole-configuration static analysis of the
//! personality catalogue plus the bounded model-checking regression
//! suite.
//!
//! Four passes, all deterministic:
//!
//! 1. **Catalogue sweep** — every CRC standard in the catalogue (plus
//!    the 802.11 scrambler) at M ∈ {8, 32, 128} (full mode adds 16 and
//!    64), each mapped operation lowered to the analysis IR and run
//!    through [`analyze::check_config`]: linearity/affineness
//!    certificate, static timing, and the `AZ` fabric bounds. Every
//!    catalogue personality must come back affine and clean.
//! 2. **Rejection demo** — a 25-row XOR chain, one row deeper than the
//!    DREAM fabric, must be *rejected* with exactly `AZ003`; the
//!    analyzer saying yes to everything would be vacuous.
//! 3. **Timing cross-check** — the static timing model's per-row busy
//!    and fill/drain predictions are compared against the `obs` fabric
//!    profiler's measurements of a live scrambler run.
//! 4. **Model checking** — exhaustive small-scope exploration of the
//!    serving, recovery, cluster, breaker and journal state machines.
//!    Each fixed model must pass; each seeded bug (the pre-fix
//!    `transact()` double park among them) must be rediscovered with a
//!    counterexample trace.
//!
//! The document must list every `AZ` code and every section, else it is
//! not written. Any other gate failure (unclean personality, missed
//! rejection, timing mismatch, model-checking surprise) fails the
//! report after it is written.

use super::Report;
use analyze::{
    analyze_timing, check_config, explore, AnalysisParams, AnalyzeCode, BreakerModel, ClusterModel,
    Exploration, ExploreLimits, FabricConfig, JournalModel, Model, RecoveryModel, ServiceModel,
    Severity,
};
use bench::json::{json_objects, json_section, json_str, Arr, Obj};
use dream_lfsr::{build_crc_app, build_scrambler_app, FlowOptions};
use gf2::BitVec;
use lfsr::scramble::ScramblerSpec;
use picoga::{PgaOperation, PicogaParams};

/// The top-level sections every document must carry.
const SECTIONS: [&str; 6] = [
    "codes",
    "catalogue",
    "unmappable",
    "rejection_demo",
    "cross_check",
    "model_checking",
];

/// The sweep *is* the analysis: build without the strict gates so
/// rejections are reported here, not thrown by the flow.
fn unchecked(m: usize) -> FlowOptions {
    FlowOptions {
        verify: None,
        analyze: false,
        ..FlowOptions::dream_with_m(m)
    }
}

/// One analysed mapping point, and whether it came back clean.
fn analyse_op(spec: &str, m: usize, op_name: &str, method: &str, op: &PgaOperation) -> (Obj, bool) {
    let cfg = FabricConfig::from_op(op);
    let params = AnalysisParams::for_fabric(&PicogaParams::dream());
    let timing = analyze_timing(&cfg);
    let (ok, affine, linear, warnings, errors) = match check_config(&cfg, &params) {
        Ok(a) => (true, a.cert.affine, a.cert.linear, a.report.warnings(), 0),
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
                e.report.warnings(),
                e.report.errors(),
            )
        }
    };
    let entry = Obj::new()
        .field("spec", spec)
        .field("m", m)
        .field("op", op_name)
        .field("method", method)
        .field("cells", cfg.cells().len())
        .field("rows", timing.rows_used)
        .field("critical_path", timing.critical_path)
        .field("row_pressure", timing.max_row_pressure)
        .field("max_fanout", timing.max_fanout)
        .field("dead_cells", timing.dead_cells.len())
        .field("latency", timing.latency)
        .field("ii", timing.initiation_interval)
        .field("stalls_per_issue", timing.fill_drain_stalls_per_issue)
        .field("affine", affine)
        .field("linear", linear)
        .field("warnings", warnings)
        .field("errors", errors)
        .field("ok", ok);
    (entry, ok)
}

/// Catalogue sweep: CRC standards + the 802.11 scrambler. Returns the
/// analysed points, the unmappable ones, and how many came back unclean.
fn catalogue(ms: &[usize]) -> (Vec<Obj>, Vec<Obj>, usize) {
    let (mut entries, mut skipped) = (Vec::new(), Vec::new());
    let mut unclean = 0usize;
    for spec in lfsr::crc::CATALOG {
        for &m in ms {
            let Ok((app, _)) = build_crc_app(spec, &unchecked(m)) else {
                skipped.push(Obj::new().field("spec", spec.name).field("m", m));
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
        match build_scrambler_app(ScramblerSpec::ieee80211(), &unchecked(m)) {
            Ok((app, _)) => {
                let (entry, ok) = analyse_op("802.11-scrambler", m, "scrambler", "derby", app.op());
                unclean += usize::from(!ok);
                entries.push(entry);
            }
            Err(_) => skipped.push(Obj::new().field("spec", "802.11-scrambler").field("m", m)),
        }
    }
    (entries, skipped, unclean)
}

/// The analyzer must reject a configuration that breaks a fabric
/// bound: an XOR chain one row deeper than the DREAM fabric. Its
/// fan-out (25) stays under the routing bound, so exactly `AZ003`
/// fires.
fn rejection_demo() -> (Obj, bool) {
    use analyze::CellFunc;
    let params = AnalysisParams::dream();
    let mut cfg = FabricConfig::new("rejection-demo", 2);
    let mut s = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
    for row in 1..=params.max_rows {
        s = cfg.add_cell(row, vec![s, 0], CellFunc::Xor { invert: false });
    }
    cfg.add_output(Some(s));
    let (rejected, codes) = match check_config(&cfg, &params) {
        Ok(_) => (false, Vec::new()),
        Err(e) => {
            let mut codes: Vec<&str> = e.report.findings.iter().map(|f| f.code.as_str()).collect();
            codes.sort_unstable();
            codes.dedup();
            (true, codes)
        }
    };
    let ok = rejected && codes == ["AZ003"];
    let entry = Obj::new()
        .field("rejected", rejected)
        .field("codes", codes.into_iter().collect::<Arr>());
    (entry, ok)
}

/// Static timing vs the live fabric profiler, one scrambler run per M.
fn cross_check(ms: &[usize]) -> (Arr, bool) {
    let mut entries = Vec::new();
    let mut all_ok = true;
    for &m in ms {
        let Ok((mut app, _)) = build_scrambler_app(ScramblerSpec::ieee80211(), &unchecked(m))
        else {
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
        entries.push(
            Obj::new()
                .field("m", m)
                .field("rows", timing.rows_used)
                .field("latency", timing.latency)
                .field("issues", issues)
                .field("blocks", blocks)
                .field("stalls", stalls)
                .field("ok", ok),
        );
    }
    let ok = all_ok && !entries.is_empty();
    (entries.into_iter().collect(), ok)
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
) -> (Obj, bool) {
    let violations: Arr = x
        .violations
        .iter()
        .map(|v| {
            Obj::new()
                .field("invariant", v.invariant.as_str())
                .field("trace_len", v.trace.len())
                .field("trace", format!("{:?}", v.trace).as_str())
        })
        .collect();
    let entry = Obj::new()
        .field("model", name)
        .field("states", x.states)
        .field("transitions", x.transitions)
        .field("depth", x.depth_reached)
        .field("truncated", x.truncated)
        .field("passed", x.passed())
        .field("violations", violations);
    let ok = !x.truncated
        && match expect_violation {
            None => x.passed(),
            Some(inv) => x.violations.iter().any(|v| v.invariant == inv),
        };
    (entry, ok)
}

fn model_checking() -> (Arr, bool) {
    let limits = ExploreLimits::default();
    let mut entries = Vec::new();
    let mut all_ok = true;
    let mut record = |(e, ok): (Obj, bool)| {
        entries.push(e);
        all_ok &= ok;
    };

    let fixed = ServiceModel::small();
    record(mc_entry::<ServiceModel>(
        "service-fixed",
        &explore(&fixed, &limits),
        None,
    ));
    let buggy = ServiceModel::small_prefix_bug();
    record(mc_entry::<ServiceModel>(
        "service-prefix-transact-bug",
        &explore(&buggy, &limits),
        Some("no-double-park"),
    ));

    for (name, model) in [
        ("recovery-standard", RecoveryModel::standard()),
        ("recovery-stream-serving", RecoveryModel::stream_serving()),
    ] {
        record(mc_entry::<RecoveryModel>(
            name,
            &explore(&model, &limits),
            None,
        ));
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
        record(mc_entry::<ClusterModel>(
            name,
            &explore(&model, &limits),
            expect,
        ));
    }

    // The per-shard circuit breaker, likewise.
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
        record(mc_entry::<BreakerModel>(
            name,
            &explore(&model, &limits),
            expect,
        ));
    }

    // The write-ahead log's recovery contract, likewise.
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
        record(mc_entry::<JournalModel>(
            name,
            &explore(&model, &limits),
            expect,
        ));
    }

    (entries.into_iter().collect(), all_ok)
}

/// The gates' one-word verdict.
fn pass(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "FAIL"
    }
}

pub fn report(smoke: bool, seed: u64) -> Result<Report, String> {
    // The paper's M trio in smoke mode; full mode adds the intermediate
    // look-ahead factors.
    let ms: &[usize] = if smoke {
        &[8, 32, 128]
    } else {
        &[8, 16, 32, 64, 128]
    };
    let codes: Arr = AnalyzeCode::ALL
        .iter()
        .map(|c| {
            let severity = match c.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            Obj::new()
                .field("code", c.as_str())
                .field("severity", severity)
                .field("summary", c.summary())
        })
        .collect();
    let (entries, skipped, unclean) = catalogue(ms);
    let (mapped, unmappable) = (entries.len(), skipped.len());
    let (demo, demo_ok) = rejection_demo();
    let (cross, cross_ok) = cross_check(&[8, 32, 128]);
    let (models, mc_ok) = model_checking();
    let doc = Obj::new()
        .field("bench", "fabric_analyze")
        .field("seed", seed)
        .field("mode", super::mode(smoke))
        .field("codes", codes)
        .field("catalogue", entries.into_iter().collect::<Arr>())
        .field("unmappable", skipped.into_iter().collect::<Arr>())
        .field("rejection_demo", demo)
        .field("cross_check", cross)
        .field("model_checking", models)
        .finish();

    let listed: Vec<String> = json_section(&doc, "codes")
        .map(json_objects)
        .unwrap_or_default()
        .into_iter()
        .filter_map(|c| json_str(c, "code"))
        .collect();
    let missing: Vec<&str> = AnalyzeCode::ALL
        .iter()
        .map(|c| c.as_str())
        .filter(|c| !listed.iter().any(|l| l == c))
        .chain(
            SECTIONS
                .into_iter()
                .filter(|s| json_section(&doc, s).is_none()),
        )
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "schema check failed: missing from the report: {missing:?}"
        ));
    }

    let text = format!(
        "fabric_analyze: {mapped} analysed point(s) ({unmappable} unmappable, \
         {unclean} unclean) -> BENCH_analyze.json\n\
         gates: rejection={} timing-cross-check={} model-checking={}\n",
        pass(demo_ok),
        pass(cross_ok),
        pass(mc_ok),
    );
    Ok(Report {
        text,
        doc,
        failed: (unclean > 0 || !demo_ok || !cross_ok || !mc_ok)
            .then(|| "failed one or more acceptance gates".to_string()),
    })
}
