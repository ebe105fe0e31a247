//! Seeded fault-injection campaign over the DREAM/PiCoGA stack.
//!
//! Sweeps injection rate x look-ahead factor M x recovery policy and
//! reports detection coverage, silent-data-corruption rate and cycle
//! overhead versus a fault-free baseline. Reproducible: the same seed
//! always yields the same report.
//!
//! With `--out PATH` also writes a flat JSON summary (integers and
//! booleans only — coverage is carried as basis points so the document
//! is byte-identical across same-seed runs) suitable for committing
//! under `baselines/BENCH_fault.json` and comparing with a tolerance
//! ratchet.
//!
//! Usage: `fault_campaign [--smoke] [--seed N] [--out PATH]`
//!
//! Exits nonzero if the default policy's detection coverage of
//! semantics-changing faults drops below 99% or the DMR policy delivers
//! any wrong answer, so it doubles as a CI regression gate.

use resilience::{run_campaign, CampaignConfig};
use std::fmt::Write as _;

fn main() {
    let (smoke, seed, out_path) =
        match bench::parse_report_args("fault_campaign", std::env::args().skip(1)) {
            Ok((smoke, seed, out)) => (smoke, seed.unwrap_or(0xD1EA_2008), out),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };

    let cfg = if smoke {
        CampaignConfig::smoke(seed)
    } else {
        CampaignConfig::default_sweep(seed)
    };
    let report = match run_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", report.render());

    let coverage = report.coverage_for("standard");
    let dmr_wrong = report.wrong_answers_for("dmr");
    let passed = coverage >= 0.99 && dmr_wrong == 0;

    if let Some(path) = out_path {
        // Integer-only aggregates: coverage goes out as basis points
        // computed in integer arithmetic so the document is exactly
        // reproducible from the seed.
        let sum =
            |f: fn(&resilience::CampaignRow) -> u64| -> u64 { report.rows.iter().map(f).sum() };
        let std_sem: u64 = report
            .rows
            .iter()
            .filter(|r| r.policy == "standard")
            .map(|r| r.semantic as u64)
            .sum();
        let std_det: u64 = report
            .rows
            .iter()
            .filter(|r| r.policy == "standard")
            .map(|r| r.detected as u64)
            .sum();
        let coverage_bp = (std_det * 10_000).checked_div(std_sem).unwrap_or(10_000);
        let mut doc = String::new();
        let _ = write!(
            doc,
            "{{\"bench\":\"fault_campaign\",\"seed\":{},\"cells\":{},\
             \"trials\":{},\"faulted\":{},\"semantic\":{},\"detected\":{},\
             \"sdc_trials\":{},\"wrong_answers\":{},\"fallbacks\":{},\
             \"healed\":{},\"semantic_standard\":{},\
             \"detected_standard\":{},\"coverage_bp_standard\":{},\
             \"wrong_answers_dmr\":{},\"passed\":{}}}",
            report.seed,
            report.rows.len(),
            sum(|r| r.trials as u64),
            sum(|r| r.faulted as u64),
            sum(|r| r.semantic as u64),
            sum(|r| r.detected as u64),
            sum(|r| r.sdc_trials as u64),
            sum(|r| r.wrong_answers),
            sum(|r| r.fallbacks as u64),
            sum(|r| r.healed as u64),
            std_sem,
            std_det,
            coverage_bp,
            dmr_wrong,
            passed,
        );
        doc.push('\n');
        if let Err(e) = std::fs::write(&path, &doc) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("fault_campaign: JSON summary -> {path}");
    }

    if coverage < 0.99 {
        eprintln!(
            "FAIL: standard-policy detection coverage {:.1}% < 99%",
            100.0 * coverage
        );
        std::process::exit(1);
    }
    if dmr_wrong > 0 {
        eprintln!("FAIL: DMR delivered {dmr_wrong} wrong answer(s)");
        std::process::exit(1);
    }
}
