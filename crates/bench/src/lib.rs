//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5) from the simulation substrates.
//!
//! Each `table1`/`fig4`…`fig8`/`mapping_report` function returns the
//! rendered rows as a string; the binaries in `src/bin/` and the
//! `experiments` bench target print them. All workloads are seeded and
//! deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;

use dream::{ControlModel, DreamCrcApp, DreamScramblerApp, EnergyModel, RunReport};
use dream_lfsr::{build_crc_app, build_scrambler_app, sweep_m, FlowOptions};
use gf2::BitVec;
use lfsr::crc::CrcSpec;
use lfsr::scramble::ScramblerSpec;
use lfsr_parallel::GfmacProcessorModel;
use picoga::PicogaParams;
use riscsim::CrcKernel;
use std::fmt::Write as _;

/// Parses a report binary's `[--smoke] [--seed N] [--out PATH]`
/// command line (`args` without the program name) into `(smoke, seed,
/// out)`; flags not given stay `false`/`None`.
///
/// # Errors
///
/// The message to print before exiting with status 2: an unknown
/// argument (with `bin`'s usage line), a non-integer seed, or `--out`
/// without a path.
pub fn parse_report_args(
    bin: &str,
    args: impl IntoIterator<Item = String>,
) -> Result<(bool, Option<u64>, Option<String>), String> {
    let (mut smoke, mut seed, mut out) = (false, None, None);
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--seed" => {
                let v = args.next().unwrap_or_default();
                let n = v
                    .parse()
                    .map_err(|_| format!("--seed expects an unsigned integer, got {v:?}"))?;
                seed = Some(n);
            }
            "--out" => out = Some(args.next().ok_or("--out expects a path")?),
            other => {
                return Err(format!(
                    "unknown argument {other:?}; usage: {bin} [--smoke] [--seed N] [--out PATH]"
                ))
            }
        }
    }
    Ok((smoke, seed, out))
}

/// The process's report command line (see [`parse_report_args`]) with
/// the report defaults filled in: seed 2008 and `default_out`. A bad
/// argument prints its message to stderr and exits with status 2.
#[must_use]
pub fn report_args(bin: &str, default_out: &str) -> (bool, u64, String) {
    match parse_report_args(bin, std::env::args().skip(1)) {
        Ok((smoke, seed, out)) => (
            smoke,
            seed.unwrap_or(2008),
            out.unwrap_or_else(|| default_out.to_string()),
        ),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// The DREAM fabric clock (Hz).
pub const CLOCK_HZ: f64 = 200e6;

/// Ethernet message-length window in bits (the paper's Fig. 4 annotation).
pub const ETHERNET_WINDOW_BITS: (usize, usize) = (368, 12_144);

/// Deterministic message bytes.
pub fn message(len_bytes: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len_bytes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

fn crc_app(m: usize) -> DreamCrcApp {
    build_crc_app(CrcSpec::crc32_ethernet(), &FlowOptions::dream_with_m(m))
        .expect("paper configurations map onto DREAM")
        .0
}

fn scrambler_app(m: usize) -> DreamScramblerApp {
    build_scrambler_app(ScramblerSpec::ieee80211(), &FlowOptions::dream_with_m(m))
        .expect("scrambler maps onto DREAM")
        .0
}

/// Table 1 — speed-up of DREAM vs the fast software CRC on a
/// same-frequency RISC, per message length and look-ahead factor. Also
/// prints the §5 GFMAC-processor reference point.
pub fn table1() -> String {
    let mut out = String::new();
    let kernel = CrcKernel::ethernet_sarwate();
    // Invariant: the static Ethernet kernel runs bounded loops over a
    // fixed-size measurement message — the runaway guard cannot fire.
    let risc_bps = kernel
        .steady_throughput_bps(CLOCK_HZ)
        .expect("static kernel measurement");
    let _ = writeln!(
        out,
        "Table 1: Speed-up vs. fast software CRC on RISC @200MHz \
         ({:.1} cycles/byte, {:.0} Mbit/s steady state)",
        kernel.cycles_per_byte().expect("static kernel measurement"),
        risc_bps / 1e6
    );
    let _ = writeln!(
        out,
        "{:>14} | {:>8} {:>8} {:>8}",
        "msg length", "M=32", "M=64", "M=128"
    );
    let _ = writeln!(out, "{}", "-".repeat(46));
    let lengths_bits = [368usize, 512, 1024, 4096, 12_144];
    let mut apps: Vec<DreamCrcApp> = [32usize, 64, 128].iter().map(|&m| crc_app(m)).collect();
    for &bits in &lengths_bits {
        let data = message(bits / 8, 0xE7);
        let risc = kernel.run(&data).expect("kernel run");
        let risc_thr = risc.throughput_bps(bits as u64, CLOCK_HZ);
        let mut row = format!("{bits:>10} bit |");
        for app in &mut apps {
            let (_, report) = app.checksum(&data);
            let speedup = report.throughput_bps(CLOCK_HZ) / risc_thr;
            let _ = write!(row, " {speedup:>7.1}x");
        }
        let _ = writeln!(out, "{row}");
    }
    let gfmac = GfmacProcessorModel::reference();
    let _ = writeln!(
        out,
        "Reference [10]: 16-GFMAC custom processor, 128-bit message: {} cycles \
         (paper: 2-3 cycles)",
        gfmac.cycles(128)
    );
    out
}

fn throughput_sweep(interleave: Option<usize>) -> String {
    let mut out = String::new();
    let lengths_bits = [
        64usize, 128, 256, 368, 512, 1024, 2048, 4096, 8192, 12_144, 16_384, 65_536,
    ];
    let ms = [32usize, 64, 128];
    let _ = writeln!(
        out,
        "{:>10} | {:>10} {:>10} {:>10}   (Gbit/s)",
        "bits", "M=32", "M=64", "M=128"
    );
    let _ = writeln!(out, "{}", "-".repeat(50));
    let mut apps: Vec<DreamCrcApp> = ms.iter().map(|&m| crc_app(m)).collect();
    for &bits in &lengths_bits {
        let mut row = format!("{bits:>10} |");
        for app in &mut apps {
            let thr = match interleave {
                None => {
                    let data = message(bits / 8, 0x51);
                    let (_, report) = app.checksum(&data);
                    report.throughput_bps(CLOCK_HZ)
                }
                Some(k) => {
                    let batch: Vec<Vec<u8>> =
                        (0..k).map(|i| message(bits / 8, 0x51 + i as u64)).collect();
                    let refs: Vec<&[u8]> = batch.iter().map(std::vec::Vec::as_slice).collect();
                    let (_, report) = app.checksum_interleaved(&refs);
                    report.throughput_bps(CLOCK_HZ)
                }
            };
            let _ = write!(row, " {:>10.2}", thr / 1e9);
        }
        let mark = if (ETHERNET_WINDOW_BITS.0..=ETHERNET_WINDOW_BITS.1).contains(&bits) {
            "  <- Ethernet window"
        } else {
            ""
        };
        let _ = writeln!(out, "{row}{mark}");
    }
    out
}

/// Fig. 4 — throughput vs message length, single message.
pub fn fig4() -> String {
    format!(
        "Fig. 4: Throughput vs. message length (single message)\n{}",
        throughput_sweep(None)
    )
}

/// Fig. 5 — throughput vs message length, 32 interleaved messages.
pub fn fig5() -> String {
    format!(
        "Fig. 5: Throughput vs. message length (32 interleaved messages)\n{}",
        throughput_sweep(Some(32))
    )
}

/// Fig. 6 — application-specific CRC: throughput vs look-ahead factor
/// (kernel only, no communication overhead — "infinite message").
pub fn fig6() -> String {
    use asic::{TechNode, TheoryCurves, UcrcModel};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6: Application-specific CRC, throughput vs look-ahead factor (Gbit/s)"
    );
    let tech = TechNode::st65lp();
    let theory = TheoryCurves::from_serial_synthesis(CrcSpec::crc32_ethernet(), tech)
        .expect("serial synthesis model");
    let _ = writeln!(
        out,
        "{:>5} | {:>10} {:>10} {:>10} {:>10}",
        "M", "UCRC-65nm", "M/2-theory", "M-theory", "DREAM"
    );
    let _ = writeln!(out, "{}", "-".repeat(55));
    for m in [2usize, 4, 8, 16, 32, 64, 128, 256, 512] {
        let ucrc = UcrcModel::new(CrcSpec::crc32_ethernet(), m, tech)
            .expect("model")
            .stats()
            .throughput_bps;
        let dream = if m <= 128 {
            format!("{:>10.2}", m as f64 * CLOCK_HZ / 1e9)
        } else {
            format!("{:>10}", "n/a")
        };
        let _ = writeln!(
            out,
            "{:>5} | {:>10.2} {:>10.2} {:>10.2} {dream}",
            m,
            ucrc / 1e9,
            theory.m_half_theory_bps(m) / 1e9,
            theory.m_theory_bps(m) / 1e9,
        );
    }
    let _ = writeln!(
        out,
        "(DREAM peak at M=128: {:.1} Gbit/s — the paper's ~25 Gbit/s headline)",
        128.0 * CLOCK_HZ / 1e9
    );
    out
}

/// Fig. 7 — energy efficiency (pJ/bit) vs message length.
pub fn fig7() -> String {
    let mut out = String::new();
    let e = EnergyModel::dream_90nm();
    let _ = writeln!(
        out,
        "Fig. 7: Energy efficiency vs message length (pJ/bit); RISC reference = {:.0} pJ/bit",
        e.risc_pj_per_bit
    );
    let _ = writeln!(
        out,
        "{:>10} | {:>9} {:>9} {:>9} | {:>9}",
        "bits", "M=32", "M=64", "M=128", "RISC"
    );
    let _ = writeln!(out, "{}", "-".repeat(56));
    let ms = [32usize, 64, 128];
    let mut apps: Vec<DreamCrcApp> = ms.iter().map(|&m| crc_app(m)).collect();
    for bits in [368usize, 1024, 4096, 12_144, 65_536] {
        let data = message(bits / 8, 0x33);
        let mut row = format!("{bits:>10} |");
        for app in &mut apps {
            let (_, report) = app.checksum(&data);
            let pj = e.pj_per_bit(&report, app.update_stats().cells);
            let _ = write!(row, " {pj:>9.1}");
        }
        let _ = writeln!(out, "{row} | {:>9.1}", e.risc_pj_per_bit);
    }
    out
}

/// Fig. 8 — 802.11(e) scrambler throughput vs look-ahead factor and block
/// length.
pub fn fig8() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 8: 802.11 scrambler throughput (Gbit/s) vs look-ahead factor and block length"
    );
    let ms = [8usize, 16, 32, 64, 128];
    let _ = write!(out, "{:>10} |", "bits");
    for &m in &ms {
        let _ = write!(out, " {:>8}", format!("M={m}"));
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(58));
    let mut apps: Vec<DreamScramblerApp> = ms.iter().map(|&m| scrambler_app(m)).collect();
    for bits in [64usize, 256, 1024, 4096, 16_384, 65_536] {
        let data = {
            let bytes = message(bits / 8, 0x44);
            let mut v = BitVec::zeros(bits);
            for (i, b) in bytes.iter().enumerate() {
                for k in 0..8 {
                    if (b >> k) & 1 == 1 {
                        v.set(i * 8 + k, true);
                    }
                }
            }
            v
        };
        let mut row = format!("{bits:>10} |");
        for app in &mut apps {
            let (_, report) = app.scramble(0x7F, &data);
            let _ = write!(row, " {:>8.2}", report.throughput_bps(CLOCK_HZ) / 1e9);
        }
        let _ = writeln!(out, "{row}");
    }
    let _ = writeln!(
        out,
        "(M=128 reaches the fabric's maximum output bandwidth: 4x32-bit ports)"
    );
    out
}

/// §4 resource report — which look-ahead factors map onto DREAM
/// ("PiCoGA is able to elaborate up to 128 bit per cycle").
pub fn mapping_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Mapping report: CRC-32/Ethernet on the DREAM PiCoGA");
    let candidates = [8usize, 16, 32, 64, 96, 128, 160, 192, 256];
    for point in sweep_m(
        CrcSpec::crc32_ethernet(),
        &candidates,
        &PicogaParams::dream(),
    ) {
        let _ = writeln!(out, "  {point}");
    }
    let _ = writeln!(
        out,
        "  => maximum look-ahead on DREAM: {} bits/cycle",
        dream_lfsr::max_lookahead(CrcSpec::crc32_ethernet(), &PicogaParams::dream())
    );
    out
}

/// Measures the interleaving win explicitly (Fig. 5 vs Fig. 4): returns
/// (interleaved, sequential) reports for `k` messages of `bits` each.
pub fn interleave_gain(bits: usize, k: usize, m: usize) -> (RunReport, RunReport) {
    let mut app = crc_app(m);
    let batch: Vec<Vec<u8>> = (0..k).map(|i| message(bits / 8, i as u64 + 1)).collect();
    let refs: Vec<&[u8]> = batch.iter().map(std::vec::Vec::as_slice).collect();
    let (_, il) = app.checksum_interleaved(&refs);
    let mut seq = RunReport::default();
    for d in &batch {
        let (_, r) = app.checksum(d);
        seq.absorb(&r);
    }
    (il, seq)
}

/// The default control model used by all experiments (exposed so the
/// binaries can print the calibration they ran with).
pub fn default_control() -> ControlModel {
    ControlModel::default()
}

/// Machine-readable totals from the fabric-lint sweep, alongside the
/// rendered text of [`lint_report`]. Fully deterministic — the sweep
/// has no randomness — so the derived `BENCH_lint.json` is
/// byte-identical across runs and can be committed as a baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LintSummary {
    /// Catalogue points successfully mapped and verified.
    pub mapped: usize,
    /// Points the flow declined to map (reported, not counted failed).
    pub skipped: usize,
    /// Total `Error`-severity findings across all mappings.
    pub errors: usize,
    /// Total `Warning`-severity findings across all mappings.
    pub warnings: usize,
}

/// Runs the fabric-lint sweep: every catalogue CRC standard at every
/// paper look-ahead factor M ∈ {8, 16, 32, 64, 128}, each mapped
/// operation proven equivalent to its source matrix and run through the
/// structural linter. Returns the rendered report and the sweep totals
/// (`errors` should be zero — every artifact the flow emits is
/// supposed to verify).
pub fn lint_report() -> (String, LintSummary) {
    use verify::{verify_mapping, LintConfig, Report};

    let params = PicogaParams::dream();
    let config = LintConfig::keep_all();
    let mut out = String::new();
    let mut total_errors = 0usize;
    let mut total_warnings = 0usize;
    let mut mapped = 0usize;
    let mut skipped = 0usize;

    let _ = writeln!(
        out,
        "fabric-lint report: catalogue CRCs x M in {{8,16,32,64,128}} on {params}"
    );
    for spec in lfsr::crc::CATALOG {
        for m in [8usize, 16, 32, 64, 128] {
            // Verification is what this sweep performs; build without the
            // strict gate so rejected artifacts are reported, not thrown.
            let opts = FlowOptions {
                verify: None,
                ..FlowOptions::dream_with_m(m)
            };
            let (app, flow) = match build_crc_app(spec, &opts) {
                Ok(pair) => pair,
                Err(e) => {
                    skipped += 1;
                    let _ = writeln!(out, "{:<22} M={m:<3} unmappable: {e}", spec.name);
                    continue;
                }
            };

            let mut report = Report::new();
            match app.transform() {
                Some(derby) => {
                    report.merge(verify_mapping(
                        app.update_op(),
                        derby.b_mt(),
                        &params,
                        &config,
                    ));
                    if let Some(fin) = app.finalize_op() {
                        report.merge(verify_mapping(fin, derby.t(), &params, &config));
                    }
                }
                None => {
                    let block = app.dense_block_system().expect("dense datapath");
                    let expected = block.a_m().hstack(block.b_m());
                    report.merge(verify_mapping(app.update_op(), &expected, &params, &config));
                }
            }

            mapped += 1;
            total_errors += report.error_count();
            total_warnings += report.warning_count();
            let s = app.update_stats();
            let _ = writeln!(
                out,
                "{:<22} M={m:<3} {:<7} rows {:>2}  cells {:>3}  {} error(s) {} warning(s)",
                spec.name,
                match flow.method {
                    dream::CrcMethod::Derby => "derby",
                    dream::CrcMethod::DenseLookahead => "dense",
                },
                s.rows,
                s.cells,
                report.error_count(),
                report.warning_count(),
            );
            for d in &report.diagnostics {
                let _ = writeln!(out, "    {d}");
            }
        }
    }
    let _ = writeln!(
        out,
        "{mapped} mapping(s) verified, {skipped} unmappable point(s) skipped: \
         {total_errors} error(s), {total_warnings} warning(s)"
    );
    (
        out,
        LintSummary {
            mapped,
            skipped,
            errors: total_errors,
            warnings: total_warnings,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, Option<u64>, Option<String>), String> {
        parse_report_args("crash_storm", args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn report_args_accept_the_ci_forms() {
        assert_eq!(parse(&[]), Ok((false, None, None)));
        assert_eq!(
            parse(&["--smoke", "--seed", "2008"]),
            Ok((true, Some(2008), None))
        );
        assert_eq!(
            parse(&["--smoke", "--seed", "2008", "--out", "BENCH_fault.json"]),
            Ok((true, Some(2008), Some("BENCH_fault.json".to_string())))
        );
        assert_eq!(
            parse(&["--out", "BENCH_lint.json"]),
            Ok((false, None, Some("BENCH_lint.json".to_string())))
        );
    }

    #[test]
    fn report_args_reject_with_the_usage_messages() {
        assert_eq!(
            parse(&["--smoke", "--fast"]),
            Err(
                "unknown argument \"--fast\"; usage: crash_storm [--smoke] [--seed N] [--out PATH]"
                    .to_string()
            )
        );
        assert_eq!(
            parse(&["--seed", "-3"]),
            Err("--seed expects an unsigned integer, got \"-3\"".to_string())
        );
        assert_eq!(
            parse(&["--seed"]),
            Err("--seed expects an unsigned integer, got \"\"".to_string())
        );
        assert_eq!(
            parse(&["--smoke", "--out"]),
            Err("--out expects a path".to_string())
        );
    }

    #[test]
    fn table1_and_mapping_report_render() {
        let t = table1();
        assert!(t.contains("Table 1") && t.lines().count() >= 8);
        let m = mapping_report();
        assert!(m.contains("128"));
    }

    #[test]
    fn interleave_gain_is_positive() {
        let (il, seq) = interleave_gain(512, 8, 32);
        assert!(il.total_cycles() < seq.total_cycles());
        assert_eq!(il.bits, seq.bits);
    }
}

/// Ablation study of the flow's design choices (DESIGN.md §5):
/// common-pattern sharing on/off, Derby vs dense look-ahead, and the
/// software-kernel ladder on the RISC model.
pub fn ablation() -> String {
    use lfsr::StateSpaceLfsr;
    use lfsr_parallel::{BlockSystem, DerbyTransform};
    use xornet::{report, synthesize, SynthOptions};

    let mut out = String::new();
    let spec = CrcSpec::crc32_ethernet();
    let sys = StateSpaceLfsr::crc(&spec.generator()).expect("valid");

    let _ = writeln!(out, "Ablation 1: common-pattern sharing (B_Mt network)");
    let _ = writeln!(
        out,
        "{:>6} | {:>14} {:>14} | {:>8}",
        "M", "CSE gates/depth", "naive gates/dep", "saving"
    );
    for m in [32usize, 64, 128] {
        let block = BlockSystem::new(&sys, m).expect("m >= 1");
        let derby = DerbyTransform::new(&block).expect("cyclic at these M");
        let cse = report(&synthesize(derby.b_mt(), SynthOptions::default()));
        let naive = report(&synthesize(
            derby.b_mt(),
            SynthOptions {
                share_patterns: false,
                max_fanin: 10,
            },
        ));
        let _ = writeln!(
            out,
            "{:>6} | {:>9}/{:<4} {:>9}/{:<4} | {:>7.1}%",
            m,
            cse.gates,
            cse.depth,
            naive.gates,
            naive.depth,
            100.0 * (naive.gates as f64 - cse.gates as f64) / naive.gates as f64
        );
    }

    let _ = writeln!(out, "\nAblation 2: Derby vs dense look-ahead structure");
    let _ = writeln!(
        out,
        "{:>18} | {:>8} {:>6} {:>6} {:>12}",
        "spec @ M", "method", "II", "rows", "kernel Gbit/s"
    );
    for (name, m) in [("CRC-32/ETHERNET", 32usize), ("CRC-16/DECT-X", 16)] {
        let spec = CrcSpec::by_name(name).expect("catalogue");
        let (app, rep) = build_crc_app(spec, &FlowOptions::dream_with_m(m)).expect("maps");
        let _ = writeln!(
            out,
            "{:>18} | {:>8} {:>6} {:>6} {:>12.2}",
            format!("{name}@{m}"),
            match app.method() {
                dream::CrcMethod::Derby => "derby",
                dream::CrcMethod::DenseLookahead => "dense",
            },
            rep.update_stats.initiation_interval,
            rep.update_stats.rows,
            rep.kernel_bps / 1e9,
        );
    }

    let _ = writeln!(
        out,
        "\nAblation 3: software-kernel ladder on the RISC model"
    );
    for k in [
        CrcKernel::ethernet_bitwise(),
        CrcKernel::ethernet_sarwate(),
        CrcKernel::ethernet_slicing4(),
    ] {
        // Invariant: static kernels, bounded loops — see `table1`.
        let _ = writeln!(
            out,
            "  {:<16} {:>6.1} cycles/byte  ({:>7.1} Mbit/s @200MHz)",
            k.name(),
            k.cycles_per_byte().expect("static kernel measurement"),
            k.steady_throughput_bps(CLOCK_HZ)
                .expect("static kernel measurement")
                / 1e6
        );
    }
    out
}

#[cfg(test)]
mod ablation_tests {
    #[test]
    fn ablation_renders_all_three_studies() {
        let a = super::ablation();
        assert!(a.contains("Ablation 1"));
        assert!(a.contains("derby"));
        assert!(a.contains("dense"));
        assert!(a.contains("crc32-slicing4"));
    }
}

/// Extension study: the structural witness of Fig. 6's "M theory" — a
/// Derby-structured *pipelined ASIC* built from the same matrices, whose
/// loop stays one XOR2 level deep at any M.
pub fn pipelined_asic_study() -> String {
    use asic::{PipelinedCrcAsic, TechNode, TheoryCurves, UcrcModel};
    let mut out = String::new();
    let tech = TechNode::st65lp();
    let theory = TheoryCurves::from_serial_synthesis(CrcSpec::crc32_ethernet(), tech)
        .expect("serial anchor");
    let _ = writeln!(
        out,
        "Extension: pipelined (Derby) ASIC vs flat UCRC vs M-theory (Gbit/s)"
    );
    let _ = writeln!(
        out,
        "{:>5} | {:>10} {:>14} {:>10} {:>7}",
        "M", "flat UCRC", "pipelined ASIC", "M-theory", "stages"
    );
    for m in [8usize, 32, 128, 512] {
        let flat = UcrcModel::new(CrcSpec::crc32_ethernet(), m, tech)
            .expect("model")
            .stats()
            .throughput_bps;
        let piped = PipelinedCrcAsic::new(CrcSpec::crc32_ethernet(), m, tech).expect("cyclic");
        let _ = writeln!(
            out,
            "{:>5} | {:>10.2} {:>14.2} {:>10.2} {:>7}",
            m,
            flat / 1e9,
            piped.stats().throughput_bps / 1e9,
            theory.m_theory_bps(m) / 1e9,
            piped.pipeline_stages(),
        );
    }
    out
}
