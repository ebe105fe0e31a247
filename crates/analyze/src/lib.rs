//! Whole-configuration static analysis and bounded model checking for
//! the simulated PiCoGA stack.
//!
//! Three analyzers share one intermediate representation
//! ([`ir::FabricConfig`], lowered from a mapped [`picoga::PgaOperation`]):
//!
//! 1. **Linearity/affineness prover** ([`linearity`]) — abstract
//!    interpretation over GF(2) affine forms. It folds the XOR cells
//!    the flow places, classifies every cell linear or affine, and
//!    proves each output's exact affine map. The resulting
//!    [`LinearityCert`] is the soundness precondition of the runtime
//!    basis probe: sweeping the zero vector plus the input basis is a
//!    *complete* stuck-at test only for affine networks, so
//!    `DreamSystem::datapath_probe` refuses to certify a lane whose
//!    personality the prover could not show affine.
//! 2. **Static timing/resource analyzer** ([`timing`]) — critical-path
//!    depth, per-row register pressure, fan-out load, pipeline
//!    fill/drain cost and dead-cell occupancy, cross-checked against
//!    the `obs` fabric profiler's measured per-row busy cycles.
//! 3. **Bounded model checker** ([`mc`], [`models`]) — exhaustive
//!    small-scope exploration of the serving state machines
//!    (admission/overload ladder, park/resume, transactional fault
//!    rollback, recovery ladder, cluster control plane, circuit
//!    breaker, journal recovery) with shortest-trace counterexamples.
//!    The overload-ladder step and the breaker transition function
//!    are not modelled copies: [`LadderParams::next_level`] and
//!    [`BreakerParams::step`] are the implementations `stream` and
//!    `cluster` run. The pre-fix `transact()` model (dedup without
//!    sort) rediscovers the double-park bug; the current model passes.
//!
//! A fourth, IR-free checker ([`spans`]) audits recorded operation
//! traces instead of configurations: every causal span begun must end
//! exactly once, with forward-running cycles and intact parent links
//! (DESIGN.md §14).
//!
//! [`check_config`] is the front door: it runs the prover and the
//! timing analyzer over one configuration, applies fabric bounds, and
//! returns either a [`ConfigAnalysis`] or a typed [`AnalyzeError`]
//! whose report carries `AZ`-coded findings. The build flow
//! (`picolfsr::flow`) runs it under `FlowOptions::analyze`, and the
//! bench `report` binary sweeps it across the personality catalogue
//! into `BENCH_analyze.json`.

pub mod ir;
pub mod linearity;
pub mod mc;
pub mod models;
pub mod spans;
pub mod timing;

pub use ir::{CellFunc, CellIr, FabricConfig, SignalId};
pub use linearity::{certify, CellClass, LinearityCert};
pub use mc::{explore, Exploration, ExploreLimits, Model, Violation};
pub use models::{
    BreakerModel, BreakerParams, ClusterModel, JournalEvent, JournalModel, JournalSt, LadderParams,
    RecoveryModel, ServiceModel, BRK_FAILURE, BRK_SUCCESS, BRK_TICK,
};
pub use spans::{check_span_balance, SpanBalanceReport};
pub use timing::{analyze_timing, cross_check, StaticTiming, TimingMismatch};

use picoga::PicogaParams;
use std::fmt;

/// Severity of an analysis finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Rejects the configuration.
    Error,
    /// Reported but does not reject.
    Warning,
}

/// Stable analysis diagnostic codes (`AZ…`), disjoint from the verify
/// crate's `FL…` lint codes: lints judge the *network* during
/// synthesis, these judge the *placed configuration* as a whole.
///
/// AZ001 is retired: it flagged nonlinear LUT cells, which the IR can
/// no longer express. The remaining codes keep their strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeCode {
    /// AZ002 — some primary output is not an affine function of the
    /// inputs, so the affine-complete basis probe is unsound.
    NonAffineOutput,
    /// AZ003 — pipeline depth exceeds the fabric's row budget.
    DepthOverRows,
    /// AZ004 — some row holds more cells than the usable row width.
    RegisterPressure,
    /// AZ005 — some signal's fan-out exceeds the routing bound.
    FanoutExceeded,
    /// AZ006 — a cell occupies fabric resources but reaches no output.
    DeadCell,
}

impl AnalyzeCode {
    /// Every code, in stable order.
    pub const ALL: [AnalyzeCode; 5] = [
        AnalyzeCode::NonAffineOutput,
        AnalyzeCode::DepthOverRows,
        AnalyzeCode::RegisterPressure,
        AnalyzeCode::FanoutExceeded,
        AnalyzeCode::DeadCell,
    ];

    /// The stable code string.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            AnalyzeCode::NonAffineOutput => "AZ002",
            AnalyzeCode::DepthOverRows => "AZ003",
            AnalyzeCode::RegisterPressure => "AZ004",
            AnalyzeCode::FanoutExceeded => "AZ005",
            AnalyzeCode::DeadCell => "AZ006",
        }
    }

    /// One-line description.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            AnalyzeCode::NonAffineOutput => "output not affine; basis probe unsound",
            AnalyzeCode::DepthOverRows => "pipeline depth exceeds fabric rows",
            AnalyzeCode::RegisterPressure => "row pressure exceeds usable row width",
            AnalyzeCode::FanoutExceeded => "signal fan-out exceeds routing bound",
            AnalyzeCode::DeadCell => "cell reaches no primary output",
        }
    }

    /// Whether the finding rejects the configuration.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            AnalyzeCode::DeadCell => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for AnalyzeCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The diagnostic code.
    pub code: AnalyzeCode,
    /// The offending cell index, when the finding is cell-local.
    pub cell: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.code.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.message)?;
        if let Some(c) = self.cell {
            write!(f, " (cell {c})")?;
        }
        Ok(())
    }
}

/// All findings for one configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// The configuration's name.
    pub subject: String,
    /// Findings in deterministic order (by code, then cell).
    pub findings: Vec<Finding>,
}

impl AnalysisReport {
    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.code.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings.len() - self.errors()
    }

    /// `true` when no finding rejects the configuration.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "analysis of '{}': {} error(s), {} warning(s)",
            self.subject,
            self.errors(),
            self.warnings()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// A configuration rejected by static analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeError {
    /// The full report, including the rejecting findings.
    pub report: AnalysisReport,
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "static analysis rejected the configuration: ")?;
        fmt::Display::fmt(&self.report, f)
    }
}

impl std::error::Error for AnalyzeError {}

/// Fabric bounds the analyzer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisParams {
    /// Maximum pipeline rows (fabric row count).
    pub max_rows: usize,
    /// Maximum cells per row for dense bit-wise networks.
    pub max_row_pressure: usize,
    /// Maximum fan-out any single signal may drive.
    pub max_fanout: usize,
}

impl AnalysisParams {
    /// Bounds for a concrete fabric instance.
    #[must_use]
    pub fn for_fabric(p: &PicogaParams) -> Self {
        AnalysisParams {
            max_rows: p.rows,
            max_row_pressure: p.cells_per_row,
            max_fanout: p.max_signal_fanout(),
        }
    }

    /// Bounds of the DREAM fabric instance.
    #[must_use]
    pub fn dream() -> Self {
        AnalysisParams::for_fabric(&PicogaParams::dream())
    }
}

/// The successful result of [`check_config`].
#[derive(Debug, Clone)]
pub struct ConfigAnalysis {
    /// The linearity certificate (always affine on the `Ok` path).
    pub cert: LinearityCert,
    /// Per-cell classification, indexed by cell.
    pub classes: Vec<CellClass>,
    /// The static timing/resource report.
    pub timing: StaticTiming,
    /// Warning-severity findings (dead cells, …).
    pub report: AnalysisReport,
}

/// Runs the linearity prover and the timing analyzer over one
/// configuration and applies the fabric bounds.
///
/// # Errors
///
/// [`AnalyzeError`] when any error-severity finding fires: a non-affine
/// output, pipeline depth over the row budget, row pressure over the
/// usable width, or fan-out over the routing bound. The error's report also
/// carries any warnings, so one failure shows the whole picture.
pub fn check_config(
    cfg: &FabricConfig,
    params: &AnalysisParams,
) -> Result<ConfigAnalysis, AnalyzeError> {
    let (cert, classes) = certify(cfg);
    let timing = analyze_timing(cfg);
    let mut findings = Vec::new();

    if !cert.affine {
        findings.push(Finding {
            code: AnalyzeCode::NonAffineOutput,
            cell: None,
            message: format!(
                "'{}' is {}; the zero+basis stuck-at probe cannot certify this lane",
                cfg.name(),
                cert.summary()
            ),
        });
    }
    if timing.rows_used > params.max_rows {
        findings.push(Finding {
            code: AnalyzeCode::DepthOverRows,
            cell: None,
            message: format!(
                "uses {} rows; the fabric has {}",
                timing.rows_used, params.max_rows
            ),
        });
    }
    if timing.max_row_pressure > params.max_row_pressure {
        findings.push(Finding {
            code: AnalyzeCode::RegisterPressure,
            cell: None,
            message: format!(
                "row pressure {} exceeds usable row width {}",
                timing.max_row_pressure, params.max_row_pressure
            ),
        });
    }
    if timing.max_fanout > params.max_fanout {
        findings.push(Finding {
            code: AnalyzeCode::FanoutExceeded,
            cell: None,
            message: format!(
                "fan-out {} exceeds routing bound {}",
                timing.max_fanout, params.max_fanout
            ),
        });
    }
    for &cell in &timing.dead_cells {
        findings.push(Finding {
            code: AnalyzeCode::DeadCell,
            cell: Some(cell),
            message: format!("cell {cell} reaches no primary output"),
        });
    }

    let report = AnalysisReport {
        subject: cfg.name().to_string(),
        findings,
    };
    if report.is_clean() {
        Ok(ConfigAnalysis {
            cert,
            classes,
            timing,
            report,
        })
    } else {
        Err(AnalyzeError { report })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CellFunc;

    fn xor_chain(rows: usize) -> FabricConfig {
        let mut cfg = FabricConfig::new("chain", 2);
        let mut s = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
        for r in 1..rows {
            s = cfg.add_cell(r, vec![s, 0], CellFunc::Xor { invert: false });
        }
        cfg.add_output(Some(s));
        cfg
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let strs: Vec<&str> = AnalyzeCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs, ["AZ002", "AZ003", "AZ004", "AZ005", "AZ006"]);
        for c in AnalyzeCode::ALL {
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn clean_affine_config_passes() {
        let a = check_config(&xor_chain(3), &AnalysisParams::dream()).expect("clean");
        assert!(a.cert.affine);
        assert!(a.report.is_clean());
        assert_eq!(a.timing.rows_used, 3);
    }

    #[test]
    fn depth_over_rows_is_rejected() {
        let params = AnalysisParams {
            max_rows: 4,
            ..AnalysisParams::dream()
        };
        let err = check_config(&xor_chain(5), &params).unwrap_err();
        assert_eq!(err.report.findings[0].code, AnalyzeCode::DepthOverRows);
    }

    #[test]
    fn row_pressure_and_fanout_bounds_fire() {
        let mut cfg = FabricConfig::new("wide", 2);
        let mut outs = Vec::new();
        for _ in 0..3 {
            outs.push(cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false }));
        }
        for s in outs {
            cfg.add_output(Some(s));
        }
        let params = AnalysisParams {
            max_row_pressure: 2,
            max_fanout: 2,
            ..AnalysisParams::dream()
        };
        let err = check_config(&cfg, &params).unwrap_err();
        let codes: Vec<AnalyzeCode> = err.report.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&AnalyzeCode::RegisterPressure));
        assert!(codes.contains(&AnalyzeCode::FanoutExceeded), "{codes:?}");
    }

    #[test]
    fn dead_cell_is_a_warning_not_an_error() {
        let mut cfg = FabricConfig::new("dead", 2);
        let a = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
        let _dead = cfg.add_cell(0, vec![0], CellFunc::Xor { invert: false });
        cfg.add_output(Some(a));
        let a = check_config(&cfg, &AnalysisParams::dream()).expect("warnings do not reject");
        assert_eq!(a.report.warnings(), 1);
        assert_eq!(a.report.findings[0].code, AnalyzeCode::DeadCell);
        assert!(a.report.is_clean());
    }
}
