//! # fabric-lint — static verification of synthesized fabric mappings
//!
//! The synthesis flow turns GF(2) matrices (`B_Mt`, `T`, stacked
//! scrambler matrices) into XOR networks and places them on the PiCoGA
//! model. This crate proves and polices those artifacts *before* they
//! run:
//!
//! * [`check_network`] — a symbolic GF(2) **equivalence checker**: an
//!   XOR network is linear, so probing its gate-order evaluator with
//!   every input basis vector (64 per pass) is a complete proof that the
//!   configuration computes `y = M·x` for its source matrix. Rejections
//!   are localised to the offending output rows and input columns
//!   (`FL000`). The physical path (placement order, stuck cells) is
//!   proved separately, by `picoga::PicogaSim::affine_probe`.
//! * [`lint_network`] / [`lint_operation`] / [`lint_context_demand`] —
//!   a **structural linter** with stable codes `FL001`–`FL012`: dead
//!   gates, missed sharing, buffer chains, cell fan-in violations,
//!   row/cell/I-O budget violations and saturation, non-companion
//!   feedback (II = latency), wavefront hazards in the row placement,
//!   configuration-cache overflow on a shared fabric, routing fan-out
//!   violations, critical-path depth over the row budget, placed dead
//!   cells, and duplicate taps that cancel in GF(2).
//! * [`Diagnostic`] / [`Report`] / [`LintConfig`] — the diagnostics
//!   layer: coded findings with intrinsic severities, per-code
//!   allow/warn/deny/keep levels, and a rendered text report.
//!
//! [`verify_mapping`] bundles the checker and the linter into the one
//! call the mapping flow's strict mode uses per operation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod equiv;
mod lint;

pub use diag::{Code, Diagnostic, LintConfig, LintLevel, Location, Report, Severity, VerifyError};
pub use equiv::{check_network, EquivError, RowMismatch};
pub use lint::{
    lint_context_demand, lint_network, lint_operation, lint_placed_network, ROW_SATURATION_WARN_PCT,
};

use gf2::BitMat;
use picoga::{PgaOperation, PicogaParams};

/// Verifies one placed operation end to end: proves the operation's
/// network equivalent to `expected` (its source matrix) and runs every
/// structural lint against `params`.
///
/// `config` re-levels or silences the structural lints; equivalence
/// failures (`FL000`) are always reported at `Error` severity — a
/// network that computes the wrong function cannot be configured into
/// acceptability.
#[must_use]
pub fn verify_mapping(
    op: &PgaOperation,
    expected: &BitMat,
    params: &PicogaParams,
    config: &LintConfig,
) -> Report {
    let mut report = Report::new();
    if let Err(e) = check_network(op.network(), expected) {
        report.diagnostics.extend(e.diagnostics());
    }
    let lints = lint_operation(op, params);
    report.diagnostics.extend(config.apply(lints.diagnostics));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::Gf2Poly;
    use xornet::{synthesize, SynthOptions};

    #[test]
    fn verify_mapping_accepts_a_correct_op_and_rejects_a_wrong_matrix() {
        let params = PicogaParams::dream();
        let t = BitMat::companion(&Gf2Poly::from_crc_notation(0x1021, 16)).pow(9);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params).unwrap();

        let clean = verify_mapping(&op, &t, &params, &LintConfig::keep_all());
        assert!(!clean.has_errors(), "{}", clean.render());

        let mut wrong = t.clone();
        wrong.set(3, 3, !wrong.get(3, 3));
        let report = verify_mapping(&op, &wrong, &params, &LintConfig::keep_all());
        assert!(report.has_errors());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::NonEquivalent));
    }

    #[test]
    fn equivalence_errors_survive_allow_all() {
        let params = PicogaParams::dream();
        let t = BitMat::identity(8);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("id", net, &params).unwrap();
        let mut wrong = t;
        wrong.set(0, 1, true);
        let report = verify_mapping(&op, &wrong, &params, &LintConfig::allow_all());
        assert!(report.has_errors(), "FL000 is not configurable");
    }
}
