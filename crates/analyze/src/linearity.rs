//! The linearity/affineness prover: abstract interpretation of a
//! [`FabricConfig`] over the domain of GF(2) affine forms.
//!
//! Every signal is assigned an *affine form* `c ⊕ ⟨support, x⟩` (a
//! constant bit plus an XOR of primary inputs). The IR's only cell kind
//! is an XOR fold, optionally complemented, and its transfer function
//! on affine forms is exact: XOR the fan-in forms and flip the constant
//! when the cell inverts. Folding the forms through the topologically
//! ordered cells therefore computes each primary output's exact affine
//! map, so the certificate's matrix and offset *are* the configuration
//! (`cfg.evaluate(x) == matrix·x ⊕ offset`). That identity is exactly the
//! precondition of the affine-complete stuck-at probe
//! (`PicogaSim::affine_probe` sweeps the zero vector plus the input
//! basis — a complete check *only* for affine functions).
//!
//! The certificate still carries an explicit [`LinearityCert::affine`]
//! verdict: certificates are attached to personalities, cloned and
//! merged across crates, and every consumer re-checks the flag rather
//! than trusting where a certificate came from.

use crate::ir::{CellFunc, FabricConfig};
use gf2::{BitMat, BitVec};
use std::fmt;

/// Per-cell classification by the dataflow value the cell produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// A pure XOR of primary inputs (no constant term).
    Linear,
    /// Linear plus the constant 1.
    Affine,
}

impl fmt::Display for CellClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CellClass::Linear => "linear",
            CellClass::Affine => "affine",
        })
    }
}

/// An affine form over the primary inputs: `constant ⊕ ⟨support, x⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineForm {
    /// Which primary inputs participate.
    pub support: BitVec,
    /// The GF(2) constant term.
    pub constant: bool,
}

impl AffineForm {
    fn input(i: usize, n: usize) -> Self {
        AffineForm {
            support: BitVec::unit(i, n),
            constant: false,
        }
    }

    fn xor_assign(&mut self, other: &AffineForm) {
        self.support.xor_assign(&other.support);
        self.constant ^= other.constant;
    }
}

/// The prover's verdict for one configuration: the per-lane certificate
/// that [`check_config`](crate::check_config) emits and the runtime's
/// datapath-probe sites consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinearityCert {
    /// What was certified (op or lane name).
    pub subject: String,
    /// Every primary output is an affine function of the inputs — the
    /// soundness precondition of the affine-complete stuck-at probe.
    pub affine: bool,
    /// Every primary output is linear (affine with zero offset).
    pub linear: bool,
    /// Cells whose dataflow value is linear.
    pub n_linear: usize,
    /// Cells whose dataflow value carries a constant term.
    pub n_affine: usize,
    /// The proven linear map (output rows over input columns), present
    /// on certificates [`certify`] issues.
    pub matrix: Option<BitMat>,
    /// The proven constant offset per output, present alongside
    /// `matrix`.
    pub offset: Option<BitVec>,
}

impl LinearityCert {
    /// Merges per-op certificates into one lane certificate: the lane
    /// is affine iff every op is. Matrix/offset are dropped (the ops
    /// have different shapes); counts accumulate.
    #[must_use]
    pub fn merge(subject: impl Into<String>, parts: &[LinearityCert]) -> LinearityCert {
        LinearityCert {
            subject: subject.into(),
            affine: parts.iter().all(|p| p.affine),
            linear: parts.iter().all(|p| p.linear),
            n_linear: parts.iter().map(|p| p.n_linear).sum(),
            n_affine: parts.iter().map(|p| p.n_affine).sum(),
            matrix: None,
            offset: None,
        }
    }

    /// One-line summary for diagnostics.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "'{}': {} ({} linear / {} affine cells)",
            self.subject,
            if self.affine {
                "affine — basis probe complete"
            } else {
                "NOT affine — basis probe unsound"
            },
            self.n_linear,
            self.n_affine
        )
    }
}

/// Runs the abstract interpretation and returns the certificate plus
/// the per-cell classes (index = cell).
#[must_use]
pub fn certify(cfg: &FabricConfig) -> (LinearityCert, Vec<CellClass>) {
    let n = cfg.n_inputs();
    let mut forms: Vec<AffineForm> = (0..n).map(|i| AffineForm::input(i, n)).collect();
    let mut classes = Vec::with_capacity(cfg.cells().len());
    for cell in cfg.cells() {
        let CellFunc::Xor { invert } = cell.func;
        let mut acc = AffineForm {
            support: BitVec::zeros(n),
            constant: invert,
        };
        for &s in &cell.inputs {
            acc.xor_assign(&forms[s]);
        }
        classes.push(if acc.constant {
            CellClass::Affine
        } else {
            CellClass::Linear
        });
        forms.push(acc);
    }

    let mut rows = Vec::with_capacity(cfg.outputs().len());
    let mut offset = BitVec::zeros(cfg.outputs().len());
    for (oi, tap) in cfg.outputs().iter().enumerate() {
        match tap {
            None => rows.push(BitVec::zeros(n)),
            Some(s) => {
                rows.push(forms[*s].support.clone());
                offset.set(oi, forms[*s].constant);
            }
        }
    }
    let n_affine = classes.iter().filter(|c| **c == CellClass::Affine).count();
    let cert = LinearityCert {
        subject: cfg.name().to_string(),
        affine: true,
        linear: offset.is_zero(),
        n_linear: classes.len() - n_affine,
        n_affine,
        matrix: Some(BitMat::from_rows(rows)),
        offset: Some(offset),
    };
    (cert, classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CellFunc, FabricConfig};

    #[test]
    fn xor_network_certifies_linear_and_matches_matrix() {
        let mut cfg = FabricConfig::new("xors", 4);
        let a = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
        let b = cfg.add_cell(0, vec![2, 3], CellFunc::Xor { invert: false });
        let c = cfg.add_cell(1, vec![a, b], CellFunc::Xor { invert: false });
        cfg.add_output(Some(c));
        cfg.add_output(Some(a));
        let (cert, classes) = certify(&cfg);
        assert!(cert.affine && cert.linear);
        assert_eq!(classes, vec![CellClass::Linear; 3]);
        let m = cert.matrix.as_ref().unwrap();
        // Row 0 = parity of all four inputs, row 1 = i0^i1.
        for i in 0..4 {
            assert!(m.get(0, i));
        }
        assert!(m.get(1, 0) && m.get(1, 1) && !m.get(1, 2));
        assert_eq!(cert.offset.as_ref().unwrap().count_ones(), 0);
    }

    #[test]
    fn xnor_is_affine_not_linear() {
        let mut cfg = FabricConfig::new("xnor", 2);
        let a = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: true });
        cfg.add_output(Some(a));
        let (cert, classes) = certify(&cfg);
        assert!(cert.affine && !cert.linear);
        assert_eq!(classes, vec![CellClass::Affine]);
        assert!(cert.offset.as_ref().unwrap().get(0));
    }

    #[test]
    fn certificate_matrix_matches_evaluation() {
        use gf2::BitVec;
        let mut cfg = FabricConfig::new("check", 5);
        let a = cfg.add_cell(0, vec![0, 2, 4], CellFunc::Xor { invert: true });
        let b = cfg.add_cell(0, vec![1, 3], CellFunc::Xor { invert: false });
        let c = cfg.add_cell(1, vec![a, b], CellFunc::Xor { invert: false });
        cfg.add_output(Some(c));
        cfg.add_output(Some(b));
        let (cert, _) = certify(&cfg);
        let m = cert.matrix.unwrap();
        let off = cert.offset.unwrap();
        for pat in 0..32u64 {
            let x = BitVec::from_u64(pat, 5);
            let mut want = m.mul_vec(&x);
            want.xor_assign(&off);
            assert_eq!(cfg.evaluate(&x), want, "pattern {pat:05b}");
        }
    }

    #[test]
    fn merge_produces_lane_verdict() {
        let mut ok = FabricConfig::new("u", 2);
        let g = ok.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
        ok.add_output(Some(g));
        let (cu, _) = certify(&ok);
        // A doctored certificate: the prover never issues a non-affine
        // one, but merged lane verdicts must still honour the flag.
        let cf = LinearityCert {
            affine: false,
            linear: false,
            matrix: None,
            offset: None,
            ..cu.clone()
        };
        let lane = LinearityCert::merge("lane", &[cu.clone(), cf]);
        assert!(!lane.affine);
        assert!(LinearityCert::merge("lane2", &[cu.clone(), cu]).affine);
        assert!(lane.summary().contains("unsound"));
    }
}
