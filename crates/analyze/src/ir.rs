//! The shared analysis IR: a placed fabric configuration.
//!
//! The synthesis flow emits pure XOR networks ([`xornet::XorNetwork`])
//! and maps each gate onto one PiCoGA cell's XOR facility. That is the
//! only cell kind the flow produces, so it is the only kind the IR
//! models: every cell is an XOR fold over its fan-in, optionally
//! complemented (XNOR), placed in a physical row. [`FabricConfig`] is
//! the common ground of the linearity prover and the timing analyzer.
//!
//! Signal numbering follows `xornet`: signals `0..n_inputs` are primary
//! inputs, signal `n_inputs + i` is the output of cell `i`. Cells are
//! stored in topological order (a cell may only read earlier signals),
//! which [`FabricConfig::add_cell`] enforces at construction.

use gf2::BitVec;
use picoga::PgaOperation;

/// A signal index: primary inputs first, then one signal per cell.
pub type SignalId = usize;

/// What a configured cell computes from its fan-in signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellFunc {
    /// XOR of all fan-in signals; `invert` complements the result
    /// (XNOR — affine with constant 1). Fan-in may go up to the cell's
    /// 10-bit XOR facility.
    Xor {
        /// Complement the XOR (adds the GF(2) constant 1).
        invert: bool,
    },
}

/// One configured cell: its fan-in signals, its function, and the
/// physical row it is placed in (`None` for unplaced logic, which the
/// timing analyzer reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellIr {
    /// Fan-in signals, in pin order.
    pub inputs: Vec<SignalId>,
    /// The configured function.
    pub func: CellFunc,
    /// Physical pipeline row, if placed.
    pub row: Option<usize>,
}

/// A whole fabric configuration: the unit the analyzers certify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricConfig {
    name: String,
    n_inputs: usize,
    cells: Vec<CellIr>,
    outputs: Vec<Option<SignalId>>,
    /// Rows the feedback loop spans per issue: `Some(1)` for companion
    /// feedback (II = 1), `Some(rows)` for the dense fallback
    /// (II = latency), `None` for feed-forward operations.
    loop_rows: Option<usize>,
}

impl FabricConfig {
    /// An empty configuration reading `n_inputs` primary inputs.
    #[must_use]
    pub fn new(name: impl Into<String>, n_inputs: usize) -> Self {
        FabricConfig {
            name: name.into(),
            n_inputs,
            cells: Vec::new(),
            outputs: Vec::new(),
            loop_rows: None,
        }
    }

    /// Lifts a placed PGA operation into the IR: every XOR gate becomes
    /// an `Xor` cell in its placed row, and the operation kind sets the
    /// feedback loop span (1 row for companion feedback, all rows for
    /// the dense fallback).
    #[must_use]
    pub fn from_op(op: &PgaOperation) -> Self {
        let net = op.network();
        let placement = op.placement();
        let stats = op.stats();
        let cells = net
            .gates()
            .iter()
            .enumerate()
            .map(|(gi, g)| CellIr {
                inputs: g.inputs.clone(),
                func: CellFunc::Xor { invert: false },
                row: placement.row_of(gi),
            })
            .collect();
        let loop_rows = if op.is_crc_update() || op.scrambler_m().is_some() {
            Some(1)
        } else if op.dense_update_k().is_some() {
            Some(stats.rows.max(1))
        } else {
            None
        };
        FabricConfig {
            name: op.name().to_string(),
            n_inputs: net.n_inputs(),
            cells,
            outputs: net.outputs().to_vec(),
            loop_rows,
        }
    }

    /// Adds a cell in `row` computing `func` over `inputs`; returns its
    /// output signal.
    ///
    /// # Panics
    ///
    /// When an input references a not-yet-defined signal (the IR is
    /// topological by construction).
    pub fn add_cell(&mut self, row: usize, inputs: Vec<SignalId>, func: CellFunc) -> SignalId {
        let next = self.n_inputs + self.cells.len();
        for &s in &inputs {
            assert!(s < next, "cell input {s} is not yet defined");
        }
        self.cells.push(CellIr {
            inputs,
            func,
            row: Some(row),
        });
        next
    }

    /// Appends a primary output tapping `signal` (`None` = constant 0).
    pub fn add_output(&mut self, signal: Option<SignalId>) {
        if let Some(s) = signal {
            assert!(s < self.n_signals(), "output taps undefined signal {s}");
        }
        self.outputs.push(signal);
    }

    /// Declares how many rows the feedback loop spans per issue.
    pub fn set_loop_rows(&mut self, rows: Option<usize>) {
        self.loop_rows = rows;
    }

    /// The configuration's name (the op name for lifted configs).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// The configured cells, topologically ordered.
    #[must_use]
    pub fn cells(&self) -> &[CellIr] {
        &self.cells
    }

    /// Primary output taps.
    #[must_use]
    pub fn outputs(&self) -> &[Option<SignalId>] {
        &self.outputs
    }

    /// Total signal count (inputs + cells).
    #[must_use]
    pub fn n_signals(&self) -> usize {
        self.n_inputs + self.cells.len()
    }

    /// Feedback loop span in rows, when the config closes a loop.
    #[must_use]
    pub fn loop_rows(&self) -> Option<usize> {
        self.loop_rows
    }

    /// Evaluates the configuration as a combinational function (the
    /// reference semantics the linearity certificate is checked
    /// against in tests).
    ///
    /// # Panics
    ///
    /// When `inputs.len() != n_inputs`.
    #[must_use]
    pub fn evaluate(&self, inputs: &BitVec) -> BitVec {
        assert_eq!(inputs.len(), self.n_inputs);
        let mut values = vec![false; self.n_signals()];
        for (i, v) in values.iter_mut().enumerate().take(self.n_inputs) {
            *v = inputs.get(i);
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            let CellFunc::Xor { invert } = cell.func;
            values[self.n_inputs + ci] = cell.inputs.iter().fold(invert, |acc, &s| acc ^ values[s]);
        }
        let mut out = BitVec::zeros(self.outputs.len());
        for (oi, tap) in self.outputs.iter().enumerate() {
            if let Some(s) = tap {
                out.set(oi, values[*s]);
            }
        }
        out
    }

    /// Which signals reach a primary output (transitive fan-in of the
    /// taps). Index = signal id.
    #[must_use]
    pub fn live_signals(&self) -> Vec<bool> {
        let mut live = vec![false; self.n_signals()];
        let mut stack: Vec<SignalId> = self.outputs.iter().flatten().copied().collect();
        while let Some(s) = stack.pop() {
            if live[s] {
                continue;
            }
            live[s] = true;
            if s >= self.n_inputs {
                stack.extend(self.cells[s - self.n_inputs].inputs.iter().copied());
            }
        }
        live
    }

    /// Fan-out count per signal (output taps count once each).
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_signals()];
        for cell in &self.cells {
            for &s in &cell.inputs {
                counts[s] += 1;
            }
        }
        for tap in self.outputs.iter().flatten() {
            counts[*tap] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_evaluates_mixed_cells() {
        let mut cfg = FabricConfig::new("mixed", 3);
        let x = cfg.add_cell(0, vec![0, 1], CellFunc::Xor { invert: false });
        let a = cfg.add_cell(1, vec![x, 2], CellFunc::Xor { invert: true });
        cfg.add_output(Some(a));
        cfg.add_output(None);
        // out0 = !(i0 ^ i1 ^ i2).
        for pat in 0..8u64 {
            let inp = BitVec::from_u64(pat, 3);
            let expect = pat.count_ones() % 2 == 0;
            let got = cfg.evaluate(&inp);
            assert_eq!(got.get(0), expect, "pattern {pat:03b}");
            assert!(!got.get(1));
        }
        assert_eq!(cfg.fanout_counts(), vec![1, 1, 1, 1, 1]);
        assert_eq!(cfg.live_signals(), vec![true; 5]);
    }
}
