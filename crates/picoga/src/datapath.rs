//! Word-level evaluation of a placed XOR network.
//!
//! The fabric's cells are XOR gates, so whatever a placed network computes
//! — faults included — is an affine map of its inputs. [`Datapath`]
//! compiles that map once per simulator call into one `u64` input mask
//! and one constant bit per output (the per-output mask tables a parallel
//! LFSR in hardware is built from); every block is then evaluated as
//! `parity(mask_i & x) ^ const_i`, with no per-gate work.

use crate::op::Placement;
use gf2::BitVec;
use xornet::XorNetwork;

/// The affine map a placed network physically computes.
pub(crate) struct Datapath {
    /// `u64` words per input vector.
    words: usize,
    /// Output `i`'s input mask is `masks[i * words..(i + 1) * words]`.
    masks: Vec<u64>,
    /// Output `i`'s constant term.
    consts: BitVec,
}

impl Datapath {
    /// Compiles `net` as placed by `placement`, with the physical
    /// stuck-at cells `stuck` (`(row, cell, value)`) in force.
    ///
    /// The symbolic pass visits the gates in placement row order, cell by
    /// cell, exactly as the pipeline computes them. That order is not
    /// immaterial: a wire flip may redirect a pin to any *earlier signal
    /// id*, and that signal can be placed in a later row (or later in the
    /// same row). Such a pin reads 0, the value of a cell the wavefront
    /// has not reached yet, so the physical function can differ from
    /// [`XorNetwork::evaluate`], which follows gate-id order. A stuck
    /// cell forces its gate to a constant (the first fault listed for a
    /// gate wins); cells holding no gate of this operation are harmless.
    /// A tapped-off output (`None`) is the constant 0.
    pub(crate) fn compile(
        net: &XorNetwork,
        placement: &Placement,
        stuck: &[(usize, usize, bool)],
    ) -> Datapath {
        let n = net.n_inputs();
        let words = n.div_ceil(64);
        let mut forced = vec![None; net.gate_count()];
        for &(row, cell, value) in stuck {
            if let Some(&gi) = placement.rows().get(row).and_then(|r| r.get(cell)) {
                forced[gi].get_or_insert(value);
            }
        }
        // Symbolic value of every signal, in the same layout as `masks`;
        // a signal not evaluated yet is the constant 0.
        let mut sig = vec![0u64; net.n_signals() * words];
        let mut sig_const = vec![false; net.n_signals()];
        for i in 0..n {
            sig[i * words + i / 64] = 1 << (i % 64);
        }
        for &gi in placement.rows().iter().flatten() {
            let s = n + gi;
            // Fan-ins are earlier signal ids, so they sit below `s`.
            let (earlier, rest) = sig.split_at_mut(s * words);
            let mask = &mut rest[..words];
            mask.fill(0);
            let mut c = false;
            if let Some(value) = forced[gi] {
                c = value;
            } else {
                for &f in &net.gates()[gi].inputs {
                    for (m, e) in mask.iter_mut().zip(&earlier[f * words..]) {
                        *m ^= e;
                    }
                    c ^= sig_const[f];
                }
            }
            sig_const[s] = c;
        }
        let outputs = net.outputs();
        let mut masks = Vec::with_capacity(outputs.len() * words);
        let mut consts = BitVec::zeros(outputs.len());
        for (i, o) in outputs.iter().enumerate() {
            match *o {
                Some(s) => {
                    masks.extend_from_slice(&sig[s * words..(s + 1) * words]);
                    consts.set(i, sig_const[s]);
                }
                None => masks.resize(masks.len() + words, 0),
            }
        }
        Datapath {
            words,
            masks,
            consts,
        }
    }

    /// Output `i`'s input mask, as `ceil(n_inputs / 64)` LSB-first words.
    pub(crate) fn mask(&self, i: usize) -> &[u64] {
        &self.masks[i * self.words..(i + 1) * self.words]
    }

    /// The constant term of every output (the response to the zero input).
    pub(crate) fn consts(&self) -> &BitVec {
        &self.consts
    }

    /// Evaluates one issue: output `i` is `parity(mask_i & x) ^ const_i`.
    pub(crate) fn eval(&self, x: &BitVec) -> BitVec {
        let x = x.words();
        let mut out = self.consts.words().to_vec();
        for i in 0..self.consts.len() {
            let acc = self.mask(i).iter().zip(x).fold(0, |a, (m, w)| a ^ (m & w));
            out[i / 64] ^= u64::from(acc.count_ones() & 1) << (i % 64);
        }
        BitVec::from_words(out, self.consts.len())
    }
}
