//! The fabric simulator's word-level datapath against an independent
//! bit-level oracle.
//!
//! The simulator compiles each placed operation into one input mask and
//! one constant per output and evaluates every block as mask parities.
//! The oracle here is the plain row-order evaluator: it walks the
//! placement row by row, XORs every gate's fan-in bits, forces stuck
//! cells and taps the outputs, one `bool` per signal. Both must agree on
//! every flow-built operation at M ∈ {8, 32, 128}, on the scrambler and
//! on a dense look-ahead update, clean and under stuck cells, wire flips
//! and tap flips; and the datapath probe must return the verdict of the
//! zero + basis sweep run through the oracle.

use picolfsr::flow::{build_personality, build_scrambler_personality, FlowOptions};
use picolfsr::gf2::BitVec;
use picolfsr::lfsr::crc::CrcSpec;
use picolfsr::lfsr::scramble::ScramblerSpec;
use picolfsr::lfsr::StateSpaceLfsr;
use picolfsr::parallel::BlockSystem;
use picolfsr::picoga::{
    CompanionFeedback, ConfigFault, PgaOperation, PicogaParams, PicogaSim, Placement,
};
use picolfsr::xornet::{synthesize, SynthOptions, XorNetwork};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Evaluates the gates of `net` row by row following `placement`, from
/// the primary input values, and returns every signal value. A signal
/// not evaluated yet reads 0; `stuck` (gate index → forced value, first
/// entry wins) overrides a gate's XOR.
fn eval_by_rows(
    net: &XorNetwork,
    placement: &Placement,
    inputs: &BitVec,
    stuck: &[(usize, bool)],
) -> Vec<bool> {
    let mut values = vec![false; net.n_signals()];
    for (i, v) in values.iter_mut().enumerate().take(net.n_inputs()) {
        *v = inputs.get(i);
    }
    for row in placement.rows() {
        for &gi in row {
            let g = &net.gates()[gi];
            let mut v = g.inputs.iter().fold(false, |acc, &s| acc ^ values[s]);
            if let Some(&(_, forced)) = stuck.iter().find(|&&(sg, _)| sg == gi) {
                v = forced;
            }
            values[net.n_inputs() + gi] = v;
        }
    }
    values
}

/// Resolves physical stuck-cell coordinates to gate indices.
fn stuck_gates(stuck: &[(usize, usize, bool)], placement: &Placement) -> Vec<(usize, bool)> {
    stuck
        .iter()
        .filter_map(|&(row, cell, value)| {
            placement
                .rows()
                .get(row)
                .and_then(|r| r.get(cell))
                .map(|&gi| (gi, value))
        })
        .collect()
}

/// Taps the outputs (`None` = constant 0).
fn outputs_from(net: &XorNetwork, values: &[bool]) -> BitVec {
    BitVec::from_bits(net.outputs().iter().map(|o| o.is_some_and(|s| values[s])))
}

/// One issue of `op` through the oracle.
fn reference(op: &PgaOperation, stuck: &[(usize, usize, bool)], inputs: &BitVec) -> BitVec {
    let placement = op.placement();
    let values = eval_by_rows(
        op.network(),
        placement,
        inputs,
        &stuck_gates(stuck, placement),
    );
    outputs_from(op.network(), &values)
}

/// `x′ = A_Mt·x ⊕ p`, bit by bit.
fn feedback_ref(fb: &CompanionFeedback, x: &BitVec, p: &BitVec) -> BitVec {
    let top = x.get(fb.k - 1);
    BitVec::from_bits((0..fb.k).map(|i| {
        let shifted = i > 0 && x.get(i - 1);
        p.get(i) ^ shifted ^ (top && fb.g_col.get(i))
    }))
}

/// The zero + basis sweep through the oracle, against the resident
/// configuration's matrix.
fn basis_sweep_ref(op: &PgaOperation, stuck: &[(usize, usize, bool)]) -> bool {
    let net = op.network();
    let n = net.n_inputs();
    let expected = net.to_matrix();
    if !reference(op, stuck, &BitVec::zeros(n)).is_zero() {
        return false;
    }
    (0..n).all(|i| reference(op, stuck, &BitVec::unit(i, n)) == expected.column(i))
}

/// Every operation under test, built once.
fn ops() -> &'static [(String, PgaOperation)] {
    static OPS: OnceLock<Vec<(String, PgaOperation)>> = OnceLock::new();
    OPS.get_or_init(|| {
        let eth = CrcSpec::crc32_ethernet();
        let mut ops = Vec::new();
        for m in [8usize, 32, 128] {
            let p = build_personality("eth", eth, &FlowOptions::dream_with_m(m)).unwrap();
            ops.push((format!("update/{m}"), p.update));
            ops.push((
                format!("finalize/{m}"),
                p.finalize.expect("Derby personality"),
            ));
        }
        let wifi = build_scrambler_personality(
            "wifi",
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(16),
        )
        .unwrap();
        ops.push(("scrambler/16".into(), wifi.op));
        // The dense look-ahead fallback, built directly (the flow only
        // takes it when Derby's transform does not exist).
        let serial = StateSpaceLfsr::crc(&eth.generator()).unwrap();
        let block = BlockSystem::new(&serial, 8).unwrap();
        let net = synthesize(&block.a_m().hstack(block.b_m()), SynthOptions::default());
        let dense = PgaOperation::crc_update_dense("dense", net, 32, &PicogaParams::dream());
        ops.push(("dense/8".into(), dense.unwrap()));
        ops
    })
}

/// Deterministic xorshift draws for one case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bits(&mut self, len: usize) -> BitVec {
        BitVec::from_bits((0..len).map(|_| self.next() & 1 == 1))
    }
}

/// A fabric with `op` resident and active in slot 0.
fn fabric_with(op: &PgaOperation) -> PicogaSim {
    let mut sim = PicogaSim::new(PicogaParams::dream());
    sim.load_context(0, op.clone()).unwrap();
    sim.switch_to(0).unwrap();
    sim
}

/// Pushes three random blocks through the resident operation and checks
/// the result, and the probe verdict, against the oracle.
fn check_against_oracle(sim: &mut PicogaSim, d: &mut Draw, name: &str) {
    let op = sim.context(0).expect("resident").clone();
    let stuck = sim.stuck_cells().to_vec();
    let n = op.network().n_inputs();
    if op.is_linear() {
        let x = d.bits(n);
        assert_eq!(
            sim.run_linear(&x).unwrap(),
            reference(&op, &stuck, &x),
            "{name}"
        );
    } else if let Some(k) = op.dense_update_k() {
        let blocks: Vec<BitVec> = (0..3).map(|_| d.bits(n - k)).collect();
        let x0 = d.bits(k);
        let mut expect = x0.clone();
        for b in &blocks {
            expect = reference(&op, &stuck, &expect.concat(b));
        }
        let got = sim.run_crc_stream_dense(&x0, blocks.iter()).unwrap();
        assert_eq!(got, expect, "{name}");
    } else if let Some(m) = op.scrambler_m() {
        let fb = op.feedback().unwrap();
        let blocks: Vec<BitVec> = (0..3).map(|_| d.bits(m)).collect();
        let x0 = d.bits(fb.k);
        let (mut state, mut out) = (x0.clone(), BitVec::zeros(0));
        for b in &blocks {
            out = out.concat(&reference(&op, &stuck, &state.concat(b)));
            state = feedback_ref(fb, &state, &BitVec::zeros(fb.k));
        }
        let got = sim.run_scrambler_stream(&x0, blocks.iter()).unwrap();
        assert_eq!(got, (out, state), "{name}");
    } else {
        let fb = op.feedback().unwrap();
        let blocks: Vec<BitVec> = (0..3).map(|_| d.bits(n)).collect();
        let x0 = d.bits(fb.k);
        let mut expect = x0.clone();
        for b in &blocks {
            expect = feedback_ref(fb, &expect, &reference(&op, &stuck, b));
        }
        let got = sim.run_crc_stream(&x0, blocks.iter()).unwrap();
        assert_eq!(got, expect, "{name}");
        // The interleaved path shares the datapath across lanes.
        let mut lanes = vec![x0.clone(), expect.clone()];
        sim.run_crc_interleaved(&mut lanes, blocks.iter().map(|b| (0, b)))
            .unwrap();
        assert_eq!(lanes, vec![expect.clone(), expect], "{name}");
    }
    assert_eq!(
        sim.affine_probe().unwrap(),
        basis_sweep_ref(&op, &stuck),
        "{name}: probe verdict"
    );
}

/// Placed row of every gate.
fn rows_of(placement: &Placement, gates: usize) -> Vec<usize> {
    let mut row_of = vec![usize::MAX; gates];
    for (r, row) in placement.rows().iter().enumerate() {
        for &gi in row {
            row_of[gi] = r;
        }
    }
    row_of
}

/// A random wire flip; on odd draws, one whose new source is a gate with
/// a smaller id placed in a strictly later row (when the op has one).
fn wire_flip(op: &PgaOperation, d: &mut Draw) -> ConfigFault {
    let net = op.network();
    let n = net.n_inputs();
    let row_of = rows_of(op.placement(), net.gate_count());
    let later: Vec<(usize, usize)> = (0..net.gate_count())
        .flat_map(|g| (0..g).map(move |h| (g, h)))
        .filter(|&(g, h)| row_of[h] > row_of[g])
        .collect();
    let (gate, new_signal) = if d.next() & 1 == 1 && !later.is_empty() {
        let (g, h) = later[d.below(later.len())];
        (g, n + h)
    } else {
        let g = d.below(net.gate_count());
        (g, d.below(n + g))
    };
    ConfigFault::WireFlip {
        slot: 0,
        gate,
        pin: d.below(net.gates()[gate].inputs.len()),
        new_signal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn clean_datapath_matches_oracle(seed in any::<u64>()) {
        let mut d = Draw(seed | 1);
        for (name, op) in ops() {
            check_against_oracle(&mut fabric_with(op), &mut d, name);
        }
    }

    #[test]
    fn stuck_cells_match_oracle(seed in any::<u64>()) {
        let mut d = Draw(seed | 1);
        for (name, op) in ops() {
            let mut sim = fabric_with(op);
            let rows = op.placement().rows();
            for _ in 0..=d.below(3) {
                let row = d.below(rows.len());
                let fault = ConfigFault::StuckCell {
                    row,
                    cell: d.below(rows[row].len()),
                    value: d.next() & 1 == 1,
                };
                sim.inject(&fault).unwrap();
            }
            check_against_oracle(&mut sim, &mut d, name);
        }
    }

    #[test]
    fn wire_flips_match_oracle(seed in any::<u64>()) {
        let mut d = Draw(seed | 1);
        for (name, op) in ops() {
            let mut sim = fabric_with(op);
            for _ in 0..=d.below(3) {
                sim.inject(&wire_flip(sim.context(0).unwrap(), &mut d)).unwrap();
            }
            check_against_oracle(&mut sim, &mut d, name);
        }
    }

    #[test]
    fn tap_flips_match_oracle(seed in any::<u64>()) {
        let mut d = Draw(seed | 1);
        for (name, op) in ops() {
            let mut sim = fabric_with(op);
            let net = op.network();
            for _ in 0..=d.below(3) {
                let new_tap = match d.below(3) {
                    0 => None,
                    _ => Some(d.below(net.n_signals())),
                };
                let output = d.below(net.outputs().len());
                sim.inject(&ConfigFault::TapFlip { slot: 0, output, new_tap }).unwrap();
            }
            check_against_oracle(&mut sim, &mut d, name);
        }
    }
}

/// A wire flip whose new source is a gate placed in a later row reads 0
/// on the pipeline, so the fabric follows the row-order oracle and not
/// the gate-id order of [`XorNetwork::evaluate`].
#[test]
fn wire_flip_to_a_later_row_follows_row_order() {
    for (name, op) in ops().iter().filter(|(_, op)| op.is_linear()) {
        let net = op.network();
        let n = net.n_inputs();
        let row_of = rows_of(op.placement(), net.gate_count());
        for gate in 0..net.gate_count() {
            for h in (0..gate).filter(|&h| row_of[h] > row_of[gate]) {
                let mut sim = fabric_with(op);
                sim.inject(&ConfigFault::WireFlip {
                    slot: 0,
                    gate,
                    pin: 0,
                    new_signal: n + h,
                })
                .unwrap();
                let corrupted = sim.context(0).unwrap().clone();
                let inputs = (0..n).map(|i| BitVec::unit(i, n)).chain([BitVec::ones(n)]);
                for x in inputs {
                    let got = sim.run_linear(&x).unwrap();
                    assert_eq!(got, reference(&corrupted, &[], &x), "{name}");
                    if got != corrupted.network().evaluate(&x) {
                        return;
                    }
                }
            }
        }
    }
    panic!("no flow-built finalize op has an observable later-row wire flip");
}
