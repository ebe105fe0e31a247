//! `to_matrix` against the gate-order evaluator: the symbolic pass over
//! flat word masks must equal, column for column, the network evaluated
//! on each basis vector, across 64-bit word boundaries and with constant
//! (`None`) outputs; and the 64 lanes of `evaluate_lanes` must be
//! independent evaluations.

use gf2::{BitMat, BitVec};
use proptest::prelude::*;
use xornet::XorNetwork;

/// Input widths on both sides of every word boundary up to three words.
const WIDTHS: [usize; 7] = [1, 23, 63, 64, 65, 128, 160];

/// Deterministic xorshift so a `u64` seed expands into a whole network.
fn splat(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// A random DAG: `gates` gates of fan-in 1–4 over earlier signals, then
/// `outputs` taps, one in five of them the constant 0.
fn random_network(n: usize, gates: usize, outputs: usize, seed: u64) -> XorNetwork {
    let mut next = splat(seed);
    let mut net = XorNetwork::new(n, 4);
    for _ in 0..gates {
        let fanin = 1 + (next() % 4) as usize;
        let below = net.n_signals() as u64;
        let inputs = (0..fanin).map(|_| (next() % below) as usize).collect();
        net.add_gate(inputs);
    }
    for _ in 0..outputs {
        let tap = next();
        let tap = (!tap.is_multiple_of(5)).then(|| (tap / 5 % net.n_signals() as u64) as usize);
        net.add_output(tap);
    }
    net
}

/// The matrix whose column `j` is the network evaluated on `e_j`.
fn basis_columns(net: &XorNetwork) -> BitMat {
    let n = net.n_inputs();
    let mut m = BitMat::zeros(net.outputs().len(), n);
    for j in 0..n {
        for i in net.evaluate(&BitVec::unit(j, n)).iter_ones() {
            m.set(i, j, true);
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn to_matrix_equals_basis_evaluation(
        wi in 0usize..7,
        gates in 0usize..200,
        outputs in 1usize..40,
        seed in any::<u64>(),
    ) {
        let n = WIDTHS[wi];
        let net = random_network(n, gates, outputs, seed);
        let m = net.to_matrix();
        prop_assert_eq!((m.rows(), m.cols()), (outputs, n));
        prop_assert_eq!(&m, &basis_columns(&net));
        for (i, o) in net.outputs().iter().enumerate() {
            if o.is_none() {
                prop_assert!(m.row(i).is_zero(), "constant output {} has support", i);
            }
        }
    }

    #[test]
    fn lanes_are_independent_evaluations(
        wi in 0usize..7,
        gates in 0usize..200,
        outputs in 1usize..40,
        seed in any::<u64>(),
    ) {
        let n = WIDTHS[wi];
        let net = random_network(n, gates, outputs, seed);
        let mut next = splat(seed ^ 0x9E37_79B9_7F4A_7C15);
        let lanes: Vec<u64> = (0..n).map(|_| next()).collect();
        let got = net.evaluate_lanes(&lanes);
        prop_assert_eq!(got.len(), outputs);
        let m = net.to_matrix();
        for k in 0..64 {
            let x: BitVec = lanes.iter().map(|w| w >> k & 1 == 1).collect();
            let want = net.evaluate(&x);
            prop_assert_eq!(&want, &m.mul_vec(&x));
            for (i, word) in got.iter().enumerate() {
                prop_assert_eq!(word >> k & 1 == 1, want.get(i), "lane {} output {}", k, i);
            }
        }
    }
}

#[test]
fn a_network_without_outputs_keeps_its_input_width() {
    let mut net = XorNetwork::new(70, 2);
    net.add_gate(vec![0, 69]);
    let m = net.to_matrix();
    assert_eq!((m.rows(), m.cols()), (0, 70));
    assert_eq!(m, BitMat::zeros(0, 70));
}

#[test]
fn signal_support_is_a_row_of_to_matrix() {
    for (seed, &n) in (1u64..).zip(&WIDTHS) {
        let net = random_network(n, 120, 0, seed);
        for s in 0..net.n_signals() {
            let mut probe = net.clone();
            probe.add_output(Some(s));
            assert_eq!(
                net.signal_support(s),
                *probe.to_matrix().row(0),
                "n={n} s={s}"
            );
        }
    }
}
