//! The bit-sliced `check_network` against the one-basis-vector-at-a-time
//! proof it replaced. The reference below evaluates the network with one
//! `bool` per signal, in gate-id order, once per basis vector `e_j`, and
//! compares column `j` with the matrix bit by bit. The sliced checker
//! must return exactly the same `Result`: the same rows in the same
//! order, the same bad columns in the same order, and `probes == n`.

use gf2::{BitMat, BitVec};
use proptest::prelude::*;
use verify::{check_network, EquivError, RowMismatch};
use xornet::{synthesize, SynthOptions, XorNetwork};

/// Input widths on both sides of every word boundary up to three words.
const WIDTHS: [usize; 7] = [1, 23, 63, 64, 65, 128, 160];

/// Deterministic xorshift so a `u64` seed expands into a whole matrix.
fn splat(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> BitMat {
    let mut next = splat(seed);
    let mut m = BitMat::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            m.set(r, c, next() & 1 == 1);
        }
    }
    m
}

/// One basis vector through the network, one `bool` per signal.
fn evaluate_bits(net: &XorNetwork, x: &BitVec) -> Vec<bool> {
    let mut values: Vec<bool> = x.iter().collect();
    for g in net.gates() {
        let v = g.inputs.iter().fold(false, |acc, &s| acc ^ values[s]);
        values.push(v);
    }
    net.outputs()
        .iter()
        .map(|o| o.is_some_and(|s| values[s]))
        .collect()
}

/// The one-vector-at-a-time proof: column `j` of the network is
/// `net(e_j)`, compared with column `j` of the matrix.
fn reference(net: &XorNetwork, matrix: &BitMat) -> Result<(), EquivError> {
    if net.n_inputs() != matrix.cols() || net.outputs().len() != matrix.rows() {
        return Err(EquivError::ShapeMismatch {
            expected_outputs: matrix.rows(),
            expected_inputs: matrix.cols(),
            got_outputs: net.outputs().len(),
            got_inputs: net.n_inputs(),
        });
    }
    let n = net.n_inputs();
    let mut bad: Vec<Vec<usize>> = vec![Vec::new(); matrix.rows()];
    for j in 0..n {
        let probe = evaluate_bits(net, &BitVec::unit(j, n));
        for (i, bad_row) in bad.iter_mut().enumerate() {
            if probe[i] != matrix.get(i, j) {
                bad_row.push(j);
            }
        }
    }
    if bad.iter().all(Vec::is_empty) {
        return Ok(());
    }
    Err(EquivError::NotEquivalent {
        mismatches: bad
            .into_iter()
            .enumerate()
            .filter(|(_, cols)| !cols.is_empty())
            .map(|(output, bad_inputs)| RowMismatch { output, bad_inputs })
            .collect(),
        probes: n,
    })
}

/// The sliced verdict must equal the reference exactly.
fn agree(net: &XorNetwork, matrix: &BitMat) -> Result<(), TestCaseError> {
    let got = check_network(net, matrix);
    prop_assert_eq!(&got, &reference(net, matrix));
    if let Err(EquivError::NotEquivalent { probes, .. }) = got {
        prop_assert_eq!(probes, net.n_inputs());
    }
    Ok(())
}

/// A synthesized network for a random `rows × WIDTHS[wi]` matrix, with
/// pattern sharing on or off by the seed.
fn synthesized(wi: usize, rows: usize, seed: u64) -> (XorNetwork, BitMat) {
    let m = random_matrix(rows, WIDTHS[wi], seed);
    let opts = SynthOptions {
        share_patterns: seed & 2 == 0,
        ..SynthOptions::default()
    };
    (synthesize(&m, opts), m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean networks, then the same networks against matrices with one
    /// to eight flipped bits (columns 63, 64 and n-1 always in play).
    #[test]
    fn sliced_proof_matches_reference_on_flipped_matrices(
        wi in 0usize..7,
        rows in 1usize..24,
        seed in any::<u64>(),
        flips in 0usize..9,
    ) {
        let (net, mut m) = synthesized(wi, rows, seed);
        agree(&net, &m)?;
        prop_assert!(check_network(&net, &m).is_ok());
        let n = m.cols();
        let mut next = splat(seed ^ 0xA5A5);
        for k in 0..flips {
            let col = match k {
                0 => n - 1,
                1 => 63.min(n - 1),
                2 => 64.min(n - 1),
                _ => (next() % n as u64) as usize,
            };
            let row = (next() % rows as u64) as usize;
            m.set(row, col, !m.get(row, col));
            agree(&net, &m)?;
        }
    }

    /// Seeded wire flips (a gate pin redirected to another earlier
    /// signal) and tap flips (an output re-tapped, or tapped off to 0),
    /// stacked one after another on the synthesized network.
    #[test]
    fn sliced_proof_matches_reference_on_mutated_networks(
        wi in 0usize..7,
        rows in 1usize..24,
        seed in any::<u64>(),
        mutations in 1usize..6,
    ) {
        let (mut net, m) = synthesized(wi, rows, seed);
        let mut next = splat(seed ^ 0x5A5A);
        for _ in 0..mutations {
            let r = next();
            if r.is_multiple_of(2) && net.gate_count() > 0 {
                let gate = (r / 2 % net.gate_count() as u64) as usize;
                let pin = (r / 64 % net.gates()[gate].inputs.len() as u64) as usize;
                let signal = (next() % (net.n_inputs() + gate) as u64) as usize;
                net.set_gate_input(gate, pin, signal);
            } else {
                let output = (r / 2 % net.outputs().len() as u64) as usize;
                let tap = next();
                let tap = (!tap.is_multiple_of(4)).then(|| (tap / 4 % net.n_signals() as u64) as usize);
                net.set_output(output, tap);
            }
            agree(&net, &m)?;
        }
    }
}

#[test]
fn shape_mismatches_match_the_reference() {
    let (net, _) = synthesized(4, 5, 9);
    for m in [
        BitMat::zeros(5, 64),
        BitMat::zeros(4, 65),
        BitMat::zeros(0, 0),
    ] {
        assert!(matches!(
            check_network(&net, &m),
            Err(EquivError::ShapeMismatch { .. })
        ));
        assert_eq!(check_network(&net, &m), reference(&net, &m));
    }
}

#[test]
fn networks_without_outputs_or_inputs_check() {
    let net = XorNetwork::new(70, 2);
    assert_eq!(check_network(&net, &net.to_matrix()), Ok(()));
    let mut net = XorNetwork::new(0, 2);
    net.add_output(None);
    assert_eq!(check_network(&net, &BitMat::zeros(1, 0)), Ok(()));
    assert_eq!(check_network(&net, &net.to_matrix()), Ok(()));
}
