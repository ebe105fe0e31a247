//! Property tests for the static analyzers and the model checker.
//!
//! * Random XOR/XNOR networks must always certify affine, and the
//!   certificate must *be* the network: `matrix·x ⊕ offset` equals the
//!   configuration's own evaluation on random inputs. That identity is
//!   the soundness the zero+basis stuck-at probe relies on.
//! * The model checker's exploration is a pure function of the model:
//!   two explorations of the same model are identical, counterexample
//!   traces included (the determinism `BENCH_analyze.json`'s byte
//!   comparison in CI builds on).

use analyze::{certify, explore, CellFunc, ExploreLimits, FabricConfig, ServiceModel};
use gf2::BitVec;
use proptest::collection;
use proptest::prelude::*;

/// Builds a random-but-valid configuration from raw generator
/// material: each descriptor word packs two (possibly equal, so
/// `x ⊕ x` cancellation is exercised) earlier signals, a row, and an
/// inversion bit (the vendored proptest has no tuple strategies, so a
/// cell is one `u32`).
fn xor_net(n_inputs: usize, descr: &[u32]) -> FabricConfig {
    let mut cfg = FabricConfig::new("random-xor", n_inputs);
    let mut last = Vec::new();
    for &d in descr {
        let (row, invert) = ((d & 7) as usize, d >> 20 & 1 == 1);
        let n = cfg.n_signals();
        let (a, b) = ((d >> 3 & 0xFF) as usize % n, (d >> 11 & 0xFF) as usize % n);
        last.push(cfg.add_cell(row % 6, vec![a, b], CellFunc::Xor { invert }));
    }
    // Tap the most recent cells as outputs so most of the network is
    // live, plus one constant-zero output.
    for t in last.iter().rev().take(4) {
        cfg.add_output(Some(*t));
    }
    cfg.add_output(None);
    cfg
}

proptest! {
    #[test]
    fn random_affine_networks_always_certify_affine(
        n_inputs in 2usize..40,
        descr in collection::vec(any::<u32>(), 1..24),
        xs in collection::vec(any::<u64>(), 1..8),
    ) {
        let cfg = xor_net(n_inputs, &descr);
        let (cert, classes) = certify(&cfg);
        prop_assert!(cert.affine, "XOR net refused: {}", cert.summary());
        prop_assert_eq!(classes.len(), cfg.cells().len());
        let matrix = cert.matrix.expect("certify issues a matrix");
        let offset = cert.offset.expect("certify issues an offset");
        prop_assert_eq!(cert.linear, offset.is_zero());
        for x in xs {
            let x = BitVec::from_u64(x, n_inputs);
            let mut predicted = matrix.mul_vec(&x);
            predicted.xor_assign(&offset);
            prop_assert_eq!(predicted, cfg.evaluate(&x));
        }
    }
}

#[test]
fn exploration_is_deterministic_run_to_run() {
    let limits = ExploreLimits::default();
    for model in [ServiceModel::small(), ServiceModel::small_prefix_bug()] {
        let a = explore(&model, &limits);
        let b = explore(&model, &limits);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(
            format!("{:?}", a.violations),
            format!("{:?}", b.violations),
            "counterexample traces must not depend on iteration order"
        );
    }
}
