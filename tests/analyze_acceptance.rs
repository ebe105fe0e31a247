//! Acceptance tests for the `analyze` crate against the real flow.
//!
//! These exercise the whole chain end to end rather than unit-level
//! pieces: every catalogue personality the flow can build must come out
//! provably affine, with the exact map the network computes, and inside
//! the fabric's static bounds, a doctored certificate must make the
//! runtime probe refuse, and the
//! static timing model must agree cycle-for-cycle with the live fabric
//! profiler.
//!
//! The catalogue sweep doubles as the fan-out survey referenced from
//! `PicogaParams::max_signal_fanout`: it tracks the densest signal any
//! real personality produces and pins it against both the routing bound
//! and the documented peak.

use picolfsr::analyze::{self, analyze_timing, check_config, AnalysisParams, FabricConfig};
use picolfsr::dream::{ControlModel, DreamSystem, Health, SystemError};
use picolfsr::flow::{
    build_personality, build_scrambler_app, build_scrambler_personality, FlowOptions,
};
use picolfsr::gf2::BitVec;
use picolfsr::lfsr::crc::CATALOG;
use picolfsr::lfsr::scramble::ScramblerSpec;
use picolfsr::picoga::{PgaOperation, PicogaParams};

/// Flow options with the built-in gates off, so the tests drive
/// `check_config` explicitly instead of relying on the flow's own
/// strict-mode pass.
fn raw_opts(m: usize) -> FlowOptions {
    FlowOptions {
        verify: None,
        analyze: false,
        ..FlowOptions::dream_with_m(m)
    }
}

/// Every catalogue personality (CRC update + finalize, plus the 802.11
/// scrambler) at M ∈ {8, 32, 128} passes the full static analysis with
/// an affine certificate whose matrix is the network's own (as `xornet`
/// computes it) with a zero offset, and the fan-out survey stays at the
/// documented peak — well inside the routing bound.
#[test]
fn catalogue_personalities_all_certify_affine_within_bounds() {
    let params = AnalysisParams::for_fabric(&PicogaParams::dream());
    let mut checked = 0usize;
    let mut max_fanout = 0usize;
    let mut densest = String::new();

    let mut survey = |label: &str, op: &PgaOperation| {
        let cfg = FabricConfig::from_op(op);
        let analysis = check_config(&cfg, &params)
            .unwrap_or_else(|e| panic!("{label} rejected by static analysis: {e}"));
        assert!(
            analysis.cert.affine,
            "{label} not affine: {}",
            analysis.cert.summary()
        );
        assert_eq!(
            analysis.cert.matrix.as_ref(),
            Some(&op.network().to_matrix()),
            "{label}: certified map differs from the network's"
        );
        let offset = analysis
            .cert
            .offset
            .as_ref()
            .expect("certify issues an offset");
        assert!(offset.is_zero(), "{label}: nonzero offset");
        if analysis.timing.max_fanout > max_fanout {
            max_fanout = analysis.timing.max_fanout;
            densest = label.to_string();
        }
        checked += 1;
    };

    for m in [8usize, 32, 128] {
        for spec in CATALOG {
            // Some narrow CRCs don't map at large M; the bench catalogue
            // skips those too.
            let Ok(p) = build_personality(spec.name, spec, &raw_opts(m)) else {
                continue;
            };
            survey(&format!("{} M={m} update", spec.name), &p.update);
            if let Some(fin) = &p.finalize {
                survey(&format!("{} M={m} finalize", spec.name), fin);
            }
        }
        let sp = build_scrambler_personality("scrambler", ScramblerSpec::ieee80211(), &raw_opts(m))
            .expect("802.11 scrambler maps at every surveyed M");
        survey(&format!("802.11 M={m} scrambler"), &sp.op);
    }

    assert!(checked > 100, "sweep too small to be a survey: {checked}");
    let bound = PicogaParams::dream().max_signal_fanout();
    assert!(
        max_fanout <= bound,
        "{densest} fans out {max_fanout}, over the routing bound {bound}"
    );
    // The documented peak in `PicogaParams::max_signal_fanout`'s doc
    // comment; update both together if the catalogue grows a denser
    // network.
    assert_eq!(
        max_fanout, 33,
        "catalogue fan-out peak moved (now {densest}); update arch.rs"
    );
}

/// End to end on the system layer: a dream-preset build attaches a
/// certificate, the probe accepts it, and a doctored non-affine
/// certificate turns the probe into a typed `ProbeUnsound` refusal
/// without touching lane health.
#[test]
fn dream_system_carries_and_enforces_the_certificate() {
    let spec = CATALOG
        .iter()
        .find(|s| s.name == "CRC-32/ETHERNET")
        .expect("catalogue has Ethernet CRC");
    let opts = FlowOptions::dream_with_m(32); // analyze gate on by default
    let p = build_personality("eth", spec, &opts).unwrap();
    let cert = p.linearity.clone().expect("dream presets attach a cert");
    assert!(cert.affine);

    let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
    sys.register(p).unwrap();
    assert!(sys.datapath_probe("eth").unwrap());

    let mut doctored = build_personality("eth2", spec, &opts).unwrap();
    doctored.linearity = Some(analyze::LinearityCert {
        affine: false,
        linear: false,
        n_affine: 0,
        matrix: None,
        offset: None,
        ..cert
    });
    sys.register(doctored).unwrap();
    let err = sys.datapath_probe("eth2").unwrap_err();
    assert!(matches!(err, SystemError::ProbeUnsound { .. }), "{err}");
    assert_eq!(
        sys.health("eth2"),
        Health::Healthy,
        "config property, not a fault"
    );
}

/// The static timing model agrees with the live fabric profiler: a real
/// scrambler run's measured per-row busy cycles and fill/drain stalls
/// match the prediction exactly.
#[test]
fn static_timing_matches_the_live_profiler() {
    let m = 32usize;
    let (mut app, _) =
        build_scrambler_app(ScramblerSpec::ieee80211(), &raw_opts(m)).expect("scrambler maps");
    let timing = analyze_timing(&FabricConfig::from_op(app.op()));

    let hub = app.fabric().obs();
    let busy0 = hub.profiler.row_busy().to_vec();
    let stalls0 = hub.profiler.fill_drain_stalls();
    let (issues0, blocks0) = lane_totals(&hub.profiler);

    let data = BitVec::ones(8 * m); // 8 blocks in one issue
    let _ = app.scramble(0x7F, &data);

    let hub = app.fabric().obs();
    let busy: Vec<u64> = hub
        .profiler
        .row_busy()
        .iter()
        .zip(busy0.iter().chain(std::iter::repeat(&0)))
        .map(|(a, b)| a - b)
        .collect();
    let stalls = hub.profiler.fill_drain_stalls() - stalls0;
    let (issues1, blocks1) = lane_totals(&hub.profiler);

    analyze::cross_check(&timing, issues1 - issues0, blocks1 - blocks0, &busy, stalls)
        .expect("static prediction must match the measured run");
}

fn lane_totals(p: &picolfsr::obs::FabricProfiler) -> (u64, u64) {
    p.lanes()
        .values()
        .fold((0, 0), |(i, b), u| (i + u.issues, b + u.blocks))
}
