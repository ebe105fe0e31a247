//! `frame_offload`: the paper's Table 1 / Fig. 4 usage. One client
//! offloads whole frames to a DREAM system, one call per frame, and
//! runs the periodic self-check of the resilience layer between frames.
//!
//! Three personalities need five contexts while the fabric holds four,
//! so the mix forces the configuration-switch breaks the paper measures.
//! Host time sits in PiCoGA row evaluation and `gf2` bit handling; the
//! stream, cluster and wal layers do no work here.

use crate::gen;
use crate::oracle::{bits_of, Expected};
use crate::pass::{elapsed_ns, Pass};
use crate::spans::Spans;
use picolfsr::dream::ControlModel;
use picolfsr::flow::{build_scrambler_personality, FlowOptions};
use picolfsr::lfsr::crc::CrcSpec;
use picolfsr::lfsr::scramble::ScramblerSpec;
use picolfsr::picoga::PicogaParams;
use picolfsr::resilience::{RecoveryPolicy, ResilientSystem, SplitMix64};
use std::time::Instant;

/// Frames per pass.
pub const FRAMES: usize = 1000;

/// The paper's Ethernet payload window, bytes.
const MIN_LEN: usize = 46;
const MAX_LEN: usize = 1518;

/// Frames at or below this length form the per-call-cost size class.
const SMALL_MAX: usize = 128;
/// Frames at or above this length form the row-evaluation size class.
const LARGE_MIN: usize = 1024;

const SCRAMBLER: &str = "wifi16";

/// Where a frame goes.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// `DreamSystem::checksum` on the named CRC-32/Ethernet lane.
    Crc(&'static str),
    /// `DreamSystem::scramble` on the 802.11 lane from this seed.
    Scramble(u64),
}

/// One frame and its expected output.
#[derive(Debug)]
struct Frame {
    route: Route,
    data: Vec<u8>,
    expected: Expected,
}

/// A pass's frames, generated from the seed.
#[derive(Debug)]
pub struct Input {
    frames: Vec<Frame>,
}

impl Input {
    /// `n` frames with lengths spread evenly over 46–1518 B. One in
    /// five is an 802.11 frame; of the CRC frames one third go to the
    /// M=32 lane and two thirds to the M=128 lane.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let scrambles = n / 5;
        let eth32 = (n - scrambles) / 3;
        let lanes = [
            (None, scrambles),
            (Some("eth32"), eth32),
            (Some("eth128"), n - scrambles - eth32),
        ];
        // Each lane's lengths cover the whole window.
        let mut lens: Vec<Vec<usize>> = lanes
            .iter()
            .map(|&(_, k)| gen::stratified(&mut rng, k, MIN_LEN, MAX_LEN))
            .collect();
        let mut order: Vec<usize> = lanes
            .iter()
            .enumerate()
            .flat_map(|(i, &(_, k))| std::iter::repeat_n(i, k))
            .collect();
        gen::shuffle(&mut rng, &mut order);
        let frames = order
            .into_iter()
            .map(|lane| {
                let len = lens[lane].pop().expect("one length per frame");
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let route = match lanes[lane].0 {
                    None => Route::Scramble(1 + rng.below(127) as u64),
                    Some(name) => Route::Crc(name),
                };
                let expected = match route {
                    Route::Crc(_) => Expected::crc(&data),
                    Route::Scramble(seed) => Expected::scrambled(seed, &data),
                };
                Frame {
                    route,
                    data,
                    expected,
                }
            })
            .collect();
        Input { frames }
    }

    /// Corrupts one expected output (the gate's self-test).
    #[cfg(test)]
    pub fn flip_expected(&mut self, index: usize) {
        self.frames[index].expected.flip();
    }

    /// Builds a fresh system, then serves every frame once.
    pub fn pass(&self, spans: &mut Spans) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let t0 = Instant::now();
        let mut rs = setup(spans)?;
        pass.setup_ns = elapsed_ns(t0);

        let period = RecoveryPolicy::standard().scrub_period;
        for (i, frame) in self.frames.iter().enumerate() {
            let item = i as u64;
            let step = spans.begin("bench.step", item);
            let t = Instant::now();
            let got = match frame.route {
                Route::Crc(lane) => {
                    let c0 = Instant::now();
                    let r = spans.call("dream.checksum", item, || {
                        rs.system_mut().checksum(lane, &frame.data)
                    });
                    if spans.enabled() {
                        let class = match frame.data.len() {
                            n if n <= SMALL_MAX => Some("dream.checksum_small"),
                            n if n >= LARGE_MIN => Some("dream.checksum_large"),
                            _ => None,
                        };
                        if let Some(class) = class {
                            pass.samples.entry(class).or_default().push(elapsed_ns(c0));
                        }
                    }
                    r.map(|(crc, _)| Expected::Crc(crc))
                }
                Route::Scramble(seed) => {
                    let bits = bits_of(&frame.data);
                    spans
                        .call("dream.scramble", item, || {
                            rs.system_mut().scramble(SCRAMBLER, seed, &bits)
                        })
                        .map(|(out, _)| Expected::Bits(out))
                }
            };
            let checked = (i as u64 + 1)
                .is_multiple_of(period)
                .then(|| spans.call("resilience.self_check", item, || rs.self_check()));
            let took = elapsed_ns(t);
            pass.steps_ns.push(took);
            pass.segments_ns.push(took);
            spans.end(step);

            pass.attempted += 1;
            match got {
                Ok(out) if out == frame.expected => {
                    pass.verified += 1;
                    pass.bytes += frame.data.len() as u64;
                }
                Ok(_) => pass.fail(format!("frame {i}: output differs from the oracle")),
                Err(e) => pass.fail(format!("frame {i}: {e}")),
            }
            match checked {
                Some(Ok(outcomes)) if !outcomes.is_empty() => {
                    pass.fail(format!("frame {i}: self-check flagged a fault-free fabric"));
                }
                Some(Err(e)) => pass.fail(format!("frame {i}: self-check: {e}")),
                _ => {}
            }
        }
        pass.absorb(&rs.obs().registry.snapshot());
        pass.absorb_tracer(&rs.obs().tracer);
        Ok(pass)
    }
}

/// The stack: CRC-32/Ethernet at M=32 and M=128 plus the 802.11
/// scrambler at M=16, built through the flow under the standard
/// recovery policy.
fn setup(spans: &mut Spans) -> Result<ResilientSystem, String> {
    let mut rs = ResilientSystem::new(
        PicogaParams::dream(),
        ControlModel::default(),
        RecoveryPolicy::standard(),
    );
    let eth = CrcSpec::crc32_ethernet();
    for m in [32, 128] {
        spans
            .call("flow.build", m as u64, || {
                rs.host(&format!("eth{m}"), eth, FlowOptions::dream_with_m(m))
            })
            .map_err(|e| format!("hosting eth{m}: {e}"))?;
    }
    let wifi = spans
        .call("flow.build", 16, || {
            build_scrambler_personality(
                SCRAMBLER,
                ScramblerSpec::ieee80211(),
                &FlowOptions::dream_with_m(16),
            )
        })
        .map_err(|e| format!("building {SCRAMBLER}: {e}"))?;
    rs.system_mut()
        .register_scrambler(wifi)
        .map_err(|e| format!("registering {SCRAMBLER}: {e}"))?;
    Ok(rs)
}
