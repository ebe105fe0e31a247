//! Planned streams for the two stream-serving workloads, and the
//! client's view of a stream it has opened.

use crate::gen;
use crate::oracle::Expected;
use crate::pass::Pass;
use picolfsr::gf2::BitVec;
use picolfsr::resilience::SplitMix64;
use picolfsr::stream::{Priority, StreamOutput};

/// The 802.11 scrambler lane both workloads host, at M=16.
pub const SCRAMBLER: &str = "wifi16";

/// One planned stream.
#[derive(Debug)]
pub struct Plan {
    /// The personality it opens on.
    pub lane: &'static str,
    /// Scrambler seed; `None` for a CRC stream.
    pub seed: Option<u64>,
    pub priority: Priority,
    pub deadline_in: u64,
    pub data: Vec<u8>,
    /// Chunk ends (prefix sums; the last is `data.len()`).
    cuts: Vec<usize>,
    pub arrive_tick: u64,
    pub expected: Expected,
}

impl Plan {
    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.cuts.len()
    }

    /// The `i`-th chunk.
    pub fn chunk(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.cuts[i - 1] };
        &self.data[start..self.cuts[i]]
    }

    /// Chunks that end at or before payload byte `offset`: where a
    /// client rewound to `offset` resumes feeding.
    pub fn chunks_through(&self, offset: u64) -> usize {
        self.cuts.partition_point(|&cut| cut as u64 <= offset)
    }
}

/// One stream per entry of `arrivals` (its arrival tick). Lanes are
/// split as evenly as possible over `lanes` (repeat a lane to weight
/// it), chunk counts over `chunks`, deadlines over 4–11 ticks; chunks
/// hold 5 to `max_len` random bytes and exactly three in ten streams
/// are high priority.
pub fn generate(
    rng: &mut SplitMix64,
    lanes: &[&'static str],
    chunks: &[usize],
    max_len: usize,
    arrivals: &[u64],
) -> Vec<Plan> {
    let n = arrivals.len();
    let lane_of = gen::even_split(rng, n, lanes);
    let chunks = gen::even_split(rng, n, chunks);
    let deadlines = gen::even_split(rng, n, &[4, 5, 6, 7, 8, 9, 10, 11]);
    let high = gen::exactly(rng, n, n * 3 / 10);
    (0..n)
        .map(|i| {
            let mut data = Vec::new();
            let mut cuts = Vec::new();
            for _ in 0..chunks[i] {
                let len = 5 + rng.below(max_len - 4);
                data.extend((0..len).map(|_| rng.next_u64() as u8));
                cuts.push(data.len());
            }
            let seed = (lane_of[i] == SCRAMBLER).then(|| 1 + rng.below(127) as u64);
            let expected = match seed {
                Some(s) => Expected::scrambled(s, &data),
                None => Expected::crc(&data),
            };
            Plan {
                lane: lane_of[i],
                seed,
                priority: if high[i] {
                    Priority::High
                } else {
                    Priority::Low
                },
                deadline_in: deadlines[i],
                data,
                cuts,
                arrive_tick: arrivals[i],
                expected,
            }
        })
        .collect()
}

/// Client-side state of an opened stream.
pub struct Client {
    /// Index of its plan.
    pub plan: usize,
    /// The id the service or cluster gave it.
    pub id: u64,
    /// Chunks fed so far.
    pub next_cut: usize,
    /// Parked by the service; resumed before feeding again.
    pub parked: bool,
    /// Scrambled output taken so far.
    pub collected: BitVec,
}

impl Client {
    pub fn new(plan: usize, id: u64) -> Self {
        Client {
            plan,
            id,
            next_cut: 0,
            parked: false,
            collected: BitVec::zeros(0),
        }
    }

    /// The next chunk to feed, unless parked or done feeding.
    pub fn next_chunk<'a>(&self, plan: &'a Plan) -> Option<&'a [u8]> {
        (!self.parked && self.next_cut < plan.chunks()).then(|| plan.chunk(self.next_cut))
    }

    /// Fed every chunk and not parked: ready to finish.
    pub fn ready(&self, plan: &Plan) -> bool {
        !self.parked && self.next_cut == plan.chunks()
    }

    /// Checks a finished stream's output against the oracle.
    pub fn check(&self, plan: &Plan, out: StreamOutput, pass: &mut Pass) {
        let got = match out {
            StreamOutput::Crc(v) => Expected::Crc(v),
            StreamOutput::Scrambled(tail) => Expected::Bits(self.collected.concat(&tail)),
        };
        pass.attempted += 1;
        if got == plan.expected {
            pass.verified += 1;
            pass.bytes += plan.data.len() as u64;
        } else {
            pass.fail(format!(
                "stream {}: output differs from the oracle",
                self.plan
            ));
        }
    }
}
