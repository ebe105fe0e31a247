//! Criterion micro-benchmarks of the host-native engines: software CRC
//! baselines vs. the parallel engines, the PiCoGA simulator itself, the
//! GF(2) kernels everything is built on, the synthesis flow, the stream
//! ciphers, the RISC interpreter and the configuration guard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gf2::{BitMat, BitVec};
use lfsr::crc::{crc_bitwise, CrcEngine, CrcSpec, SarwateCrc, SerialCore, SlicingCrc};
use lfsr_parallel::{DerbyCore, GfmacCore, LookaheadCore};
use std::time::Duration;

fn group<'a>(
    c: &'a mut Criterion,
    name: &str,
) -> criterion::BenchmarkGroup<'a, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group(name);
    g.sample_size(20);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(1));
    g
}

fn bench_software_crc(c: &mut Criterion) {
    let spec = CrcSpec::crc32_ethernet();
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 31) as u8).collect();
    let mut g = group(c, "software-crc");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("bitwise", |b| b.iter(|| crc_bitwise(spec, &data)));
    let mut sarwate = SarwateCrc::new(spec).unwrap();
    g.bench_function("sarwate", |b| b.iter(|| sarwate.checksum(&data)));
    let mut s4 = SlicingCrc::new(spec, 4).unwrap();
    g.bench_function("slicing4", |b| b.iter(|| s4.checksum(&data)));
    let mut s8 = SlicingCrc::new(spec, 8).unwrap();
    g.bench_function("slicing8", |b| b.iter(|| s8.checksum(&data)));
    g.finish();
}

fn bench_parallel_engines(c: &mut Criterion) {
    let spec = CrcSpec::crc32_ethernet();
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 131) as u8).collect();
    let mut g = group(c, "parallel-engines");
    g.throughput(Throughput::Bytes(data.len() as u64));
    let mut serial = CrcEngine::new(*spec, SerialCore::new(spec));
    g.bench_function("serial", |b| b.iter(|| serial.checksum(&data)));
    for m in [32usize, 128] {
        let mut look = CrcEngine::new(*spec, LookaheadCore::new(spec, m).unwrap());
        g.bench_with_input(BenchmarkId::new("lookahead", m), &m, |b, _| {
            b.iter(|| look.checksum(&data));
        });
        let mut derby = CrcEngine::new(*spec, DerbyCore::new(spec, m).unwrap());
        g.bench_with_input(BenchmarkId::new("derby", m), &m, |b, _| {
            b.iter(|| derby.checksum(&data));
        });
        let mut gfmac = CrcEngine::new(*spec, GfmacCore::new(spec, m));
        g.bench_with_input(BenchmarkId::new("gfmac", m), &m, |b, _| {
            b.iter(|| gfmac.checksum(&data));
        });
    }
    g.finish();
}

fn bench_picoga_sim(c: &mut Criterion) {
    use dream_lfsr::{build_crc_app, FlowOptions};
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
    let mut g = group(c, "picoga-sim");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for m in [32usize, 128] {
        let (mut app, _) =
            build_crc_app(CrcSpec::crc32_ethernet(), &FlowOptions::dream_with_m(m)).unwrap();
        g.bench_with_input(BenchmarkId::new("crc", m), &m, |b, _| {
            b.iter(|| app.checksum(&data));
        });
    }
    g.finish();
}

fn bench_gf2(c: &mut Criterion) {
    let spec = CrcSpec::crc32_ethernet();
    let a = BitMat::companion(&spec.generator());
    let a128 = a.pow(128);
    let v = BitVec::from_u64(0xDEAD_BEEF, 32);
    let mut g = group(c, "gf2");
    g.bench_function("pow128", |b| b.iter(|| a.pow(128)));
    g.bench_function("mul", |b| b.iter(|| a128.mul(&a128)));
    g.bench_function("mul_vec", |b| b.iter(|| a128.mul_vec(&v)));
    g.bench_function("inverse", |b| b.iter(|| a128.inverse()));
    g.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    use lfsr::StateSpaceLfsr;
    use lfsr_parallel::{BlockSystem, DerbyTransform};
    use xornet::{synthesize, SynthOptions};
    let sys = StateSpaceLfsr::crc(&CrcSpec::crc32_ethernet().generator()).unwrap();
    let block = BlockSystem::new(&sys, 128).unwrap();
    let derby = DerbyTransform::new(&block).unwrap();
    let mut g = group(c, "synthesis");
    g.bench_function("b128-cse", |b| {
        b.iter(|| synthesize(derby.b_mt(), SynthOptions::default()));
    });
    g.bench_function("b128-naive", |b| {
        b.iter(|| {
            synthesize(
                derby.b_mt(),
                SynthOptions {
                    share_patterns: false,
                    max_fanin: 10,
                },
            )
        });
    });
    g.finish();
}

fn bench_ciphers(c: &mut Criterion) {
    use lfsr::cipher::{Css, CssMode, A51, E0};
    let mut g = group(c, "ciphers");
    g.throughput(Throughput::Bytes(1024));
    let key8 = [0x12, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF];
    g.bench_function("a5-1/keystream-1k", |b| {
        b.iter(|| A51::new(&key8, 0x134).keystream_bytes(1024));
    });
    let key16: [u8; 16] = *b"sixteen byte key";
    g.bench_function("e0/keystream-1k", |b| {
        b.iter(|| E0::new(&key16).keystream_bytes(1024));
    });
    let key5 = [0x51, 0x67, 0x67, 0xC5, 0xE0];
    g.bench_function("css/keystream-1k", |b| {
        b.iter(|| Css::new(&key5, CssMode::Data).keystream_bytes(1024));
    });
    g.finish();
}

fn bench_riscsim(c: &mut Criterion) {
    use riscsim::CrcKernel;
    let data: Vec<u8> = (0..4096u32).map(|i| (i * 17) as u8).collect();
    let mut g = group(c, "riscsim");
    g.throughput(Throughput::Bytes(data.len() as u64));
    for k in [
        CrcKernel::ethernet_sarwate(),
        CrcKernel::ethernet_slicing4(),
    ] {
        g.bench_function(k.name(), |b| b.iter(|| k.run(&data).unwrap()));
    }
    g.finish();
}

fn bench_memory_streaming(c: &mut Criterion) {
    use dream::{LocalMemory, MemoryParams};
    use dream_lfsr::{build_crc_app, FlowOptions};
    let (mut app, _) =
        build_crc_app(CrcSpec::crc32_ethernet(), &FlowOptions::dream_m128()).unwrap();
    let mut mem = LocalMemory::new(MemoryParams::dream());
    let frame: Vec<u8> = (0..1536u32).map(|i| (i * 3) as u8).collect();
    mem.write_bytes(0, &frame).unwrap();
    let mut g = group(c, "memory-streaming");
    g.throughput(Throughput::Bytes(frame.len() as u64));
    g.bench_function("crc128-from-scratchpad", |b| {
        b.iter(|| app.checksum_streamed(&mem, 0, frame.len()).unwrap());
    });
    g.finish();
}

/// The configuration guard a stream batch pays for: `DreamSystem::scrub`
/// over a four-lane system shaped like perfbench's `stream_mix`
/// (CRC-32/Ethernet at M = 8, 32, 128 and the 802.11 scrambler at M = 16,
/// every lane's update context resident), and the equivalence proof it
/// runs, alone, on the M=128 update network.
fn bench_guard(c: &mut Criterion) {
    use dream::{ControlModel, DreamSystem};
    use dream_lfsr::{build_personality, build_scrambler_personality, FlowOptions};
    use lfsr::scramble::ScramblerSpec;
    use picoga::PicogaParams;
    let eth = CrcSpec::crc32_ethernet();
    let wifi = ScramblerSpec::ieee80211();
    let mut sys = DreamSystem::new(PicogaParams::dream(), ControlModel::default());
    for m in [8usize, 32, 128] {
        let name = format!("eth{m}");
        sys.register(build_personality(&name, eth, &FlowOptions::dream_with_m(m)).unwrap())
            .unwrap();
        let x = sys.crc_stream_begin(&name).unwrap();
        sys.crc_stream_feed(&name, &x, &BitVec::zeros(m)).unwrap();
    }
    let opts = FlowOptions::dream_with_m(16);
    sys.register_scrambler(build_scrambler_personality("wifi16", wifi, &opts).unwrap())
        .unwrap();
    let x = sys
        .scramble_stream_begin("wifi16", wifi.default_seed)
        .unwrap();
    sys.scramble_stream_feed("wifi16", &x, &BitVec::zeros(16))
        .unwrap();
    assert_eq!(sys.resident().len(), 4, "all four lanes resident");

    let eth128 = build_personality("eth128", eth, &FlowOptions::dream_with_m(128)).unwrap();
    let net = eth128.update.network();
    let matrix = net.to_matrix();

    let mut g = group(c, "guard");
    g.bench_function("scrub", |b| {
        b.iter(|| assert!(sys.scrub().is_empty()));
    });
    g.bench_with_input(BenchmarkId::new("check_network", 128), &128, |b, _| {
        b.iter(|| verify::check_network(net, &matrix).unwrap());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_software_crc,
    bench_parallel_engines,
    bench_picoga_sim,
    bench_gf2,
    bench_synthesis,
    bench_ciphers,
    bench_riscsim,
    bench_memory_streaming,
    bench_guard
);
criterion_main!(benches);
