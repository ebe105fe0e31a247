//! Host wall-clock benchmark of the picolfsr stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload frame_offload --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process and one thread drive a seeded workload through the
//! public `picolfsr` facade as a closed loop: the single client waits
//! for every call. A run repeats *passes* until `--seconds` have gone
//! by. Each pass builds a fresh stack (timed as set-up), serves the
//! seed's whole input once (the timed region) and checks every output
//! against the `lfsr` reference kernels. The first pass warms caches
//! and is not timed. Every pass of a seed must reproduce the first
//! pass's simulated statistics exactly. Host times are rescaled to a
//! reference host speed by a calibration probe run around every pass
//! (see `calib`).
//!
//! With `--trace 0` every pass is untraced and the run reports the
//! end-to-end metrics. With `--trace 1` odd passes record a span around
//! every call into a layer, even passes stay untraced, and the run
//! reports per-layer metrics from the traced passes plus the gap between
//! the two kinds. The last line of standard output is one JSON object.

mod calib;
mod crash;
mod frame;
mod gen;
mod oracle;
mod pass;
mod plan;
mod report;
mod spans;
mod streams;

use pass::Pass;
use spans::Spans;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Passes every run makes at least: a warm-up, then two timed passes
/// (one traced and one untraced when tracing).
const MIN_PASSES: usize = 3;
/// No new pass starts after this long, whatever `--seconds` says.
const HARD_STOP: Duration = Duration::from_secs(120);

/// A workload's inputs, generated from the seed.
enum Work {
    Frame(frame::Input),
    Stream(streams::Input),
    Crash(crash::Input),
}

impl Work {
    fn generate(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "frame_offload" => Work::Frame(frame::Input::generate(seed, frame::FRAMES)),
            "stream_mix" => Work::Stream(streams::Input::generate(seed, streams::STREAMS)),
            "cluster_crash" => Work::Crash(crash::Input::generate(seed, crash::STREAMS)),
            _ => return None,
        })
    }

    fn pass(&self, spans: &mut Spans) -> Result<Pass, String> {
        match self {
            Work::Frame(w) => w.pass(spans),
            Work::Stream(w) => w.pass(spans),
            Work::Crash(w) => w.pass(spans),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut named: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        named.insert(key.to_string(), value);
    }
    let get = |k: &str| named.get(k).ok_or_else(|| format!("missing --{k}"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Where a traced run writes its spans.
fn span_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}.jsonl"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <frame_offload|stream_mix|cluster_crash> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(work) = Work::generate(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    match run(&args, &work) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Runs passes until the time is up, prints the report and returns
/// whether every output was correct and every pass deterministic.
fn run(args: &Args, work: &Work) -> Result<bool, String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let mut traces: Vec<(usize, Spans)> = Vec::new();
    let mut drift: Vec<String> = Vec::new();
    while passes.len() < MIN_PASSES || (started.elapsed() < budget && started.elapsed() < HARD_STOP)
    {
        let index = passes.len();
        let traced = args.trace && index % 2 == 1;
        let mut spans = Spans::new(traced);
        let before = calib::host_probe_ns();
        let mut pass = work.pass(&mut spans)?;
        pass.probe_ns = (before + calib::host_probe_ns()) / 2;
        if let Some((first, _)) = passes.first() {
            drift.extend(report::drift(first, &pass, index));
        }
        if traced {
            traces.push((index, spans));
        }
        passes.push((pass, traced));
    }

    if args.trace {
        let path = span_path(&args.workload);
        write_spans(&path, &traces).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let summary = report::Summary::new(&args.workload, &passes, &traces, drift);
    summary.print(args);
    Ok(summary.correct())
}

fn write_spans(path: &std::path::Path, traces: &[(usize, Spans)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = BufWriter::new(File::create(path)?);
    for (index, spans) in traces {
        spans.write_jsonl(*index, &mut w)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 3] = ["frame_offload", "stream_mix", "cluster_crash"];

    /// A few dozen items of `name`: enough to cross every code path the
    /// full pass takes (self-checks, faults, a drain, a kill and both
    /// power losses).
    fn small(name: &str, seed: u64) -> Work {
        match name {
            "frame_offload" => Work::Frame(frame::Input::generate(seed, 40)),
            "stream_mix" => Work::Stream(streams::Input::generate(seed, 160)),
            "cluster_crash" => Work::Crash(crash::Input::generate(seed, 90)),
            _ => unreachable!("known workload"),
        }
    }

    fn pass(work: &Work) -> Pass {
        work.pass(&mut Spans::new(false)).expect("pass runs")
    }

    #[test]
    fn gate_fires_on_one_flipped_digest() {
        for name in WORKLOADS {
            let mut work = small(name, 7);
            match &mut work {
                Work::Frame(w) => w.flip_expected(3),
                Work::Stream(w) => w.flip_expected(3),
                Work::Crash(w) => w.flip_expected(3),
            }
            let p = pass(&work);
            assert_eq!(p.failed, 1, "{name}: {:?}", p.failures);
            assert_eq!(p.verified + 1, p.attempted, "{name}");
        }
    }

    #[test]
    fn same_seed_repeats_every_statistic_and_another_seed_passes() {
        for name in WORKLOADS {
            let work = small(name, 7);
            let (a, b) = (pass(&work), pass(&work));
            assert_eq!(a.failed, 0, "{name}: {:?}", a.failures);
            assert!(a.counts.len() > 10, "{name}: registry snapshot captured");
            assert_eq!(report::drift(&a, &b, 1), Vec::<String>::new(), "{name}");
            let other = pass(&small(name, 8));
            assert_eq!(other.failed, 0, "{name}: {:?}", other.failures);
            assert_ne!(a.counts, other.counts, "{name}: seeds differ");
        }
    }

    #[test]
    fn traced_pass_spans_every_layer_call() {
        let mut spans = Spans::new(true);
        let p = small("cluster_crash", 7)
            .pass(&mut spans)
            .expect("pass runs");
        let times = spans.self_times();
        for span in [
            "flow.build",
            "cluster.open",
            "cluster.tick",
            "wal.recover",
            "cluster.recover",
        ] {
            assert!(times.contains_key(span), "{span} recorded");
        }
        assert_eq!(times["cluster.tick"].1, p.steps_ns.len() as u64);
        assert_eq!(times["wal.recover"].1, p.recover_ns.len() as u64);
    }
}
