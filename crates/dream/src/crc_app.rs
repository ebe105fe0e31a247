//! The paper's test case: the 32-bit Ethernet CRC on DREAM (§4).
//!
//! The CRC is partitioned on **two PiCoGA operations**:
//!
//! 1. `crc-update` — the Derby-structured state update
//!    `x_t(n+M) = A_Mt·x_t(n) + B_Mt·u_M(n)`: a deep pipelined `B_Mt`
//!    network plus a one-row companion feedback, issuing one M-bit block
//!    per cycle;
//! 2. `crc-finalize` — the anti-transform `y = T·x_t`, triggered once per
//!    message ("it is required only at the end of the message and it does
//!    not break the pipeline evolution").
//!
//! Splitting across two configuration contexts "increases the resources
//! available thus allowing greater look-ahead factors"; the price is the
//! 2-cycle context switch per message, which message interleaving (Fig. 5)
//! amortises.

use crate::perf::{ControlModel, RunReport};
use gf2::BitVec;
use lfsr::crc::{message_bits, reflect, CrcSpec};
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyTransform, ParallelError};
use picoga::{MapError, OpStats, PgaOperation, PicogaParams, PicogaSim, SimError};
use std::fmt;
use xornet::{synthesize, SynthOptions};

/// Errors from building a DREAM CRC application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The specification itself is malformed (degenerate generator or
    /// scrambler polynomial).
    Spec(lfsr::LfsrError),
    /// The parallelisation math failed (zero M, singular Krylov…).
    Parallel(ParallelError),
    /// An operation did not fit the fabric.
    Map {
        /// Which operation failed.
        op: &'static str,
        /// The underlying mapping error.
        source: MapError,
    },
    /// Static verification rejected a mapped operation (strict-mode
    /// flows only; carries the fabric-lint report as a typed source).
    Verify {
        /// Which operation failed verification.
        op: &'static str,
        /// The diagnostics that rejected the mapping.
        source: verify::VerifyError,
    },
    /// The fabric could not host an operation (too few context slots).
    Fabric {
        /// Which operation could not be loaded.
        op: &'static str,
        /// The underlying simulator error.
        source: SimError,
    },
    /// Whole-configuration static analysis rejected a mapped operation
    /// (strict-mode flows only): a non-affine output (unsound basis
    /// probe) or a fabric bound exceeded.
    Analyze {
        /// Which operation failed analysis.
        op: &'static str,
        /// The `AZ`-coded findings that rejected the configuration.
        source: analyze::AnalyzeError,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Spec(e) => write!(f, "invalid specification: {e}"),
            BuildError::Parallel(e) => write!(f, "parallelisation failed: {e}"),
            BuildError::Map { op, source } => write!(f, "mapping '{op}' failed: {source}"),
            BuildError::Verify { op, source } => {
                write!(f, "verification of '{op}' failed:\n{source}")
            }
            BuildError::Fabric { op, source } => {
                write!(f, "fabric cannot host '{op}': {source}")
            }
            BuildError::Analyze { op, source } => {
                write!(f, "static analysis of '{op}' failed: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Spec(e) => Some(e),
            BuildError::Parallel(e) => Some(e),
            BuildError::Map { source, .. } => Some(source),
            BuildError::Verify { source, .. } => Some(source),
            BuildError::Fabric { source, .. } => Some(source),
            BuildError::Analyze { source, .. } => Some(source),
        }
    }
}

impl From<ParallelError> for BuildError {
    fn from(e: ParallelError) -> Self {
        BuildError::Parallel(e)
    }
}

impl From<lfsr::LfsrError> for BuildError {
    fn from(e: lfsr::LfsrError) -> Self {
        BuildError::Spec(e)
    }
}

/// Which datapath structure the flow selected for this generator/M pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcMethod {
    /// Derby's state-space transformation: companion feedback, II = 1,
    /// plus the anti-transform operation (the paper's choice).
    Derby,
    /// Dense look-ahead fallback: the whole `A^M` network sits in the
    /// loop, so the initiation interval equals the pipeline depth. Used
    /// when `A^M` is derogatory and no Krylov transform exists (possible
    /// for composite generators such as CRC-16/DECT at some M).
    DenseLookahead,
}

/// The selected datapath and its pre-computed math.
#[derive(Debug, Clone)]
enum Datapath {
    Derby(DerbyTransform),
    Dense(BlockSystem),
}

/// A ready-to-run CRC accelerator on the DREAM model.
#[derive(Debug, Clone)]
pub struct DreamCrcApp {
    spec: CrcSpec,
    m: usize,
    datapath: Datapath,
    serial: StateSpaceLfsr,
    sim: PicogaSim,
    control: ControlModel,
    update_stats: OpStats,
    finalize_stats: Option<OpStats>,
}

/// Context slots used by the CRC application.
const UPDATE_SLOT: usize = 0;
const FINALIZE_SLOT: usize = 1;

impl DreamCrcApp {
    /// Builds, maps and loads the two PGA operations for `spec` at
    /// look-ahead `m` on a fabric described by `params`.
    ///
    /// # Errors
    ///
    /// [`BuildError`] when the math or the mapping fails (e.g. M too large
    /// for the array — the paper found 128 to be the DREAM limit).
    pub fn build(
        spec: &CrcSpec,
        m: usize,
        params: &PicogaParams,
        synth: SynthOptions,
        control: ControlModel,
    ) -> Result<Self, BuildError> {
        // Fail fast on the I/O budget before doing any heavy math: the
        // update operation must stream M data bits per issue.
        if m > params.input_bits {
            return Err(BuildError::Map {
                op: "crc-update",
                source: MapError::TooManyInputs {
                    needed: m,
                    available: params.input_bits,
                },
            });
        }
        let serial = StateSpaceLfsr::crc(&spec.generator())?;
        let block = BlockSystem::new(&serial, m)?;

        let mut sim = PicogaSim::new(*params);
        let (datapath, update_stats, finalize_stats) = match DerbyTransform::new(&block) {
            Ok(derby) => {
                let update_net = synthesize(derby.b_mt(), synth);
                let update =
                    PgaOperation::crc_update("crc-update", update_net, derby.a_mt(), params)
                        .map_err(|source| BuildError::Map {
                            op: "crc-update",
                            source,
                        })?;
                let finalize_net = synthesize(derby.t(), synth);
                let finalize = PgaOperation::linear("crc-finalize", finalize_net, params).map_err(
                    |source| BuildError::Map {
                        op: "crc-finalize",
                        source,
                    },
                )?;
                let us = update.stats();
                let fs = finalize.stats();
                sim.load_context(UPDATE_SLOT, update)
                    .map_err(|source| BuildError::Fabric {
                        op: "crc-update",
                        source,
                    })?;
                sim.load_context(FINALIZE_SLOT, finalize)
                    .map_err(|source| BuildError::Fabric {
                        op: "crc-finalize",
                        source,
                    })?;
                (Datapath::Derby(derby), us, Some(fs))
            }
            Err(ParallelError::SingularKrylov { .. }) => {
                // No cyclic vector for A^M: fall back to the dense
                // look-ahead structure (II = latency, no anti-transform).
                let dense_net = synthesize(&block.a_m().hstack(block.b_m()), synth);
                let update = PgaOperation::crc_update_dense(
                    "crc-update-dense",
                    dense_net,
                    spec.width,
                    params,
                )
                .map_err(|source| BuildError::Map {
                    op: "crc-update-dense",
                    source,
                })?;
                let us = update.stats();
                sim.load_context(UPDATE_SLOT, update)
                    .map_err(|source| BuildError::Fabric {
                        op: "crc-update-dense",
                        source,
                    })?;
                (Datapath::Dense(block), us, None)
            }
            Err(e) => return Err(e.into()),
        };
        sim.reset_counters(); // one-time configuration load is not charged per run

        Ok(DreamCrcApp {
            spec: *spec,
            m,
            datapath,
            serial,
            sim,
            control,
            update_stats,
            finalize_stats,
        })
    }

    /// The fabric simulator this application runs on — read access for
    /// observability (cycle counters, profiler, tracer).
    pub fn fabric(&self) -> &PicogaSim {
        &self.sim
    }

    /// The CRC spec in use.
    pub fn spec(&self) -> &CrcSpec {
        &self.spec
    }

    /// The look-ahead factor (bits per fabric cycle).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Resource statistics of the state-update operation.
    pub fn update_stats(&self) -> OpStats {
        self.update_stats
    }

    /// The loaded state-update operation (for inspection and static
    /// verification of the resident configuration).
    pub fn update_op(&self) -> &PgaOperation {
        self.sim.context(UPDATE_SLOT).expect("loaded at build")
    }

    /// The loaded anti-transform operation (absent for the dense
    /// fallback).
    pub fn finalize_op(&self) -> Option<&PgaOperation> {
        self.sim.context(FINALIZE_SLOT)
    }

    /// Resource statistics of the anti-transform operation (absent for the
    /// dense fallback, which needs no second operation).
    pub fn finalize_stats(&self) -> Option<OpStats> {
        self.finalize_stats
    }

    /// The block system of the dense fallback, when that method is in use
    /// (exposes `A^M`/`B_M` for inspection and reporting).
    pub fn dense_block_system(&self) -> Option<&lfsr_parallel::BlockSystem> {
        match &self.datapath {
            Datapath::Dense(b) => Some(b),
            Datapath::Derby(_) => None,
        }
    }

    /// The datapath structure the flow selected.
    pub fn method(&self) -> CrcMethod {
        match &self.datapath {
            Datapath::Derby(_) => CrcMethod::Derby,
            Datapath::Dense(_) => CrcMethod::DenseLookahead,
        }
    }

    /// The Derby transform backing the datapath, when that method is in
    /// use.
    pub fn transform(&self) -> Option<&DerbyTransform> {
        match &self.datapath {
            Datapath::Derby(d) => Some(d),
            Datapath::Dense(_) => None,
        }
    }

    /// Kernel-only peak throughput (infinite message, no overhead):
    /// M bits per initiation interval at the fabric clock — the Fig. 6
    /// DREAM line. II is 1 for Derby, the pipeline depth for the dense
    /// fallback.
    pub fn kernel_throughput_bps(&self) -> f64 {
        self.m as f64 * self.sim.params().clock_hz / self.update_stats.initiation_interval as f64
    }

    /// Computes one message's checksum, returning the spec-conventional
    /// CRC value and the cycle report (processor control, fabric compute,
    /// context switches, software tail).
    pub fn checksum(&mut self, data: &[u8]) -> (u64, RunReport) {
        self.sim.reset_counters();
        let mut report = RunReport {
            bits: (data.len() * 8) as u64,
            ..Default::default()
        };
        report.control_cycles += self.control.msg_setup_cycles;

        let bits = message_bits(&self.spec, data);
        let init = BitVec::from_u64(self.spec.init & self.spec.mask(), self.spec.width);
        let raw = self.raw_process(&init, &bits, &mut report);

        report.control_cycles += self.control.msg_finalize_cycles;
        report.picoga = self.sim.counters();
        (self.apply_out_conventions(&raw), report)
    }

    /// Computes checksums for a batch of messages with Kong–Parhi style
    /// interleaving (Fig. 5): the M-bit blocks of all messages are issued
    /// **round-robin into one continuous pipeline wave**, so the pipeline
    /// fill and the two context switches are paid once per batch instead
    /// of once per message.
    pub fn checksum_interleaved(&mut self, messages: &[&[u8]]) -> (Vec<u64>, RunReport) {
        self.sim.reset_counters();
        let mut report = RunReport::default();
        let init = BitVec::from_u64(self.spec.init & self.spec.mask(), self.spec.width);

        // Slice every message into blocks; tails stay on the processor.
        let mut all_blocks: Vec<Vec<BitVec>> = Vec::with_capacity(messages.len());
        let mut tails: Vec<BitVec> = Vec::with_capacity(messages.len());
        for data in messages {
            report.bits += (data.len() * 8) as u64;
            report.control_cycles += self.control.msg_setup_cycles + self.control.state_swap_cycles;
            let bits = message_bits(&self.spec, data);
            let full = bits.len() / self.m;
            all_blocks.push((0..full).map(|c| bits.slice(c * self.m, self.m)).collect());
            tails.push(bits.slice(full * self.m, bits.len() - full * self.m));
        }

        // Phase 1: one configuration, one continuous interleaved stream
        // (Derby), or per-message dense bursts (fallback: no fill to
        // share since II already equals the latency).
        self.switch_profiled(UPDATE_SLOT);
        let plain_states: Vec<BitVec> = match &self.datapath {
            Datapath::Derby(derby) => {
                let x_t0 = derby.transform_state(&init);
                let mut states: Vec<BitVec> = vec![x_t0; messages.len()];
                let counts: Vec<usize> = all_blocks.iter().map(std::vec::Vec::len).collect();
                let schedule = lfsr_parallel::round_robin_schedule(&counts);
                let items = schedule
                    .iter()
                    .map(|slot| (slot.msg, &all_blocks[slot.msg][slot.block]));
                self.sim
                    .run_crc_interleaved(&mut states, items)
                    .expect("shape checked at build time");
                // Phase 2: anti-transforms, the other configuration.
                self.switch_profiled(FINALIZE_SLOT);
                states
                    .into_iter()
                    .map(|x_t| self.sim.run_linear(&x_t).expect("shape checked"))
                    .collect()
            }
            Datapath::Dense(_) => all_blocks
                .iter()
                .map(|blocks| {
                    self.sim
                        .run_crc_stream_dense(&init, blocks.iter())
                        .expect("shape checked at build time")
                })
                .collect(),
        };

        let mut out = Vec::with_capacity(messages.len());
        for (mut x, tail) in plain_states.into_iter().zip(tails) {
            if !tail.is_empty() {
                report.tail_cycles +=
                    (tail.len() as u64).div_ceil(8) * self.control.tail_cycles_per_byte;
                self.serial.set_state(x);
                self.serial.absorb(&tail);
                x = self.serial.state().clone();
            }
            report.control_cycles += self.control.msg_finalize_cycles;
            out.push(self.apply_out_conventions(&x));
        }

        report.picoga = self.sim.counters();
        (out, report)
    }

    /// Raw single-message path: transform, stream blocks, switch context,
    /// anti-transform, software tail (Derby), or one-configuration dense
    /// streaming (fallback).
    fn raw_process(&mut self, init: &BitVec, bits: &BitVec, report: &mut RunReport) -> BitVec {
        let full = bits.len() / self.m;
        let blocks: Vec<BitVec> = (0..full).map(|c| bits.slice(c * self.m, self.m)).collect();

        self.switch_profiled(UPDATE_SLOT);
        let mut x = match &self.datapath {
            Datapath::Derby(derby) => {
                let x_t0 = derby.transform_state(init);
                let x_t = self
                    .sim
                    .run_crc_stream(&x_t0, blocks.iter())
                    .expect("shape checked at build time");
                self.switch_profiled(FINALIZE_SLOT);
                self.sim.run_linear(&x_t).expect("shape checked")
            }
            Datapath::Dense(_) => self
                .sim
                .run_crc_stream_dense(init, blocks.iter())
                .expect("shape checked at build time"),
        };

        let tail_len = bits.len() - full * self.m;
        if tail_len > 0 {
            report.tail_cycles += (tail_len as u64).div_ceil(8) * self.control.tail_cycles_per_byte;
            self.serial.set_state(x);
            self.serial.absorb(&bits.slice(full * self.m, tail_len));
            x = self.serial.state().clone();
        }
        x
    }

    /// Switches the fabric to `slot` and points the profiler lane at the
    /// incoming operation, so standalone apps (no DREAM cache layer above
    /// them) still attribute fabric busy-cycles per personality.
    fn switch_profiled(&mut self, slot: usize) {
        let name = self
            .sim
            .context(slot)
            .map(|op| op.name().to_string())
            .expect("loaded at build");
        self.sim.obs_mut().profiler.set_lane(&name);
        self.sim.switch_to(slot).expect("loaded");
    }

    fn apply_out_conventions(&self, raw: &BitVec) -> u64 {
        let mut out = raw.to_u64();
        if self.spec.refout {
            out = reflect(out, self.spec.width);
        }
        (out ^ self.spec.xorout) & self.spec.mask()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfsr::crc::crc_bitwise;

    fn app(m: usize) -> DreamCrcApp {
        DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            m,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap()
    }

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 89 + 17) as u8).collect()
    }

    #[test]
    fn checksums_match_software_for_all_m() {
        for m in [8usize, 32, 64, 128] {
            let mut a = app(m);
            for len in [0usize, 1, 9, 46, 64, 123, 1518] {
                let data = msg(len);
                let (got, report) = a.checksum(&data);
                assert_eq!(
                    got,
                    crc_bitwise(CrcSpec::crc32_ethernet(), &data),
                    "M={m} len={len}"
                );
                assert_eq!(report.bits, (len * 8) as u64);
            }
        }
    }

    #[test]
    fn check_value_is_published() {
        let mut a = app(32);
        let (got, _) = a.checksum(b"123456789");
        assert_eq!(got, 0xCBF43926);
    }

    #[test]
    fn too_few_context_slots_is_a_typed_error_not_a_panic() {
        // The Derby datapath needs two contexts (update + finalize); a
        // single-context fabric must be refused, not unwound.
        let mut params = PicogaParams::dream();
        params.contexts = 1;
        let err = DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            32,
            &params,
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                BuildError::Fabric {
                    op: "crc-finalize",
                    ..
                }
            ),
            "{err}"
        );
        let rendered = err.to_string();
        assert!(rendered.contains("crc-finalize"), "{rendered}");
        assert!(
            std::error::Error::source(&err).is_some(),
            "fabric errors carry their simulator cause"
        );
    }

    #[test]
    fn m128_fits_dream_and_m256_does_not() {
        // §4: "PiCoGA is able to elaborate up to 128 bit per cycle."
        assert!(DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            128,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .is_ok());
        let err = DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            256,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap_err();
        assert!(matches!(err, BuildError::Map { .. }), "{err}");
    }

    #[test]
    fn longer_messages_sustain_higher_throughput() {
        let mut a = app(128);
        let clock = 200e6;
        let (_, short) = a.checksum(&msg(46)); // 368-bit Ethernet minimum
        let (_, long) = a.checksum(&msg(1518)); // 12144-bit maximum
        assert!(long.throughput_bps(clock) > short.throughput_bps(clock));
        // A block-aligned long message approaches the M·f kernel bound.
        let (_, aligned) = a.checksum(&msg(1536)); // 96 full 128-bit blocks
        assert!(aligned.throughput_bps(clock) > 0.5 * a.kernel_throughput_bps());
    }

    #[test]
    fn interleaving_beats_sequential_on_short_messages() {
        let mut a = app(128);
        let batch: Vec<Vec<u8>> = (0..32).map(|_| msg(64)).collect();
        let refs: Vec<&[u8]> = batch.iter().map(std::vec::Vec::as_slice).collect();

        let (sums, il_report) = a.checksum_interleaved(&refs);
        for (s, d) in sums.iter().zip(&batch) {
            assert_eq!(*s, crc_bitwise(CrcSpec::crc32_ethernet(), d));
        }

        let mut seq_report = RunReport::default();
        for d in &batch {
            let (_, r) = a.checksum(d);
            seq_report.absorb(&r);
        }
        assert!(
            il_report.total_cycles() < seq_report.total_cycles(),
            "interleaved {} !< sequential {}",
            il_report.total_cycles(),
            seq_report.total_cycles()
        );
    }

    #[test]
    fn dense_fallback_handles_derogatory_generators() {
        // CRC-16/DECT at M=16: A^16 has no cyclic vector, so Derby's
        // transform does not exist; the flow must fall back to the dense
        // structure and stay bit-exact (at an II > 1 cost).
        let spec = CrcSpec::by_name("CRC-16/DECT-X").unwrap();
        let mut a = DreamCrcApp::build(
            spec,
            16,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap();
        assert_eq!(a.method(), CrcMethod::DenseLookahead);
        assert!(a.transform().is_none());
        assert!(a.finalize_stats().is_none());
        assert!(a.update_stats().initiation_interval > 1);
        let data = msg(123);
        let (got, _) = a.checksum(&data);
        assert_eq!(got, crc_bitwise(spec, &data));
        // Interleaved batch path also works for the fallback.
        let batch = [msg(32), msg(50)];
        let refs: Vec<&[u8]> = batch.iter().map(std::vec::Vec::as_slice).collect();
        let (sums, _) = a.checksum_interleaved(&refs);
        assert_eq!(sums[0], crc_bitwise(spec, &batch[0]));
        assert_eq!(sums[1], crc_bitwise(spec, &batch[1]));
        // The fallback's kernel rate is II times slower than Derby's would be.
        assert!(a.kernel_throughput_bps() < 16.0 * 200e6);
    }

    #[test]
    fn kernel_throughput_is_m_times_clock() {
        let a = app(128);
        assert!((a.kernel_throughput_bps() - 128.0 * 200e6).abs() < 1.0);
        // ~25.6 Gbit/s: the paper's headline "ο25 Gbit/sec".
        assert!(a.kernel_throughput_bps() > 25e9);
    }

    #[test]
    fn update_op_resources_are_within_array() {
        let a = app(128);
        let p = PicogaParams::dream();
        let s = a.update_stats();
        assert!(s.rows <= p.rows);
        assert!(s.cells <= p.total_cells());
        assert_eq!(s.initiation_interval, 1);
    }
}

impl DreamCrcApp {
    /// Computes the checksum of a message resident in the local memory
    /// subsystem: `len_bytes` starting at word `base` are fetched through
    /// `M/32` parallel address generators (one per 32-bit fabric port),
    /// and bank-conflict stalls are charged to the run.
    ///
    /// The message length must be a multiple of the M-bit block size for
    /// this path (DMA framing pads messages to port width in practice).
    ///
    /// # Errors
    ///
    /// [`crate::MemoryError`] for out-of-range streams, an `M` that is
    /// not a multiple of the port width, or a message length that is not
    /// block-aligned.
    pub fn checksum_streamed(
        &mut self,
        mem: &crate::LocalMemory,
        base: usize,
        len_bytes: usize,
    ) -> Result<(u64, RunReport), crate::MemoryError> {
        let word_bits = mem.params().word_bits;
        if !self.m.is_multiple_of(word_bits) {
            return Err(crate::MemoryError::PortMismatch {
                m: self.m,
                word_bits,
            });
        }
        if !(len_bytes * 8).is_multiple_of(self.m) {
            return Err(crate::MemoryError::UnalignedMessage {
                bits: len_bytes * 8,
                m: self.m,
            });
        }
        let ports = self.m / word_bits;
        let blocks_n = len_bytes * 8 / self.m;
        let generators: Vec<crate::AddressGenerator> = (0..ports)
            .map(|p| crate::AddressGenerator {
                base: base + p,
                stride: ports,
                count: blocks_n,
            })
            .collect();
        let (mut blocks, stalls) = mem.stream_blocks(&generators)?;

        // Memory words arrive LSB-first; for refin specs that IS the
        // message bit order, for MSB-first specs the port wiring reverses
        // each byte (free static routing — modelled here).
        if !self.spec.refin {
            for b in &mut blocks {
                let mut fixed = BitVec::zeros(b.len());
                for byte in 0..b.len() / 8 {
                    for k in 0..8 {
                        if b.get(byte * 8 + k) {
                            fixed.set(byte * 8 + (7 - k), true);
                        }
                    }
                }
                *b = fixed;
            }
        }

        self.sim.reset_counters();
        let mut report = RunReport {
            bits: (len_bytes * 8) as u64,
            control_cycles: self.control.msg_setup_cycles + self.control.msg_finalize_cycles,
            memory_stall_cycles: stalls,
            ..Default::default()
        };

        let init = BitVec::from_u64(self.spec.init & self.spec.mask(), self.spec.width);
        self.switch_profiled(UPDATE_SLOT);
        let x = match &self.datapath {
            Datapath::Derby(derby) => {
                let x_t0 = derby.transform_state(&init);
                let x_t = self
                    .sim
                    .run_crc_stream(&x_t0, blocks.iter())
                    .expect("shape checked at build time");
                self.switch_profiled(FINALIZE_SLOT);
                self.sim.run_linear(&x_t).expect("shape checked")
            }
            Datapath::Dense(_) => self
                .sim
                .run_crc_stream_dense(&init, blocks.iter())
                .expect("shape checked at build time"),
        };

        report.picoga = self.sim.counters();
        Ok((self.apply_out_conventions(&x), report))
    }
}

#[cfg(test)]
mod memory_streaming_tests {
    use super::*;
    use crate::memory::{LocalMemory, MemoryParams};
    use lfsr::crc::crc_bitwise;

    #[test]
    fn streamed_checksum_matches_software_and_counts_no_stalls() {
        let mut app = DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            128,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap();
        let mut mem = LocalMemory::new(MemoryParams::dream());
        let frame: Vec<u8> = (0..1536).map(|i| (i * 7 + 1) as u8).collect();
        mem.write_bytes(0, &frame).unwrap();

        let (crc, report) = app.checksum_streamed(&mem, 0, frame.len()).unwrap();
        assert_eq!(crc, crc_bitwise(CrcSpec::crc32_ethernet(), &frame));
        assert_eq!(report.memory_stall_cycles, 0, "unit-stride layout is clean");
        assert_eq!(report.bits, 1536 * 8);
    }

    #[test]
    fn streamed_checksum_handles_msb_first_specs() {
        // MPEG-2 is refin = false: the port wiring reverses each byte.
        let spec = CrcSpec::crc32_mpeg2();
        let mut app = DreamCrcApp::build(
            spec,
            64,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap();
        let mut mem = LocalMemory::new(MemoryParams::dream());
        let frame: Vec<u8> = (0..512).map(|i| (i * 13 + 5) as u8).collect();
        mem.write_bytes(8, &frame).unwrap();
        let (crc, _) = app.checksum_streamed(&mem, 8, frame.len()).unwrap();
        assert_eq!(crc, crc_bitwise(spec, &frame));
    }

    #[test]
    fn out_of_range_stream_propagates() {
        let mut app = DreamCrcApp::build(
            CrcSpec::crc32_ethernet(),
            32,
            &PicogaParams::dream(),
            SynthOptions::default(),
            ControlModel::default(),
        )
        .unwrap();
        let mem = LocalMemory::new(MemoryParams::dream());
        let res = app.checksum_streamed(&mem, 16 * 1024 - 2, 64);
        assert!(res.is_err());
    }
}
