//! Cycle-accurate PiCoGA simulator.
//!
//! [`PicogaSim`] executes placed [`PgaOperation`]s bit-true while counting
//! cycles exactly as the fabric's row pipeline would spend them:
//!
//! * one wavefront of data advances one **row** per cycle;
//! * a new block issues every cycle (II = 1) — for CRC updates the state
//!   feedback is confined to its single row, so back-to-back issue is
//!   legal by construction;
//! * switching the active configuration context costs
//!   [`PicogaParams::context_switch_cycles`] (2 on DREAM);
//! * loading a context from off-fabric configuration memory costs
//!   [`PicogaParams::context_load_cycles`] and is charged only on misses.

use crate::arch::PicogaParams;
use crate::datapath::Datapath;
use crate::fault::{ConfigFault, InjectError, LoadCorruption, LoadFault};
use crate::op::PgaOperation;
use gf2::BitVec;
use obs::{EventKind, ObsHub};
use std::fmt;

/// Errors from driving the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Context slot out of range.
    BadSlot {
        /// The requested slot.
        slot: usize,
        /// Number of contexts.
        contexts: usize,
    },
    /// No operation loaded in the addressed slot.
    EmptySlot {
        /// The requested slot.
        slot: usize,
    },
    /// No context has been activated yet.
    NoActiveContext,
    /// The active operation has a different shape than the call expects.
    WrongOpShape {
        /// What the call needed.
        expected: &'static str,
    },
    /// Input width does not match the operation.
    InputWidthMismatch {
        /// Bits supplied.
        got: usize,
        /// Bits expected.
        expected: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadSlot { slot, contexts } => {
                write!(
                    f,
                    "context slot {slot} out of range (fabric has {contexts})"
                )
            }
            SimError::EmptySlot { slot } => write!(f, "context slot {slot} is empty"),
            SimError::NoActiveContext => write!(f, "no active context selected"),
            SimError::WrongOpShape { expected } => {
                write!(f, "active operation is not a {expected} operation")
            }
            SimError::InputWidthMismatch { got, expected } => {
                write!(f, "input width {got} does not match operation ({expected})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Cycle breakdown maintained by the simulator.
///
/// Since the observability migration this is a thin *view*: the values
/// live in the simulator's [`obs::MetricsRegistry`] under
/// `picoga.cycles.*` and are assembled on demand by
/// [`PicogaSim::counters`]. The struct itself is unchanged so existing
/// callers keep working.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounters {
    /// Cycles spent streaming data through an operation (incl. pipeline
    /// fill and drain).
    pub compute: u64,
    /// Cycles spent exchanging the active context.
    pub context_switch: u64,
    /// Cycles spent loading configurations from off-fabric memory.
    pub context_load: u64,
}

impl CycleCounters {
    /// Total cycles.
    pub fn total(&self) -> u64 {
        self.compute + self.context_switch + self.context_load
    }
}

/// The fabric simulator: configuration cache + active pipeline.
#[derive(Debug, Clone)]
pub struct PicogaSim {
    params: PicogaParams,
    contexts: Vec<Option<PgaOperation>>,
    active: Option<usize>,
    /// The observability spine: metrics registry (including the cycle
    /// counters), cycle-stamped event tracer, and fabric profiler. The
    /// layers above reach it through [`PicogaSim::obs_mut`].
    obs: ObsHub,
    /// Physical stuck-at cell faults: `(row, cell, value)`. They outlive
    /// context loads — reloading a configuration does not repair silicon.
    stuck: Vec<(usize, usize, bool)>,
    /// Corruptions armed against future context loads.
    pending_load_faults: Vec<LoadCorruption>,
    /// Count of `load_context` calls since construction (the 0-based
    /// index [`LoadCorruption::load_index`] refers to).
    loads_seen: u64,
}

/// The operation in the active context. A free function over the
/// context table so callers can keep borrowing it while they charge
/// cycles to the registry.
fn active_op(
    contexts: &[Option<PgaOperation>],
    active: Option<usize>,
) -> Result<&PgaOperation, SimError> {
    let slot = active.ok_or(SimError::NoActiveContext)?;
    contexts[slot].as_ref().ok_or(SimError::EmptySlot { slot })
}

impl PicogaSim {
    /// Creates a simulator for the given fabric.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail validation.
    pub fn new(params: PicogaParams) -> Self {
        params.validate().expect("invalid fabric parameters");
        PicogaSim {
            contexts: vec![None; params.contexts],
            obs: ObsHub::new(params.rows),
            params,
            active: None,
            stuck: Vec::new(),
            pending_load_faults: Vec::new(),
            loads_seen: 0,
        }
    }

    /// Fabric parameters.
    pub fn params(&self) -> &PicogaParams {
        &self.params
    }

    /// Cycle counters so far (a view assembled from the registry).
    pub fn counters(&self) -> CycleCounters {
        CycleCounters {
            compute: self.obs.registry.counter_value(self.obs.cycles.compute),
            context_switch: self
                .obs
                .registry
                .counter_value(self.obs.cycles.context_switch),
            context_load: self
                .obs
                .registry
                .counter_value(self.obs.cycles.context_load),
        }
    }

    /// Resets the cycle counters (configurations stay loaded; the tracer
    /// and profiler are untouched).
    pub fn reset_counters(&mut self) {
        self.obs.registry.set_counter(self.obs.cycles.compute, 0);
        self.obs
            .registry
            .set_counter(self.obs.cycles.context_switch, 0);
        self.obs
            .registry
            .set_counter(self.obs.cycles.context_load, 0);
    }

    /// The observability hub (metrics registry, tracer, profiler).
    pub fn obs(&self) -> &ObsHub {
        &self.obs
    }

    /// Mutable access to the observability hub, used by the layers above
    /// to register their own metrics and record correlated events.
    pub fn obs_mut(&mut self) -> &mut ObsHub {
        &mut self.obs
    }

    /// Currently active slot.
    pub fn active_slot(&self) -> Option<usize> {
        self.active
    }

    /// The operation resident in context `slot`, if any — read-only
    /// access for inspection and static verification of loaded contexts.
    pub fn context(&self, slot: usize) -> Option<&PgaOperation> {
        self.contexts.get(slot).and_then(Option::as_ref)
    }

    /// Loads an operation into a context slot, charging the off-fabric
    /// load cost.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSlot`] if the slot does not exist.
    pub fn load_context(&mut self, slot: usize, mut op: PgaOperation) -> Result<(), SimError> {
        if slot >= self.contexts.len() {
            return Err(SimError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        let idx = self.loads_seen;
        self.loads_seen += 1;
        // Deliver any corruption armed against this load. A corruption
        // whose coordinates miss the incoming operation lands in unused
        // configuration padding: physically real, semantically harmless.
        let mut i = 0;
        while i < self.pending_load_faults.len() {
            if self.pending_load_faults[i].load_index == idx {
                match self.pending_load_faults.remove(i).fault {
                    LoadFault::WireFlip {
                        gate,
                        pin,
                        new_signal,
                    } => {
                        let _ = op.corrupt_wire(gate, pin, new_signal);
                    }
                    LoadFault::TapFlip { output, new_tap } => {
                        let _ = op.corrupt_output_tap(output, new_tap);
                    }
                }
            } else {
                i += 1;
            }
        }
        self.contexts[slot] = Some(op);
        self.obs.registry.add(
            self.obs.cycles.context_load,
            self.params.context_load_cycles,
        );
        self.obs.event(EventKind::ContextLoad { slot });
        if self.active == Some(slot) {
            self.active = None;
        }
        Ok(())
    }

    /// Injects one fault into the fabric: an SEU in a resident context
    /// (wire/tap flip, mutating the stored configuration) or a physical
    /// stuck-at cell (persisting across context reloads). A second
    /// stuck-at fault on the same cell replaces the first.
    ///
    /// # Errors
    ///
    /// [`InjectError`] when the fault addresses a slot, gate, pin,
    /// signal, or cell that does not exist.
    pub fn inject(&mut self, fault: &ConfigFault) -> Result<(), InjectError> {
        match *fault {
            ConfigFault::WireFlip {
                slot,
                gate,
                pin,
                new_signal,
            } => self
                .context_mut_for_fault(slot)?
                .corrupt_wire(gate, pin, new_signal),
            ConfigFault::TapFlip {
                slot,
                output,
                new_tap,
            } => self
                .context_mut_for_fault(slot)?
                .corrupt_output_tap(output, new_tap),
            ConfigFault::StuckCell { row, cell, value } => {
                if row >= self.params.rows {
                    return Err(InjectError::BadCoordinate {
                        what: "row",
                        got: row,
                        bound: self.params.rows,
                    });
                }
                if cell >= self.params.cells_per_row {
                    return Err(InjectError::BadCoordinate {
                        what: "cell",
                        got: cell,
                        bound: self.params.cells_per_row,
                    });
                }
                if let Some(e) = self.stuck.iter_mut().find(|e| e.0 == row && e.1 == cell) {
                    e.2 = value;
                } else {
                    self.stuck.push((row, cell, value));
                }
                Ok(())
            }
        }
    }

    fn context_mut_for_fault(&mut self, slot: usize) -> Result<&mut PgaOperation, InjectError> {
        if slot >= self.contexts.len() {
            return Err(InjectError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        self.contexts[slot]
            .as_mut()
            .ok_or(InjectError::EmptySlot { slot })
    }

    /// Arms a corruption against a future context load (see
    /// [`LoadCorruption`]). Several corruptions may target the same load.
    pub fn arm_load_corruption(&mut self, corruption: LoadCorruption) {
        self.pending_load_faults.push(corruption);
    }

    /// Applies a whole [`FaultPlan`]: injects every configuration fault
    /// and arms every load corruption. Stops at the first invalid
    /// coordinate (faults before it stay applied).
    ///
    /// # Errors
    ///
    /// The first [`InjectError`] encountered.
    pub fn apply_plan(&mut self, plan: &crate::fault::FaultPlan) -> Result<(), InjectError> {
        for f in &plan.config {
            self.inject(f)?;
        }
        for &c in &plan.loads {
            self.arm_load_corruption(c);
        }
        Ok(())
    }

    /// Context loads performed since construction — the index space of
    /// [`LoadCorruption::load_index`].
    pub fn loads_seen(&self) -> u64 {
        self.loads_seen
    }

    /// The physical stuck-at cell faults currently present, as
    /// `(row, cell, value)` triples.
    pub fn stuck_cells(&self) -> &[(usize, usize, bool)] {
        &self.stuck
    }

    /// Repairs all stuck-at cell faults (test/diagnostic hook; real
    /// silicon stays broken, which is what the recovery ladder's
    /// re-placement and software-fallback rungs exist for).
    pub fn clear_stuck_cells(&mut self) {
        self.stuck.clear();
    }

    /// Makes `slot` the active context, charging the 2-cycle exchange when
    /// it actually changes.
    ///
    /// # Errors
    ///
    /// [`SimError::BadSlot`] / [`SimError::EmptySlot`].
    pub fn switch_to(&mut self, slot: usize) -> Result<(), SimError> {
        if slot >= self.contexts.len() {
            return Err(SimError::BadSlot {
                slot,
                contexts: self.contexts.len(),
            });
        }
        if self.contexts[slot].is_none() {
            return Err(SimError::EmptySlot { slot });
        }
        if self.active != Some(slot) {
            self.obs.registry.add(
                self.obs.cycles.context_switch,
                self.params.context_switch_cycles,
            );
            self.obs.event(EventKind::ContextSwitch { slot });
            self.active = Some(slot);
        }
        Ok(())
    }

    /// Runs one issue of the active **linear** operation, charging its full
    /// latency (used for one-shot networks like the CRC anti-transform).
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_linear(&mut self, inputs: &BitVec) -> Result<BitVec, SimError> {
        let op = active_op(&self.contexts, self.active)?;
        if !op.is_linear() {
            return Err(SimError::WrongOpShape { expected: "linear" });
        }
        let net = op.network();
        if inputs.len() != net.n_inputs() {
            return Err(SimError::InputWidthMismatch {
                got: inputs.len(),
                expected: net.n_inputs(),
            });
        }
        let stats = op.stats();
        let out = Datapath::compile(net, op.placement(), &self.stuck).eval(inputs);
        let latency = stats.latency.max(1);
        self.obs.registry.add(self.obs.cycles.compute, latency);
        self.obs.profiler.record_stream(stats.rows, latency, 1);
        Ok(out)
    }

    /// Physical self-test of the active operation: evaluates the zero
    /// vector and every input basis vector through the physical
    /// datapath (stuck-at effects included) and compares each response
    /// against the resident configuration's matrix.
    ///
    /// This is *complete* for the fabric's fault model: the networks
    /// are XOR-only, so any combination of stuck-at cells leaves the
    /// physical function affine, and an affine map equals the
    /// configured linear map iff the two agree on the zero vector and
    /// the full input basis. (Configuration corruption — wire or tap
    /// flips — moves the matrix itself and is the scrub's job; this
    /// probe catches what the scrub structurally cannot.) The simulator
    /// reads those `n + 1` responses straight off the compiled datapath:
    /// the zero response is its constant vector and the response to
    /// basis vector `e_j` is its mask column `j` plus that constant.
    ///
    /// Charges one latency per evaluation: self-checking is not free.
    ///
    /// Returns `true` when the datapath matches the configuration.
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveContext`] / [`SimError::EmptySlot`].
    pub fn affine_probe(&mut self) -> Result<bool, SimError> {
        let op = active_op(&self.contexts, self.active)?;
        let net = op.network();
        let stats = op.stats();
        let latency = stats.latency.max(1);
        let n = net.n_inputs();
        self.obs
            .registry
            .add(self.obs.cycles.compute, latency * (n as u64 + 1));
        self.obs
            .profiler
            .record_iterative(stats.rows, latency, n as u64 + 1);

        let dp = Datapath::compile(net, op.placement(), &self.stuck);
        let expected = net.to_matrix();
        Ok(dp.consts().is_zero()
            && (0..expected.rows()).all(|i| dp.mask(i) == expected.row(i).words()))
    }

    /// Streams `blocks` through the active **CRC update** operation,
    /// starting from transformed state `x_t`; returns the final transformed
    /// state.
    ///
    /// Cycle cost: pipeline latency + one cycle per additional block
    /// (II = 1). An empty stream costs nothing.
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_crc_stream<'a, I>(&mut self, x_t: &BitVec, blocks: I) -> Result<BitVec, SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let op = active_op(&self.contexts, self.active)?;
        if !op.is_crc_update() {
            return Err(SimError::WrongOpShape {
                expected: "CRC update",
            });
        }
        let fb = op.feedback().expect("crc update has feedback");
        let net = op.network();
        let stats = op.stats();
        let latency = stats.latency;

        let mut dp = None;
        let mut state = x_t.clone();
        let mut n: u64 = 0;
        for block in blocks {
            if block.len() != net.n_inputs() {
                return Err(SimError::InputWidthMismatch {
                    got: block.len(),
                    expected: net.n_inputs(),
                });
            }
            // Feed-forward wavefront, then the single feedback row.
            let dp = dp.get_or_insert_with(|| Datapath::compile(net, op.placement(), &self.stuck));
            state = fb.apply(&state, &dp.eval(block));
            n += 1;
        }
        if n > 0 {
            self.obs
                .registry
                .add(self.obs.cycles.compute, latency + (n - 1));
            self.obs.profiler.record_stream(stats.rows, latency, n);
        }
        Ok(state)
    }

    /// Streams `blocks` through the active **dense look-ahead** update
    /// operation: `x′ = net([x | u])`. The feedback spans the whole
    /// pipeline, so each block costs the full latency (II = latency).
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_crc_stream_dense<'a, I>(
        &mut self,
        state: &BitVec,
        blocks: I,
    ) -> Result<BitVec, SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let op = active_op(&self.contexts, self.active)?;
        let Some(k) = op.dense_update_k() else {
            return Err(SimError::WrongOpShape {
                expected: "dense CRC update",
            });
        };
        let net = op.network();
        let stats = op.stats();
        let latency = stats.latency.max(1);
        let m = net.n_inputs() - k;

        let mut dp = None;
        let mut st = state.clone();
        let mut n: u64 = 0;
        for block in blocks {
            if block.len() != m {
                return Err(SimError::InputWidthMismatch {
                    got: block.len(),
                    expected: m,
                });
            }
            let dp = dp.get_or_insert_with(|| Datapath::compile(net, op.placement(), &self.stuck));
            st.append(block);
            st = dp.eval(&st);
            self.obs.registry.add(self.obs.cycles.compute, latency);
            n += 1;
        }
        self.obs.profiler.record_iterative(stats.rows, latency, n);
        Ok(st)
    }

    /// Streams an **interleaved** sequence of `(lane, block)` items through
    /// the active CRC update operation, one per-lane state in `states`.
    ///
    /// All lanes share the single pipeline: the whole batch costs one fill
    /// (latency) plus one cycle per block, which is exactly the Kong–Parhi
    /// interleaving benefit the paper's Fig. 5 exploits.
    ///
    /// # Errors
    ///
    /// Shape/width/lane mismatches per [`SimError`].
    pub fn run_crc_interleaved<'a, I>(
        &mut self,
        states: &mut [BitVec],
        items: I,
    ) -> Result<(), SimError>
    where
        I: IntoIterator<Item = (usize, &'a BitVec)>,
    {
        let op = active_op(&self.contexts, self.active)?;
        if !op.is_crc_update() {
            return Err(SimError::WrongOpShape {
                expected: "CRC update",
            });
        }
        let fb = op.feedback().expect("crc update has feedback");
        let net = op.network();
        let stats = op.stats();
        let latency = stats.latency;

        let mut dp = None;
        let mut n: u64 = 0;
        for (lane, block) in items {
            if lane >= states.len() {
                return Err(SimError::BadSlot {
                    slot: lane,
                    contexts: states.len(),
                });
            }
            if block.len() != net.n_inputs() {
                return Err(SimError::InputWidthMismatch {
                    got: block.len(),
                    expected: net.n_inputs(),
                });
            }
            let dp = dp.get_or_insert_with(|| Datapath::compile(net, op.placement(), &self.stuck));
            states[lane] = fb.apply(&states[lane], &dp.eval(block));
            n += 1;
        }
        if n > 0 {
            self.obs
                .registry
                .add(self.obs.cycles.compute, latency + (n - 1));
            self.obs.profiler.record_stream(stats.rows, latency, n);
        }
        Ok(())
    }

    /// Streams `blocks` through the active **scrambler** operation from
    /// transformed seed `x_t`; returns the concatenated output bits and
    /// the final transformed state.
    ///
    /// # Errors
    ///
    /// Shape/width mismatches per [`SimError`].
    pub fn run_scrambler_stream<'a, I>(
        &mut self,
        x_t: &BitVec,
        blocks: I,
    ) -> Result<(BitVec, BitVec), SimError>
    where
        I: IntoIterator<Item = &'a BitVec>,
    {
        let op = active_op(&self.contexts, self.active)?;
        let Some(m) = op.scrambler_m() else {
            return Err(SimError::WrongOpShape {
                expected: "scrambler",
            });
        };
        let fb = op.feedback().expect("scrambler has feedback");
        let net = op.network();
        let stats = op.stats();
        let latency = stats.latency;
        // Autonomous companion update: no data enters the loop.
        let no_data = BitVec::zeros(fb.k);

        let mut dp = None;
        let mut state = x_t.clone();
        let mut out = BitVec::zeros(0);
        let mut n: u64 = 0;
        for block in blocks {
            if block.len() != m {
                return Err(SimError::InputWidthMismatch {
                    got: block.len(),
                    expected: m,
                });
            }
            let dp = dp.get_or_insert_with(|| Datapath::compile(net, op.placement(), &self.stuck));
            // Output network reads the pre-update state and the block.
            out.append(&dp.eval(&state.concat(block)));
            state = fb.apply(&state, &no_data);
            n += 1;
        }
        if n > 0 {
            self.obs
                .registry
                .add(self.obs.cycles.compute, latency + (n - 1));
            self.obs.profiler.record_stream(stats.rows, latency, n);
        }
        Ok((out, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf2::{BitMat, Gf2Poly};
    use xornet::{synthesize, SynthOptions};

    fn params() -> PicogaParams {
        PicogaParams::dream()
    }

    fn identity_op(n: usize) -> PgaOperation {
        let net = synthesize(&BitMat::identity(n), SynthOptions::default());
        PgaOperation::linear("id", net, &params()).unwrap()
    }

    #[test]
    fn context_management_costs() {
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, identity_op(8)).unwrap();
        sim.load_context(1, identity_op(8)).unwrap();
        assert_eq!(
            sim.counters().context_load,
            2 * params().context_load_cycles
        );
        sim.switch_to(0).unwrap();
        sim.switch_to(0).unwrap(); // no-op
        sim.switch_to(1).unwrap();
        assert_eq!(
            sim.counters().context_switch,
            2 * params().context_switch_cycles
        );
    }

    #[test]
    fn bad_slots_and_shapes_are_errors() {
        let mut sim = PicogaSim::new(params());
        assert!(matches!(
            sim.switch_to(9),
            Err(SimError::BadSlot { slot: 9, .. })
        ));
        assert!(matches!(
            sim.switch_to(1),
            Err(SimError::EmptySlot { slot: 1 })
        ));
        assert!(matches!(
            sim.run_linear(&BitVec::zeros(4)),
            Err(SimError::NoActiveContext)
        ));
        sim.load_context(0, identity_op(8)).unwrap();
        sim.switch_to(0).unwrap();
        assert!(matches!(
            sim.run_linear(&BitVec::zeros(4)),
            Err(SimError::InputWidthMismatch {
                got: 4,
                expected: 8
            })
        ));
        assert!(matches!(
            sim.run_crc_stream(&BitVec::zeros(8), std::iter::empty()),
            Err(SimError::WrongOpShape { .. })
        ));
    }

    #[test]
    fn linear_op_computes_and_charges_latency() {
        let mut sim = PicogaSim::new(params());
        // y = T·x for a random-ish invertible T: use a companion power.
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(5);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let lat = op.stats().latency;
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();
        let x = BitVec::from_u64(0xBEEF, 16);
        let y = sim.run_linear(&x).unwrap();
        assert_eq!(y, t.mul_vec(&x));
        assert_eq!(sim.counters().compute, lat.max(1));
    }

    #[test]
    fn crc_stream_cycle_accounting_is_ii1() {
        // Build a small Derby-like op by hand: k=16, M=16.
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        // Feed-forward p = B·u with B = [A^15·b … b].
        let mut b = BitVec::zeros(16);
        for i in 0..16 {
            if g.coeff(i) {
                b.set(i, true);
            }
        }
        let cols: Vec<BitVec> = (0..16u64).map(|j| a.pow(15 - j).mul_vec(&b)).collect();
        let bm = BitMat::from_columns(&cols);
        let net = synthesize(&bm, SynthOptions::default());
        let op = PgaOperation::crc_update("upd", net, &a, &params()).unwrap();
        let latency = op.stats().latency;

        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();

        let blocks: Vec<BitVec> = (0..10u64)
            .map(|i| BitVec::from_u64(i * 37 + 1, 16))
            .collect();
        let fin = sim
            .run_crc_stream(&BitVec::zeros(16), blocks.iter())
            .unwrap();
        // Cycles: latency + (n-1).
        assert_eq!(sim.counters().compute, latency + 9);

        // Functional check against the matrix semantics.
        let mut expect = BitVec::zeros(16);
        for blk in &blocks {
            expect = &a.mul_vec(&expect) ^ &bm.mul_vec(blk);
        }
        assert_eq!(fin, expect);
    }

    #[test]
    fn empty_stream_is_free() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let a = BitMat::companion(&g);
        let net = synthesize(&BitMat::identity(16), SynthOptions::default());
        let op = PgaOperation::crc_update("upd", net, &a, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        sim.reset_counters();
        let s = sim
            .run_crc_stream(&BitVec::from_u64(0xAA, 16), std::iter::empty())
            .unwrap();
        assert_eq!(s.to_u64(), 0xAA);
        assert_eq!(sim.counters().compute, 0);
    }

    #[test]
    fn scrambler_stream_matches_block_semantics() {
        // Scrambler: k=7, M=8, y = C_stack·x ⊕ u, x' = companion·x.
        let s_poly = Gf2Poly::from_u64(0b1001_0001);
        let a_fib = lfsr_fibonacci(&s_poly);
        // Use Derby on A^8 to get companion feedback.
        let a8 = a_fib.pow(8);
        let t = a8.krylov(&BitVec::unit(0, 7));
        let t_inv = t.inverse().unwrap();
        let a8t = t_inv.mul(&a8).mul(&t);
        assert!(a8t.is_companion());
        // Output rows: y(i) = c·A^i·x for i in 0..8, transformed by T, plus u.
        let c_row = a_fib.row(6).clone();
        let mut rows = Vec::new();
        for i in 0..8u64 {
            // First 7 columns: c·A^i·T; column 7+i: the u identity bit.
            let r7 = BitMat::from_rows(vec![c_row.clone()])
                .mul(&a_fib.pow(i))
                .mul(&t)
                .row(0)
                .clone();
            let mut full = r7.resized(15);
            full.set(7 + i as usize, true);
            rows.push(full);
        }
        let net = synthesize(&BitMat::from_rows(rows.clone()), SynthOptions::default());
        let op = PgaOperation::scrambler("scr", net, &a8t, 8, &params()).unwrap();

        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();

        let seed = BitVec::from_u64(0x5B, 7);
        let x_t0 = t_inv.mul_vec(&seed);
        let blocks: Vec<BitVec> = (0..4u64).map(|i| BitVec::from_u64(0x9E ^ i, 8)).collect();
        let (out, _fin) = sim.run_scrambler_stream(&x_t0, blocks.iter()).unwrap();

        // Reference: serial Fibonacci scrambler.
        let mut x = seed.clone();
        let mut expect = BitVec::zeros(0);
        for blk in &blocks {
            for j in 0..8 {
                let y = c_row.dot(&x) ^ blk.get(j);
                expect = expect.concat(&BitVec::from_bits([y]));
                x = a_fib.mul_vec(&x);
            }
        }
        assert_eq!(out, expect);
    }

    /// Find a wire flip that provably changes the operation's matrix, and
    /// a basis input on which the corrupted matrix disagrees with `t`.
    fn semantic_wire_flip(op: &PgaOperation) -> (usize, usize, BitVec) {
        let t = op.network().to_matrix();
        for gate in (0..op.network().gate_count()).rev() {
            for new_signal in 0..op.network().n_inputs() {
                let mut probe = op.clone();
                if probe.corrupt_wire(gate, 0, new_signal).is_err() {
                    continue;
                }
                let m = probe.network().to_matrix();
                if m == t {
                    continue;
                }
                for j in 0..t.cols() {
                    if m.column(j) != t.column(j) {
                        let mut x = BitVec::zeros(t.cols());
                        x.set(j, true);
                        return (gate, new_signal, x);
                    }
                }
            }
        }
        panic!("no semantic wire flip found");
    }

    #[test]
    fn wire_flip_changes_semantics_and_reload_heals_it() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let (gate, new_signal, x) = semantic_wire_flip(&op);
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        let clean = sim.run_linear(&x).unwrap();
        assert_eq!(clean, t.mul_vec(&x));

        sim.inject(&ConfigFault::WireFlip {
            slot: 0,
            gate,
            pin: 0,
            new_signal,
        })
        .unwrap();
        let corrupt = sim.run_linear(&x).unwrap();
        assert_ne!(corrupt, clean, "SEU must change the computed function");

        // Reloading the pristine configuration heals the SEU.
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), clean);
    }

    #[test]
    fn stuck_cell_survives_reload_and_tap_flip_zeroes_an_output() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        let x = BitVec::from_u64(0xFFFF, 16);
        let clean = sim.run_linear(&x).unwrap();

        // Stick the first placed cell at 1; a reload must NOT repair it.
        sim.inject(&ConfigFault::StuckCell {
            row: 0,
            cell: 0,
            value: true,
        })
        .unwrap();
        assert_eq!(sim.stuck_cells().len(), 1);
        let faulty = sim.run_linear(&BitVec::zeros(16)).unwrap();
        assert!(!faulty.is_zero(), "stuck-at-1 breaks linearity at x = 0");
        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        let still_faulty = sim.run_linear(&BitVec::zeros(16)).unwrap();
        assert!(!still_faulty.is_zero(), "reload cannot fix silicon");
        sim.clear_stuck_cells();
        assert_eq!(sim.run_linear(&x).unwrap(), clean);

        // Tap flip: output 3 re-tapped to constant 0.
        sim.inject(&ConfigFault::TapFlip {
            slot: 0,
            output: 3,
            new_tap: None,
        })
        .unwrap();
        let tapped = sim.run_linear(&BitVec::ones(16)).unwrap();
        assert!(!tapped.get(3));
    }

    #[test]
    fn affine_probe_is_complete_for_stuck_cells() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert!(sim.affine_probe().unwrap(), "clean datapath passes");

        // Soundness of a passing verdict: for every stuck-at fault
        // under a placed gate, if the probe passes then the physical
        // function is exact at arbitrary (non-basis) inputs too — the
        // property a sampled known-answer probe cannot promise.
        let placement = op.placement().clone();
        let witnesses: Vec<BitVec> = (1..=32u64)
            .map(|k| BitVec::from_u64(k.wrapping_mul(0x9E37_79B9) & 0xFFFF, 16))
            .collect();
        let mut detections = 0;
        for (ri, row) in placement.rows().iter().enumerate() {
            for ci in 0..row.len() {
                for value in [false, true] {
                    sim.clear_stuck_cells();
                    sim.inject(&ConfigFault::StuckCell {
                        row: ri,
                        cell: ci,
                        value,
                    })
                    .unwrap();
                    let probe_ok = sim.affine_probe().unwrap();
                    if !probe_ok {
                        detections += 1;
                        continue;
                    }
                    for x in &witnesses {
                        assert_eq!(
                            sim.run_linear(x).unwrap(),
                            t.mul_vec(x),
                            "probe passed but stuck ({ri},{ci})={value} corrupts {x:?}"
                        );
                    }
                }
            }
        }
        assert!(detections > 0, "the sweep was actually exercised");
        sim.clear_stuck_cells();
        assert!(sim.affine_probe().unwrap());
    }

    #[test]
    fn affine_probe_flags_a_fault_that_moves_only_the_constant() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(7);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let net = op.network();
        // A tapped two-input gate, and its cell.
        let gate = (0..net.gate_count())
            .find(|&gi| {
                net.gates()[gi].inputs.len() == 2
                    && net.outputs().contains(&Some(net.n_inputs() + gi))
            })
            .expect("a tapped two-input gate");
        let row = op.placement().row_of(gate).unwrap();
        let cell = op.placement().rows()[row]
            .iter()
            .position(|&gi| gi == gate)
            .unwrap();
        let mut sim = PicogaSim::new(params());
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        // Wire pin 1 onto pin 0's source: the gate computes s ^ s = 0 in
        // the configuration and in silicon alike, so the probe passes.
        sim.inject(&ConfigFault::WireFlip {
            slot: 0,
            gate,
            pin: 1,
            new_signal: net.gates()[gate].inputs[0],
        })
        .unwrap();
        assert!(sim.affine_probe().unwrap());
        // Sticking that cell at 1 leaves every input mask alone and moves
        // only the constant term: the zero-vector response must catch it.
        sim.inject(&ConfigFault::StuckCell {
            row,
            cell,
            value: true,
        })
        .unwrap();
        assert!(!sim.affine_probe().unwrap());
    }

    #[test]
    fn load_corruption_strikes_the_armed_load_only() {
        let g = Gf2Poly::from_crc_notation(0x1021, 16);
        let t = BitMat::companion(&g).pow(3);
        let net = synthesize(&t, SynthOptions::default());
        let op = PgaOperation::linear("T", net, &params()).unwrap();
        let (gate, new_signal, x) = semantic_wire_flip(&op);
        let mut sim = PicogaSim::new(params());
        // Arm against the second load (index 1).
        sim.arm_load_corruption(LoadCorruption {
            load_index: 1,
            fault: LoadFault::WireFlip {
                gate,
                pin: 0,
                new_signal,
            },
        });
        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 0 clean");

        sim.load_context(0, op.clone()).unwrap();
        sim.switch_to(0).unwrap();
        assert_ne!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 1 hit");

        sim.load_context(0, op).unwrap();
        sim.switch_to(0).unwrap();
        assert_eq!(sim.run_linear(&x).unwrap(), t.mul_vec(&x), "load 2 clean");
        assert_eq!(sim.loads_seen(), 3);
    }

    #[test]
    fn inject_rejects_bad_coordinates() {
        let mut sim = PicogaSim::new(params());
        assert!(matches!(
            sim.inject(&ConfigFault::WireFlip {
                slot: 9,
                gate: 0,
                pin: 0,
                new_signal: 0
            }),
            Err(InjectError::BadSlot { slot: 9, .. })
        ));
        assert!(matches!(
            sim.inject(&ConfigFault::TapFlip {
                slot: 0,
                output: 0,
                new_tap: None
            }),
            Err(InjectError::EmptySlot { slot: 0 })
        ));
        sim.load_context(0, identity_op(8)).unwrap();
        assert!(matches!(
            sim.inject(&ConfigFault::WireFlip {
                slot: 0,
                gate: 999,
                pin: 0,
                new_signal: 0
            }),
            Err(InjectError::BadCoordinate { what: "gate", .. })
        ));
        assert!(matches!(
            sim.inject(&ConfigFault::StuckCell {
                row: 999,
                cell: 0,
                value: true
            }),
            Err(InjectError::BadCoordinate { what: "row", .. })
        ));
    }

    fn lfsr_fibonacci(s: &Gf2Poly) -> BitMat {
        let k = s.degree().unwrap();
        let mut a = BitMat::zeros(k, k);
        for i in 0..k - 1 {
            a.set(i, i + 1, true);
        }
        for i in 0..k {
            if s.coeff(i) {
                a.set(k - 1, i, true);
            }
        }
        a
    }
}
