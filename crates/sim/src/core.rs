//! The modified OpenSPARC T1 core model.
//!
//! Single-issue, six-stage, in-order, with two-way fine-grained
//! multithreading: each cycle the core issues from one *ready* thread,
//! rotating round-robin between ready threads, so two threads running
//! 1-cycle integer ops each achieve half throughput — exactly the
//! behaviour behind the paper's multithreading-versus-multicore study
//! (the Int multithreading/multicore execution-time ratio of two, §IV-H2).
//!
//! Two speculation mechanisms the paper calls out are modelled because
//! they *pollute energy measurements* (§IV-E):
//!
//! * **Store roll-back** — the core speculatively issues stores assuming
//!   the 8-entry store buffer has space; when it is full the store and
//!   subsequent instructions roll back and re-execute, costing extra
//!   energy (the `stx (F)` case of Figure 11).
//! * **Load roll-back** — the thread scheduler speculates that loads hit
//!   the L1; a miss rolls back younger instructions and stalls the
//!   thread until the fill returns.
//!
//! Three loops drive a core: the live per-cycle [`Core::step`], and the
//! batched dense engine's local run-ahead [`Core::run_local`] with its
//! one-running-thread specialization. All three take the register-only
//! instruction semantics (ALU, FP, branch, `movi`, nop) from a single
//! function over the thread's register file; each loop owns only its
//! scheduling bookkeeping and its memory/store/membar/halt arms.

use std::collections::VecDeque;
use std::sync::Arc;

use piton_arch::isa::{Instruction, Opcode, Reg};
use piton_arch::topology::TileId;
use piton_obs::trace::{self, TraceEvent, SUB_RETIRE};

use crate::events::{datapath_activity, value_activity, ActivityCounters};
use crate::memsys::MemorySystem;
use crate::program::Program;

/// Pipeline-flush penalty of a store roll-back, in cycles (refill a
/// six-stage pipeline plus refetch).
pub const ROLLBACK_PENALTY_CYCLES: u64 = 8;

/// Opcode slot of an [`IssueRecord`] for a fall-off-the-end halt: the
/// issue slot was consumed (the machine must count the cycle as
/// issuing) but no instruction was fetched, so nothing folds into the
/// per-opcode counters and nothing retires.
pub const PHANTOM_OP: u8 = u8::MAX;

/// One instruction issue deferred by [`Core::run_local`].
///
/// Everything *order-sensitive* about an issue travels here: the
/// per-opcode operand-activity accumulation is the one `f64` the
/// engines must fold in the naive engine's global (cycle, core) order,
/// since floating-point addition does not associate, and `thread`/`pc`
/// are what the machine's ordered replay needs to emit the issue's
/// `Retire` trace event at its (cycle, tile) turn. Order-free `u64`
/// tallies travel in [`LocalCharges`] instead and fold at the replay
/// barrier in any order.
///
/// Filled unconditionally — the local run never asks whether anyone is
/// tracing — and kept at 16 bytes: a saturated lane buffers one record
/// per cycle it runs ahead.
#[derive(Debug, Clone, Copy)]
pub struct IssueRecord {
    /// Cycle of the issue, as an offset from the local run's start
    /// (a local run spans at most 2¹⁶ cycles).
    pub offset: u16,
    /// Dense opcode index ([`piton_arch::isa::Opcode::index`]), or
    /// [`PHANTOM_OP`] for a fall-off-the-end halt.
    pub op: u8,
    /// Hardware thread that issued.
    pub thread: u8,
    /// Program counter of the issued instruction.
    pub pc: u32,
    /// Operand-value activity of the issue (what `record_issue` would
    /// have added to `operand_activity`), already clamped to `[0, 1]`.
    pub activity: f64,
}

const _: () = assert!(std::mem::size_of::<IssueRecord>() == 16);

/// Order-free activity accumulated by [`Core::run_local`] over a local
/// span, folded into the machine's [`ActivityCounters`] at the replay
/// barrier. Integer addition is exact and commutative, so per-core
/// batch aggregation is bit-identical to the naive engine's per-cycle
/// charging no matter how lanes interleave.
#[derive(Debug, Clone, Default)]
pub struct LocalCharges {
    /// `core_active_cycles` charged over the span.
    pub active: u64,
    /// `mem_stall_cycles` charged over the span.
    pub mem_stall: u64,
    /// `dual_thread_cycles` charged over the span.
    pub dual: u64,
    /// `drafted_issues` charged over the span.
    pub drafted: u64,
    /// `l1i_accesses` charged over the span.
    pub l1i: u64,
    /// `sb_enqueues` charged over the span.
    pub sb_enqueues: u64,
    /// Per-opcode issue counts (`ActivityCounters::issues`).
    pub issues: [u64; Opcode::COUNT],
    /// Per-opcode occupancy totals
    /// (`ActivityCounters::occupancy_cycles`).
    pub occupancy: [u64; Opcode::COUNT],
}

impl LocalCharges {
    /// Zeroes every field for buffer reuse.
    pub fn clear(&mut self) {
        *self = LocalCharges::default();
    }
}

/// Execution state of one hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// No program loaded.
    Idle,
    /// Executing.
    Running,
    /// Executed `halt`.
    Halted,
}

/// What a thread's current occupancy (`busy_until`) is waiting on.
///
/// [`ActivityCounters::mem_stall_cycles`] charges only memory-system
/// waits, so every site that sets `busy_until` must record why: a
/// divide's execute occupancy or a store-buffer roll-back holds the
/// thread just as long, but is not a memory stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Pipeline occupancy of a non-memory instruction (ALU, FPU,
    /// branch, nop).
    Execute,
    /// A memory-system round trip (load or atomic).
    Memory,
    /// The store buffer: a roll-back penalty or a `membar` drain wait.
    StoreDrain,
}

/// One hardware thread context.
#[derive(Debug, Clone)]
struct Thread {
    regs: [u64; Reg::COUNT],
    pc: usize,
    busy_until: u64,
    /// Why the thread is occupied until `busy_until`.
    wait: WaitKind,
    state: ThreadState,
    program: Option<Arc<Program>>,
    /// Retired instruction count (for IPC / progress measurements).
    retired: u64,
}

impl Thread {
    fn new() -> Self {
        Self {
            regs: [0; Reg::COUNT],
            pc: 0,
            busy_until: 0,
            wait: WaitKind::Execute,
            state: ThreadState::Idle,
            program: None,
            retired: 0,
        }
    }

    /// Whether the thread is running but held by a memory-system wait
    /// at `now`.
    fn memory_waiting(&self, now: u64) -> bool {
        self.state == ThreadState::Running && self.busy_until > now && self.wait == WaitKind::Memory
    }

    fn read(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    fn write(&mut self, r: Reg, v: u64) {
        if r != Reg::G0 {
            self.regs[r.index()] = v;
        }
    }

    /// Executes a *register-only* instruction (nop, `movi`, integer
    /// ALU, FP, branch) against this thread's register file and returns
    /// its unclamped operand activity plus the branch target when a
    /// branch is taken. Such an instruction always occupies the thread
    /// for `base_latency()` cycles.
    ///
    /// The one copy of these semantics: the live issue path and both
    /// local run-ahead loops call it, each keeping only its own
    /// scheduling bookkeeping and its memory/store/membar/halt arms.
    #[inline(always)]
    fn execute_local(&mut self, instr: &Instruction) -> (f64, Option<usize>) {
        let op = instr.opcode;
        match op {
            Opcode::Nop => (0.0, None),
            Opcode::Movi => {
                self.write(instr.rd, instr.imm as u64);
                (0.0, None)
            }
            Opcode::And | Opcode::Add | Opcode::Sub | Opcode::Mulx | Opcode::Sdivx => {
                let a = self.read(instr.rs1);
                let b = self.read(instr.rs2);
                let r = match op {
                    Opcode::And => a & b,
                    Opcode::Add => a.wrapping_add(b),
                    Opcode::Sub => a.wrapping_sub(b),
                    Opcode::Mulx => a.wrapping_mul(b),
                    Opcode::Sdivx => {
                        if b == 0 {
                            u64::MAX
                        } else {
                            ((a as i64).wrapping_div(b as i64)) as u64
                        }
                    }
                    _ => unreachable!(),
                };
                self.write(instr.rd, r);
                (datapath_activity(a, b, r), None)
            }
            Opcode::Faddd | Opcode::Fmuld | Opcode::Fdivd => {
                let a = f64::from_bits(self.read(instr.rs1));
                let b = f64::from_bits(self.read(instr.rs2));
                let r = match op {
                    Opcode::Faddd => a + b,
                    Opcode::Fmuld => a * b,
                    Opcode::Fdivd => a / b,
                    _ => unreachable!(),
                };
                let bits = r.to_bits();
                self.write(instr.rd, bits);
                (datapath_activity(a.to_bits(), b.to_bits(), bits), None)
            }
            Opcode::Fadds | Opcode::Fmuls | Opcode::Fdivs => {
                let a = f32::from_bits(self.read(instr.rs1) as u32);
                let b = f32::from_bits(self.read(instr.rs2) as u32);
                let r = match op {
                    Opcode::Fadds => a + b,
                    Opcode::Fmuls => a * b,
                    Opcode::Fdivs => a / b,
                    _ => unreachable!(),
                };
                let bits = u64::from(r.to_bits());
                self.write(instr.rd, bits);
                let activity =
                    datapath_activity(u64::from(a.to_bits()), u64::from(b.to_bits()), bits);
                (activity, None)
            }
            Opcode::Beq | Opcode::Bne => {
                let a = self.read(instr.rs1);
                let b = self.read(instr.rs2);
                let taken = (op == Opcode::Beq) == (a == b);
                (
                    datapath_activity(a, b, u64::from(taken)),
                    taken.then(|| instr.branch_target()),
                )
            }
            Opcode::Ldx | Opcode::Stx | Opcode::Casx | Opcode::Membar | Opcode::Halt => {
                unreachable!("not a register-only instruction")
            }
        }
    }
}

/// Emits the `Retire` trace event of one issue. The event allocates
/// (it carries the opcode's name), so call sites gate on
/// `trace::wants(SUB_RETIRE)`.
#[cold]
pub(crate) fn emit_retire(cycle: u64, tile: TileId, thread: usize, op: Opcode, pc: u64) {
    trace::emit(TraceEvent::Retire {
        cycle,
        tile: tile.index() as u32,
        thread: thread as u32,
        op: format!("{op:?}"),
        pc,
    });
}

/// One pending store-buffer entry.
#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    addr: u64,
    value: u64,
    enqueued_at: u64,
}

/// The per-core eight-entry store buffer, drained serially to the L1.5.
#[derive(Debug, Clone)]
struct StoreBuffer {
    entries: VecDeque<StoreEntry>,
    capacity: usize,
    /// Cycle at which the drain port is next free.
    drain_free_at: u64,
}

impl StoreBuffer {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            drain_free_at: 0,
        }
    }

    /// Retires every entry whose drain completes by `now`.
    fn advance(
        &mut self,
        tile: TileId,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) {
        while let Some(head) = self.entries.front().copied() {
            let start = self.drain_free_at.max(head.enqueued_at);
            if start >= now {
                break;
            }
            let latency = memsys.store_drain(tile, head.addr, head.value, start, act);
            let done = start + latency;
            if done > now {
                // Commit the drain (it is in flight) but keep the slot
                // occupied until it completes.
                self.drain_free_at = done;
                self.entries.pop_front();
                // Occupancy is approximated by the port-busy time; the
                // next entry cannot start before `done`.
                break;
            }
            self.drain_free_at = done;
            self.entries.pop_front();
        }
    }

    fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    fn push(&mut self, addr: u64, value: u64, now: u64) {
        debug_assert!(!self.is_full());
        self.entries.push_back(StoreEntry {
            addr,
            value,
            enqueued_at: now,
        });
    }

    /// Earliest cycle by which all current entries will have drained
    /// (used by `membar`). A loose upper bound is fine.
    fn drained_by(&self, now: u64) -> u64 {
        let mut t = self.drain_free_at.max(now);
        for e in &self.entries {
            t = t.max(e.enqueued_at) + crate::memsys::STORE_DRAIN_CYCLES;
        }
        t
    }
}

/// One Piton core: two hardware threads, a store buffer, and issue logic.
#[derive(Debug, Clone)]
pub struct Core {
    tile: TileId,
    threads: Vec<Thread>,
    store_buffer: StoreBuffer,
    /// Round-robin pointer for fine-grained thread selection.
    next_thread: usize,
    /// `(thread, pc, opcode)` of the previous issue — Execution
    /// Drafting (§II) lets the next thread reuse the front-end work
    /// when it issues the same instruction from the same PC.
    last_issue: Option<(usize, usize, Opcode)>,
    /// Whether the core is fused on. The paper ran chips with faulty
    /// cores as 24-core parts: the core is disabled but its tile's
    /// router keeps forwarding, which is exactly what a disabled `Core`
    /// does (the NoC lives in the memory system, not here).
    enabled: bool,
}

impl Core {
    /// Creates an idle core on `tile` with `threads_per_core` contexts
    /// and a store buffer of `sb_entries`.
    #[must_use]
    pub fn new(tile: TileId, threads_per_core: usize, sb_entries: usize) -> Self {
        Self {
            tile,
            threads: (0..threads_per_core).map(|_| Thread::new()).collect(),
            store_buffer: StoreBuffer::new(sb_entries),
            next_thread: 0,
            last_issue: None,
            enabled: true,
        }
    }

    /// The tile this core lives on.
    #[must_use]
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// Whether the core is fused on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Fuses the core on or off. Disabling resets every thread to idle
    /// and empties the store buffer — fused-off silicon holds no state —
    /// so a disabled core contributes zero activity from this cycle on.
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            for t in &mut self.threads {
                *t = Thread::new();
            }
            self.store_buffer = StoreBuffer::new(self.store_buffer.capacity);
            self.next_thread = 0;
            self.last_issue = None;
        }
        self.enabled = enabled;
    }

    /// Loads a program onto a hardware thread and marks it runnable.
    /// Silently ignored on a fused-off core, matching the real bench:
    /// software simply cannot target a disabled core.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn load_thread(&mut self, thread: usize, program: Arc<Program>) {
        assert!(thread < self.threads.len(), "thread index out of range");
        if !self.enabled {
            return;
        }
        let t = &mut self.threads[thread];
        *t = Thread::new();
        t.program = Some(program);
        t.state = ThreadState::Running;
    }

    /// State of a hardware thread.
    #[must_use]
    pub fn thread_state(&self, thread: usize) -> ThreadState {
        self.threads[thread].state
    }

    /// Whether any thread is still running.
    #[must_use]
    pub fn any_running(&self) -> bool {
        self.threads.iter().any(|t| t.state == ThreadState::Running)
    }

    /// Total instructions retired by all threads.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.threads.iter().map(|t| t.retired).sum()
    }

    /// Register value of a thread (test inspection).
    #[must_use]
    pub fn reg(&self, thread: usize, r: Reg) -> u64 {
        self.threads[thread].read(r)
    }

    /// The earliest cycle at which this core can next issue, or `None`
    /// when no thread is running (lets the machine skip dead cycles).
    #[must_use]
    pub fn next_ready_at(&self) -> Option<u64> {
        self.threads
            .iter()
            .filter(|t| t.state == ThreadState::Running)
            .map(|t| t.busy_until)
            .min()
    }

    /// Whether the store buffer still holds entries to drain. The
    /// event-driven machine must keep stepping such a core every cycle —
    /// even when no thread can issue — so its background drains reach
    /// the memory system at the same cycles, in the same core order, as
    /// under per-cycle polling.
    #[must_use]
    pub fn has_pending_stores(&self) -> bool {
        !self.store_buffer.entries.is_empty()
    }

    /// Number of running threads held by a memory-system wait at `now`
    /// (the machine's fast-forward path charges these per skipped
    /// cycle).
    #[must_use]
    pub fn memory_waiting_threads(&self, now: u64) -> u64 {
        self.threads
            .iter()
            .filter(|t| t.memory_waiting(now))
            .count() as u64
    }

    /// Store-buffer entries still waiting to drain (hang diagnosis).
    #[must_use]
    pub fn pending_stores(&self) -> usize {
        self.store_buffer.entries.len()
    }

    /// The running threads currently held by an occupancy, as
    /// `(thread, wait kind, busy-until cycle)` — what a hang report
    /// names when the machine stops retiring.
    #[must_use]
    pub fn waiting_threads(&self, now: u64) -> Vec<(usize, WaitKind, u64)> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == ThreadState::Running && t.busy_until > now)
            .map(|(i, t)| (i, t.wait, t.busy_until))
            .collect()
    }

    /// Advances the core by one cycle: drain the store buffer, pick a
    /// ready thread round-robin, and issue its next instruction.
    ///
    /// Returns `true` if an instruction issued this cycle.
    pub fn step(
        &mut self,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) -> bool {
        if !self.enabled {
            return false;
        }
        self.store_buffer.advance(self.tile, now, memsys, act);

        if !self.any_running() {
            return false;
        }
        act.core_active_cycles += 1;
        // Memory stalls are charged per thread-cycle actually spent
        // waiting on the memory system — not for execute occupancy,
        // store-buffer drains or losing the round-robin, and regardless
        // of whether the sibling thread issues this cycle.
        act.mem_stall_cycles += self
            .threads
            .iter()
            .filter(|t| t.memory_waiting(now))
            .count() as u64;
        let dual = self
            .threads
            .iter()
            .filter(|t| t.state == ThreadState::Running)
            .count()
            >= 2;

        let n = self.threads.len();
        let mut chosen = None;
        for k in 0..n {
            let idx = (self.next_thread + k) % n;
            let t = &self.threads[idx];
            if t.state == ThreadState::Running && t.busy_until <= now {
                chosen = Some(idx);
                break;
            }
        }
        let Some(idx) = chosen else {
            return false;
        };
        self.next_thread = (idx + 1) % n;
        if dual {
            // Thread-switching overhead is paid when the dual-threaded
            // front end actually issues (§IV-H2).
            act.dual_thread_cycles += 1;
        }
        // Execution Drafting (§II): if this thread issues the same
        // instruction from the same PC the other thread just issued,
        // the shared front end drafts it.
        let t = &self.threads[idx];
        let here = t
            .program
            .as_ref()
            .and_then(|p| p.instructions.get(t.pc))
            .map(|i| (idx, t.pc, i.opcode));
        if let (Some((prev_t, prev_pc, prev_op)), Some((_, pc, op))) = (self.last_issue, here) {
            if prev_t != idx && prev_pc == pc && prev_op == op {
                act.drafted_issues += 1;
            }
        }
        self.last_issue = here;
        self.issue(idx, now, memsys, act);
        true
    }

    /// Number of threads currently in the running state.
    fn running_threads(&self) -> usize {
        self.threads
            .iter()
            .filter(|t| t.state == ThreadState::Running)
            .count()
    }

    /// Batch-steps this core over `[start, end)` while its cycles stay
    /// *local* — touching only its own threads, registers and (empty)
    /// store buffer, never the shared memory system — and returns the
    /// first cycle it could not cover (its *horizon*).
    ///
    /// Order-free integer charges accrue into `charges`; each issue
    /// appends an [`IssueRecord`] to `records` so the machine can fold
    /// the order-sensitive operand-activity `f64`s, count issuing
    /// cycles and emit `Retire` trace events in the naive engine's
    /// global (cycle, core) order. The run stops:
    ///
    /// * **before** a `ldx`/`casx` issue (horizon = that cycle, none of
    ///   that cycle's charges applied): the access must reach the
    ///   memory system through a real [`Core::step`] in global core
    ///   order;
    /// * **after** an `stx` (horizon = cycle + 1): the push itself is
    ///   local, but the enqueued drain makes the following cycle's
    ///   buffer advance a memory-system mutation;
    /// * at `end`, or when every thread has halted (horizon = `end`;
    ///   remaining cycles charge nothing, exactly like a [`Core::step`]
    ///   of a fully-halted core).
    ///
    /// Stall spans are bulk-charged at frozen rates, mirroring the
    /// machine's fast-forward: while no thread can issue, no thread
    /// state changes, so the active/memory-stall rates are constants of
    /// the span.
    ///
    /// The caller must ensure the core is enabled, the store buffer is
    /// empty and the span fits an [`IssueRecord`] offset;
    /// `Machine::run_dense_batched` guards all three.
    #[allow(clippy::cast_possible_truncation)]
    pub fn run_local(
        &mut self,
        start: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        debug_assert!(self.enabled, "run_local on a fused-off core");
        debug_assert!(
            self.store_buffer.entries.is_empty(),
            "run_local with pending stores"
        );
        debug_assert!(end - start <= 1 << 16, "span overflows the record offset");
        // The saturated sweeps this engine exists for run one thread
        // per core: a specialized loop keeps that thread's state in
        // locals and skips the round-robin/dual/memory-wait scans
        // (with one running thread, the issuing thread is never
        // memory-waiting at its own issue cycle, nothing drafts after
        // the first issue, and there is no dual-thread charge).
        {
            let mut running = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == ThreadState::Running);
            if let (Some((only, _)), None) = (running.next(), running.next()) {
                return self.run_local_single(only, start, end, records, charges);
            }
        }
        let n = self.threads.len();
        let mut now = start;
        while now < end {
            let mut chosen = None;
            for k in 0..n {
                let idx = (self.next_thread + k) % n;
                let t = &self.threads[idx];
                if t.state == ThreadState::Running && t.busy_until <= now {
                    chosen = Some(idx);
                    break;
                }
            }
            let mem_waiting = self
                .threads
                .iter()
                .filter(|t| t.memory_waiting(now))
                .count() as u64;
            let Some(idx) = chosen else {
                // Stall span: no thread can issue before the earliest
                // `busy_until`, and no state changes until then, so
                // both charge rates are frozen — bulk them and jump.
                let Some(wake) = self.next_ready_at() else {
                    return end; // every thread halted
                };
                let wake = wake.min(end);
                let span = wake - now;
                charges.active += span;
                charges.mem_stall += span * mem_waiting;
                now = wake;
                continue;
            };
            let pc = self.threads[idx].pc;
            let instr = self.threads[idx]
                .program
                .as_ref()
                .expect("running thread has a program")
                .instructions
                .get(pc)
                .copied();
            if instr.is_some_and(|i| matches!(i.opcode, Opcode::Ldx | Opcode::Casx)) {
                // Hand the whole cycle back before committing any of
                // its charges: the machine redoes it via `step`.
                return now;
            }
            // The issue slot of cycle `at` is consumed from here on.
            let at = now;
            now += 1;
            charges.active += 1;
            charges.mem_stall += mem_waiting;
            if self.running_threads() >= 2 {
                charges.dual += 1;
            }
            self.next_thread = (idx + 1) % n;
            let mut record = IssueRecord {
                offset: (at - start) as u16,
                op: PHANTOM_OP,
                thread: idx as u8,
                pc: pc as u32,
                activity: 0.0,
            };
            let Some(instr) = instr else {
                // Fell off the end: an issuing step that fetches and
                // records nothing, halting the thread.
                self.last_issue = None;
                self.threads[idx].state = ThreadState::Halted;
                records.push(record);
                continue;
            };
            let op = instr.opcode;
            if let Some((prev_t, prev_pc, prev_op)) = self.last_issue {
                if prev_t != idx && prev_pc == pc && prev_op == op {
                    charges.drafted += 1;
                }
            }
            self.last_issue = Some((idx, pc, op));
            charges.l1i += 1;
            record.op = op.index() as u8;

            let t = &mut self.threads[idx];
            t.retired += 1;
            let (occupancy, activity, wait, target) = match op {
                Opcode::Halt => {
                    t.state = ThreadState::Halted;
                    charges.issues[op.index()] += 1;
                    charges.occupancy[op.index()] += 1;
                    records.push(record);
                    continue;
                }
                Opcode::Stx => {
                    // The buffer was empty at entry and the run stops
                    // after the first store, so it can never be full
                    // here — no roll-back path in local mode.
                    let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                    let value = t.read(instr.rs2);
                    self.store_buffer.push(addr, value, at);
                    charges.sb_enqueues += 1;
                    (1, value_activity(value), WaitKind::Execute, None)
                }
                Opcode::Membar => {
                    // Empty buffer: only the drain port's residual
                    // busy time can hold the barrier.
                    let held = self.store_buffer.drained_by(at) - at;
                    (held.max(op.base_latency()), 0.0, WaitKind::StoreDrain, None)
                }
                _ => {
                    let (activity, target) = t.execute_local(&instr);
                    (op.base_latency(), activity, WaitKind::Execute, target)
                }
            };
            let occupancy = occupancy.max(1);
            charges.issues[op.index()] += 1;
            charges.occupancy[op.index()] += occupancy;
            record.activity = activity.clamp(0.0, 1.0);
            records.push(record);
            t.busy_until = at + occupancy;
            t.wait = wait;
            t.pc = target.unwrap_or(pc + 1);
            if op == Opcode::Stx {
                // From the next cycle on the pending drain is a
                // memory-system mutation: hand back.
                return now;
            }
        }
        end
    }

    /// [`Core::run_local`] specialized for exactly one running thread —
    /// the shape of every saturated-phase sweep (Figures 13/14 run one
    /// software thread per core). The thread's hot state (`pc`,
    /// `busy_until`, wait kind) lives in locals for the whole span and
    /// is flushed once on exit, and the invariants of the single-thread
    /// case delete the per-cycle bookkeeping wholesale: the issuing
    /// thread is never memory-waiting at its own issue cycle, idle and
    /// halted siblings never are, `dual` is statically false, the
    /// round-robin always picks this thread, `next_thread`/`last_issue`
    /// take the same value at every issue (written once at exit), and
    /// only the *first* issue can draft (against a sibling's final
    /// issue from before the span).
    #[allow(clippy::cast_possible_truncation)]
    fn run_local_single(
        &mut self,
        idx: usize,
        start: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let n = self.threads.len();
        let prog = self.threads[idx]
            .program
            .clone()
            .expect("running thread has a program");
        let code = &prog.instructions;
        let t = &mut self.threads[idx];
        let mut pc = t.pc;
        let mut busy = t.busy_until;
        let mut wait = t.wait;
        let mut retired = 0u64;
        // `Some(v)` once any issue slot was consumed: `last_issue`
        // becomes `v` and `next_thread` advances past `idx`, exactly as
        // the final per-cycle issue would have left them.
        let mut new_last: Option<Option<(usize, usize, Opcode)>> = None;
        let mut first = true;
        let mut now = start;
        let horizon = 'run: {
            while now < end {
                if busy > now {
                    // Stall span at frozen rates, as in the generic loop.
                    let wake = busy.min(end);
                    let span = wake - now;
                    charges.active += span;
                    if wait == WaitKind::Memory {
                        charges.mem_stall += span;
                    }
                    now = wake;
                    continue;
                }
                let mut record = IssueRecord {
                    offset: (now - start) as u16,
                    op: PHANTOM_OP,
                    thread: idx as u8,
                    pc: pc as u32,
                    activity: 0.0,
                };
                let Some(instr) = code.get(pc) else {
                    // Fell off the end: phantom issue, then every
                    // remaining cycle charges nothing.
                    charges.active += 1;
                    new_last = Some(None);
                    t.state = ThreadState::Halted;
                    records.push(record);
                    break 'run end;
                };
                let op = instr.opcode;
                if matches!(op, Opcode::Ldx | Opcode::Casx) {
                    break 'run now;
                }
                charges.active += 1;
                if first {
                    if let Some((prev_t, prev_pc, prev_op)) = self.last_issue {
                        if prev_t != idx && prev_pc == pc && prev_op == op {
                            charges.drafted += 1;
                        }
                    }
                    first = false;
                }
                new_last = Some(Some((idx, pc, op)));
                charges.l1i += 1;
                record.op = op.index() as u8;
                retired += 1;
                let (occupancy, activity, kind, target) = match op {
                    Opcode::Halt => {
                        t.state = ThreadState::Halted;
                        charges.issues[op.index()] += 1;
                        charges.occupancy[op.index()] += 1;
                        records.push(record);
                        break 'run end;
                    }
                    Opcode::Stx => {
                        let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                        let value = t.read(instr.rs2);
                        self.store_buffer.push(addr, value, now);
                        charges.sb_enqueues += 1;
                        (1, value_activity(value), WaitKind::Execute, None)
                    }
                    Opcode::Membar => {
                        // Empty buffer: only residual drain-port busy
                        // time can hold the barrier.
                        let held = self.store_buffer.drained_by(now) - now;
                        (held.max(op.base_latency()), 0.0, WaitKind::StoreDrain, None)
                    }
                    _ => {
                        let (activity, target) = t.execute_local(instr);
                        (op.base_latency(), activity, WaitKind::Execute, target)
                    }
                };
                let occupancy = occupancy.max(1);
                charges.issues[op.index()] += 1;
                charges.occupancy[op.index()] += occupancy;
                record.activity = activity.clamp(0.0, 1.0);
                records.push(record);
                busy = now + occupancy;
                wait = kind;
                pc = target.unwrap_or(pc + 1);
                now += 1;
                if op == Opcode::Stx {
                    break 'run now;
                }
            }
            end
        };
        t.pc = pc;
        t.busy_until = busy;
        t.wait = wait;
        t.retired += retired;
        if let Some(v) = new_last {
            self.last_issue = v;
            self.next_thread = (idx + 1) % n;
        }
        horizon
    }

    /// Issues the next instruction of thread `idx`.
    fn issue(
        &mut self,
        idx: usize,
        now: u64,
        memsys: &mut MemorySystem,
        act: &mut ActivityCounters,
    ) {
        let t = &mut self.threads[idx];
        let program = t.program.as_ref().expect("running thread has a program");
        let Some(&instr) = program.instructions.get(t.pc) else {
            // Fell off the end: halt.
            t.state = ThreadState::Halted;
            return;
        };
        act.l1i_accesses += 1;

        let op = instr.opcode;
        match op {
            Opcode::Ldx => {
                let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                let out = memsys.load(self.tile, addr, now, act);
                t.write(instr.rd, out.value);
                let activity = value_activity(out.value);
                self.finish(idx, now, out.latency, op, activity, None, act);
            }
            Opcode::Stx => {
                if self.store_buffer.is_full() {
                    // Speculative issue found the buffer full: roll back
                    // and re-execute (the stx (F) case of Figure 11).
                    act.store_rollbacks += 1;
                    t.busy_until = now + ROLLBACK_PENALTY_CYCLES;
                    t.wait = WaitKind::StoreDrain;
                    return; // PC unchanged: the store retries
                }
                let addr = t.read(instr.rs1).wrapping_add(instr.imm as u64);
                let value = t.read(instr.rs2);
                self.store_buffer.push(addr, value, now);
                act.sb_enqueues += 1;
                // The thread continues past the store after one cycle;
                // the buffer drains in the background.
                self.finish(idx, now, 1, op, value_activity(value), None, act);
            }
            Opcode::Casx => {
                let addr = t.read(instr.rs1);
                let expected = t.read(instr.rs2);
                let new = t.read(instr.rd);
                let (old, latency) = memsys.cas(self.tile, addr, expected, new, now, act);
                t.write(instr.rd, old);
                let activity = value_activity(old ^ expected);
                self.finish(idx, now, latency, op, activity, None, act);
            }
            Opcode::Membar => {
                let held = self.store_buffer.drained_by(now) - now;
                self.finish(idx, now, held.max(op.base_latency()), op, 0.0, None, act);
            }
            Opcode::Halt => {
                let pc = t.pc as u64;
                t.retired += 1;
                t.state = ThreadState::Halted;
                act.record_issue(op, 1, 0.0);
                if trace::wants(SUB_RETIRE) {
                    emit_retire(now, self.tile, idx, op, pc);
                }
            }
            _ => {
                let (activity, target) = t.execute_local(&instr);
                self.finish(idx, now, op.base_latency(), op, activity, target, act);
            }
        }
    }

    /// Completes an issued instruction: records its issue and activity,
    /// occupies the thread (tagging what the occupancy waits on) and
    /// advances (or redirects) the PC.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        idx: usize,
        now: u64,
        occupancy: u64,
        op: Opcode,
        activity: f64,
        branch_target: Option<usize>,
        act: &mut ActivityCounters,
    ) {
        let occupancy = occupancy.max(1);
        act.record_issue(op, occupancy, activity.clamp(0.0, 1.0));
        let t = &mut self.threads[idx];
        t.busy_until = now + occupancy;
        t.wait = match op {
            Opcode::Ldx | Opcode::Casx => WaitKind::Memory,
            Opcode::Membar => WaitKind::StoreDrain,
            _ => WaitKind::Execute,
        };
        let pc = t.pc as u64;
        t.pc = branch_target.unwrap_or(t.pc + 1);
        t.retired += 1;
        if trace::wants(SUB_RETIRE) {
            emit_retire(now, self.tile, idx, op, pc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_arch::config::ChipConfig;

    fn setup() -> (Core, MemorySystem, ActivityCounters) {
        (
            Core::new(TileId::new(0), 2, 8),
            MemorySystem::new(&ChipConfig::piton()),
            ActivityCounters::default(),
        )
    }

    fn run(core: &mut Core, memsys: &mut MemorySystem, act: &mut ActivityCounters, cycles: u64) {
        for now in 0..cycles {
            core.step(now, memsys, act);
        }
    }

    #[test]
    fn executes_straight_line_arithmetic() {
        let (mut core, mut memsys, mut act) = setup();
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 6),
            Instruction::movi(Reg::new(2), 7),
            Instruction::alu(Opcode::Mulx, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 100);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(3)), 42);
    }

    #[test]
    fn g0_stays_zero() {
        let (mut core, mut memsys, mut act) = setup();
        let program =
            Program::from_instructions(vec![Instruction::movi(Reg::G0, 99), Instruction::halt()]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 50);
        assert_eq!(core.reg(0, Reg::G0), 0);
    }

    #[test]
    fn branch_loop_counts_down() {
        let (mut core, mut memsys, mut act) = setup();
        // r1 = 5; loop: r1 -= 1; bne r1, g0, loop; halt
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 5),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 200);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(1)), 0);
    }

    #[test]
    fn load_returns_stored_value_through_memory() {
        let (mut core, mut memsys, mut act) = setup();
        memsys.poke(0x1000, 0x1234_5678);
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x1000),
            Instruction::ldx(Reg::new(2), Reg::new(1), 0),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 2000);
        assert_eq!(core.reg(0, Reg::new(2)), 0x1234_5678);
        assert_eq!(act.load_rollbacks, 1); // cold miss rolled back
    }

    #[test]
    fn store_then_load_round_trips() {
        let (mut core, mut memsys, mut act) = setup();
        let program = Program::from_instructions(vec![
            Instruction::movi(Reg::new(1), 0x2000),
            Instruction::movi(Reg::new(2), 0xBEEF),
            Instruction::stx(Reg::new(2), Reg::new(1), 0),
            Instruction::membar(),
            Instruction::ldx(Reg::new(3), Reg::new(1), 0),
            Instruction::halt(),
        ]);
        core.load_thread(0, Arc::new(program));
        run(&mut core, &mut memsys, &mut act, 5000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(core.reg(0, Reg::new(3)), 0xBEEF);
        assert_eq!(memsys.peek_mem(0x2000), 0xBEEF);
    }

    #[test]
    fn back_to_back_stores_fill_buffer_and_roll_back() {
        let (mut core, mut memsys, mut act) = setup();
        // 64 stores back-to-back: issue rate (1/cycle) far exceeds the
        // drain rate (1/10 cycles), so the 8-entry buffer must fill.
        let mut instrs = vec![Instruction::movi(Reg::new(1), 0x3000)];
        for k in 0..64 {
            instrs.push(Instruction::stx(Reg::new(1), Reg::new(1), k * 8));
        }
        instrs.push(Instruction::halt());
        core.load_thread(0, Arc::new(Program::from_instructions(instrs)));
        run(&mut core, &mut memsys, &mut act, 20_000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert!(act.store_rollbacks > 0, "buffer never filled");
        assert_eq!(act.sb_enqueues, 64);
    }

    #[test]
    fn nine_nops_after_store_avoid_roll_backs() {
        // The paper's EPI trick: nine nops cover the 10-cycle drain.
        // Warm up ownership first (a cold store upgrade takes hundreds of
        // cycles and would legitimately back up the buffer), then run the
        // steady-state pattern the EPI test measures.
        let (mut core, mut memsys, mut act) = setup();
        let mut instrs = vec![
            Instruction::movi(Reg::new(1), 0x4000),
            Instruction::stx(Reg::new(1), Reg::new(1), 0),
            Instruction::membar(),
        ];
        for _ in 0..32 {
            instrs.push(Instruction::stx(Reg::new(1), Reg::new(1), 0));
            for _ in 0..9 {
                instrs.push(Instruction::nop());
            }
        }
        instrs.push(Instruction::halt());
        core.load_thread(0, Arc::new(Program::from_instructions(instrs)));
        run(&mut core, &mut memsys, &mut act, 50_000);
        assert_eq!(core.thread_state(0), ThreadState::Halted);
        assert_eq!(act.store_rollbacks, 0);
    }

    #[test]
    fn two_threads_share_issue_bandwidth() {
        let (mut core, mut memsys, mut act) = setup();
        let loop_program = |iters: i64| {
            Program::from_instructions(vec![
                Instruction::movi(Reg::new(1), iters),
                Instruction::movi(Reg::new(2), 1),
                Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
                Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
                Instruction::halt(),
            ])
        };
        // One thread alone:
        core.load_thread(0, Arc::new(loop_program(1000)));
        let mut solo_cycles = 0;
        for now in 0..2_000_000u64 {
            core.step(now, &mut memsys, &mut act);
            if !core.any_running() {
                solo_cycles = now;
                break;
            }
        }
        // Two threads together:
        let mut core2 = Core::new(TileId::new(1), 2, 8);
        core2.load_thread(0, Arc::new(loop_program(1000)));
        core2.load_thread(1, Arc::new(loop_program(1000)));
        let mut duo_cycles = 0;
        for now in 0..4_000_000u64 {
            core2.step(now, &mut memsys, &mut act);
            if !core2.any_running() {
                duo_cycles = now;
                break;
            }
        }
        let ratio = duo_cycles as f64 / solo_cycles as f64;
        // Branch shadows leave some slack; the ratio must be well above
        // 1 (threads share the pipe) but at most ~2.
        assert!(
            (1.2..=2.2).contains(&ratio),
            "duo/solo ratio {ratio} (solo {solo_cycles}, duo {duo_cycles})"
        );
    }

    #[test]
    fn casx_spinlock_between_threads() {
        let (mut core, mut memsys, mut act) = setup();
        // Each thread: acquire lock (casx 0->1 at 0x5000), increment
        // counter at 0x5040, release (stx 0). 10 iterations each.
        let worker = || {
            let mut p = vec![
                Instruction::movi(Reg::new(1), 0x5000), // lock addr
                Instruction::movi(Reg::new(2), 0x5040), // counter addr
                Instruction::movi(Reg::new(5), 10),     // iterations
                Instruction::movi(Reg::new(6), 1),
                // 4: acquire
                Instruction::movi(Reg::new(3), 1), // swap-in value
                Instruction::casx(Reg::new(3), Reg::new(1), Reg::G0),
                Instruction::branch(Opcode::Bne, Reg::new(3), Reg::G0, 4),
                // 7: critical section
                Instruction::ldx(Reg::new(4), Reg::new(2), 0),
                Instruction::alu(Opcode::Add, Reg::new(4), Reg::new(4), Reg::new(6)),
                Instruction::stx(Reg::new(4), Reg::new(2), 0),
                Instruction::membar(),
                // release
                Instruction::stx(Reg::G0, Reg::new(1), 0),
                Instruction::membar(),
                Instruction::alu(Opcode::Sub, Reg::new(5), Reg::new(5), Reg::new(6)),
                Instruction::branch(Opcode::Bne, Reg::new(5), Reg::G0, 4),
                Instruction::halt(),
            ];
            p.shrink_to_fit();
            Program::from_instructions(p)
        };
        core.load_thread(0, Arc::new(worker()));
        core.load_thread(1, Arc::new(worker()));
        let mut now = 0;
        while core.any_running() && now < 3_000_000 {
            core.step(now, &mut memsys, &mut act);
            now += 1;
        }
        assert!(!core.any_running(), "deadlocked");
        assert_eq!(memsys.peek_mem(0x5040), 20, "lost updates under the lock");
        assert!(act.atomics >= 20);
    }
}
