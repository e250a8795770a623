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
//! two loops behind the batched dense engine's local run-ahead
//! [`Core::run_local`], one for a single running thread and one for
//! two, which both replay steady-state loop iterations instead of
//! re-interpreting them. All three take the register-only instruction
//! semantics (ALU, FP, branch, `movi`, nop) from a single function over
//! the thread's register file; each loop owns only its scheduling
//! bookkeeping and its memory/store/membar/halt arms.

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
    /// Cycle of the issue, as an offset from the local run's origin
    /// (the machine's segment start; a segment spans at most 2¹⁶
    /// cycles).
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
#[derive(Debug, Clone, Copy, Default)]
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

    /// Adds `k` more copies of what accrued since `mark`, an earlier
    /// snapshot of these charges: the integer side of replaying a loop
    /// period `k` more times.
    fn repeat_since(&mut self, mark: &LocalCharges, k: u64) {
        let add = |cur: &mut u64, old: u64| *cur += k * (*cur - old);
        add(&mut self.active, mark.active);
        add(&mut self.mem_stall, mark.mem_stall);
        add(&mut self.dual, mark.dual);
        add(&mut self.drafted, mark.drafted);
        add(&mut self.l1i, mark.l1i);
        add(&mut self.sb_enqueues, mark.sb_enqueues);
        for i in 0..Opcode::COUNT {
            add(&mut self.issues[i], mark.issues[i]);
            add(&mut self.occupancy[i], mark.occupancy[i]);
        }
    }
}

/// Where a [`Core::run_local`] loop last took a backward branch: the
/// loop's `state` there — everything its next iteration depends on —
/// and what the run had produced by then.
struct LoopHead<S> {
    state: S,
    now: u64,
    records: usize,
    charges: LocalCharges,
}

impl<S: PartialEq> LoopHead<S> {
    /// Steady-state loop replay, called at each taken backward branch
    /// with the loop's `state` at `now`. A state equal to the one at
    /// the previous call proves the period in between repeats verbatim,
    /// so its records are copied once per whole period that fits before
    /// `end`, each shifted one period later, and its integer charges
    /// are added as many times. The `f64` activities stay one per
    /// record, so the machine still folds them one by one in naive
    /// order. A period containing a `membar`, whose occupancy reads the
    /// drain-port clock, is left to the interpreter.
    ///
    /// Returns the cycles replayed (zero if none) and remembers `state`.
    #[allow(clippy::cast_possible_truncation)]
    fn replay(
        head: &mut Option<Self>,
        state: S,
        now: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let mut replayed = 0;
        if let Some(h) = head.as_ref().filter(|h| h.state == state) {
            let period = now - h.now;
            let k = (end - now) / period;
            let membar = Opcode::Membar.index();
            if k > 0 && charges.issues[membar] == h.charges.issues[membar] {
                let body = h.records..records.len();
                for j in 1..=k {
                    let copy = records.len();
                    records.extend_from_within(body.clone());
                    let shift = (j * period) as u16;
                    for r in &mut records[copy..] {
                        r.offset += shift;
                    }
                }
                charges.repeat_since(&h.charges, k);
                replayed = k * period;
            }
        }
        *head = Some(LoopHead {
            state,
            now: now + replayed,
            records: records.len(),
            charges: *charges,
        });
        replayed
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

    /// Batch-steps this core over `[start, end)` while its cycles stay
    /// *local* — touching only its own threads, registers and (empty)
    /// store buffer, never the shared memory system — and returns the
    /// first cycle it could not cover (its *horizon*).
    ///
    /// Order-free integer charges accrue into `charges`; each issue
    /// appends an [`IssueRecord`] to `records`, its offset counted from
    /// `origin`, so the machine can fold the order-sensitive
    /// operand-activity `f64`s, count issuing cycles and emit `Retire`
    /// trace events in the naive engine's global (cycle, core) order.
    /// The run stops:
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
    /// One running thread takes `run_local_single`, two take
    /// `run_local_pair`. A core with more than two running
    /// threads (not a Piton shape) has no local loop: the horizon is
    /// `start` and the machine steps it live.
    ///
    /// The caller must ensure the core is enabled, the store buffer is
    /// empty and `[origin, end)` fits an [`IssueRecord`] offset;
    /// `Machine::run_dense_batched` guards all three.
    pub fn run_local(
        &mut self,
        origin: u64,
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
        debug_assert!(
            origin <= start && end - origin <= 1 << 16,
            "span overflows the record offset"
        );
        let mut running = self
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == ThreadState::Running)
            .map(|(i, _)| i);
        match (running.next(), running.next(), running.next()) {
            (None, _, _) => end,
            (Some(only), None, _) => {
                self.run_local_single(only, origin, start, end, records, charges)
            }
            (Some(_), Some(_), None) if self.threads.len() == 2 => {
                self.run_local_pair(origin, start, end, records, charges)
            }
            _ => start,
        }
    }

    /// [`Core::run_local`] for exactly one running thread — the shape of
    /// the 1 T/C sweeps (Figures 13/14). The thread's hot state (`pc`,
    /// `busy_until`, wait kind) lives in locals for the whole span and
    /// is flushed once on exit, and the invariants of the single-thread
    /// case delete the per-cycle bookkeeping wholesale: the issuing
    /// thread is never memory-waiting at its own issue cycle, idle and
    /// halted siblings never are, `dual` is statically false, the
    /// round-robin always picks this thread, `next_thread`/`last_issue`
    /// take the same value at every issue (written once at exit), and
    /// only the *first* issue can draft (against a sibling's final
    /// issue from before the span).
    ///
    /// Steady-state loops are replayed, not re-interpreted
    /// ([`LoopHead::replay`]): the state compared at each taken
    /// backward branch is the head `pc`, the registers, the occupancy
    /// left and its wait kind. Nothing else a local iteration reads can
    /// change, and a replayed period never holds a drafted issue: only
    /// the run's first issue drafts, and it precedes every branch.
    #[allow(clippy::cast_possible_truncation, clippy::too_many_lines)]
    fn run_local_single(
        &mut self,
        idx: usize,
        origin: u64,
        start: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let n = self.threads.len();
        let prog = self.threads[idx]
            .program
            .take()
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
        let mut head = None;
        let mut now = start;
        let horizon = 'run: {
            while now < end {
                if busy > now {
                    // Stall span at frozen rates.
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
                    offset: (now - origin) as u16,
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
                now += 1;
                if op == Opcode::Stx {
                    pc += 1;
                    break 'run now;
                }
                let Some(target) = target else {
                    pc += 1;
                    continue;
                };
                let backward = target <= pc;
                pc = target;
                if backward {
                    let before = records.len();
                    let state = (pc, t.regs, busy - now, wait);
                    let replayed = LoopHead::replay(&mut head, state, now, end, records, charges);
                    retired += (records.len() - before) as u64;
                    now += replayed;
                    busy += replayed;
                }
            }
            end
        };
        t.pc = pc;
        t.busy_until = busy;
        t.wait = wait;
        t.retired += retired;
        t.program = Some(prog);
        if let Some(v) = new_last {
            self.last_issue = v;
            self.next_thread = (idx + 1) % n;
        }
        horizon
    }

    /// [`Core::run_local`] for a two-thread core with both threads
    /// running — the 2 T/C sweeps. Both threads' `pc`, `busy_until` and
    /// wait kind live in locals, so the round-robin pick, the
    /// dual-thread charge and the sibling's memory-wait charge are a
    /// few compares instead of scans over the thread vector. A thread
    /// that halts (or falls off the end) mid-span leaves its sibling
    /// running here alone, exactly as [`Core::step`] would.
    ///
    /// Steady-state loops are replayed ([`LoopHead::replay`]) on the
    /// pair's whole state: both threads' `pc`, registers, occupancy left
    /// and wait kind, which are running, the round-robin pointer and
    /// the last issue. The last issue decides drafting, so drafted
    /// issues repeat with the period like everything else.
    #[allow(clippy::cast_possible_truncation, clippy::too_many_lines)]
    fn run_local_pair(
        &mut self,
        origin: u64,
        start: u64,
        end: u64,
        records: &mut Vec<IssueRecord>,
        charges: &mut LocalCharges,
    ) -> u64 {
        let Core {
            threads,
            store_buffer,
            next_thread,
            last_issue,
            ..
        } = self;
        let [a, b] = &mut threads[..] else {
            unreachable!("run_local_pair on a core without two threads")
        };
        let mut th = [a, b];
        let progs = [
            th[0].program.take().expect("running thread has a program"),
            th[1].program.take().expect("running thread has a program"),
        ];
        let code = [&progs[0].instructions[..], &progs[1].instructions[..]];
        let mut pc = [th[0].pc, th[1].pc];
        let mut busy = [th[0].busy_until, th[1].busy_until];
        let mut wait = [th[0].wait, th[1].wait];
        let mut running = [true; 2];
        let mut retired = [0u64; 2];
        let mut next = *next_thread;
        let mut last = *last_issue;
        // One loop head per branching thread: the lockstep pair's state
        // recurs at the same thread's branch, not at the sibling's.
        let mut heads = [None, None];
        let mut now = start;
        let horizon = loop {
            if now >= end {
                break end;
            }
            let ready = |i: usize| running[i] && busy[i] <= now;
            let idx = if ready(next) {
                next
            } else if ready(next ^ 1) {
                next ^ 1
            } else {
                // Stall span: every running thread is occupied, so no
                // state changes before the earliest wake-up.
                let wake = match running {
                    [true, true] => busy[0].min(busy[1]),
                    [true, false] => busy[0],
                    [false, true] => busy[1],
                    [false, false] => break end,
                };
                let wake = wake.min(end);
                let span = wake - now;
                let mem_waiting = (0..2)
                    .filter(|&i| running[i] && wait[i] == WaitKind::Memory)
                    .count() as u64;
                charges.active += span;
                charges.mem_stall += span * mem_waiting;
                now = wake;
                continue;
            };
            let other = idx ^ 1;
            let here = pc[idx];
            let instr = code[idx].get(here);
            if instr.is_some_and(|i| matches!(i.opcode, Opcode::Ldx | Opcode::Casx)) {
                break now;
            }
            // The issue slot of cycle `at` is consumed from here on.
            let at = now;
            now += 1;
            charges.active += 1;
            charges.mem_stall +=
                u64::from(running[other] && busy[other] > at && wait[other] == WaitKind::Memory);
            charges.dual += u64::from(running[other]);
            next = other;
            let mut record = IssueRecord {
                offset: (at - origin) as u16,
                op: PHANTOM_OP,
                thread: idx as u8,
                pc: here as u32,
                activity: 0.0,
            };
            let Some(instr) = instr else {
                // Fell off the end: an issuing step that fetches and
                // records nothing, halting the thread.
                last = None;
                running[idx] = false;
                th[idx].state = ThreadState::Halted;
                records.push(record);
                continue;
            };
            let op = instr.opcode;
            if let Some((prev_t, prev_pc, prev_op)) = last {
                if prev_t != idx && prev_pc == here && prev_op == op {
                    charges.drafted += 1;
                }
            }
            last = Some((idx, here, op));
            charges.l1i += 1;
            record.op = op.index() as u8;
            retired[idx] += 1;
            let t = &mut th[idx];
            let (occupancy, activity, kind, target) = match op {
                Opcode::Halt => {
                    running[idx] = false;
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
                    store_buffer.push(addr, value, at);
                    charges.sb_enqueues += 1;
                    (1, value_activity(value), WaitKind::Execute, None)
                }
                Opcode::Membar => {
                    let held = store_buffer.drained_by(at) - at;
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
            busy[idx] = at + occupancy;
            wait[idx] = kind;
            pc[idx] = target.unwrap_or(here + 1);
            if op == Opcode::Stx {
                // From the next cycle on the pending drain is a
                // memory-system mutation: hand back.
                break now;
            }
            if target.is_some_and(|t| t <= here) {
                // Any occupancy already over is as good as none.
                let ahead = |i: usize| {
                    if running[i] {
                        busy[i].saturating_sub(now)
                    } else {
                        0
                    }
                };
                let regs = [th[0].regs, th[1].regs];
                let state = (pc, regs, [ahead(0), ahead(1)], wait, running, next, last);
                let before = records.len();
                let replayed = LoopHead::replay(&mut heads[idx], state, now, end, records, charges);
                for r in &records[before..] {
                    retired[usize::from(r.thread)] += 1;
                }
                now += replayed;
                for i in (0..2).filter(|&i| running[i]) {
                    busy[i] += replayed;
                }
            }
        };
        let [p0, p1] = progs;
        for (i, (t, p)) in th.into_iter().zip([p0, p1]).enumerate() {
            t.pc = pc[i];
            t.busy_until = busy[i];
            t.wait = wait[i];
            t.retired += retired[i];
            t.program = Some(p);
        }
        *next_thread = next;
        *last_issue = last;
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

    /// Runs `core` ahead locally over `[start, end)` and a clone live,
    /// one `step` per cycle, over the cycles the local run covered.
    /// Asserts the two agree on every counter (the records' activities
    /// folded in cycle order, as the machine does), on which cycles
    /// issued, and on the whole core state. Returns the horizon.
    fn assert_local_matches_step(core: Core, start: u64, end: u64) -> u64 {
        let mut stepped = core.clone();
        let mut local = core;
        let mut records = Vec::new();
        let mut charges = LocalCharges::default();
        let horizon = local.run_local(start, start, end, &mut records, &mut charges);

        let (mut memsys, mut act) = (
            MemorySystem::new(&ChipConfig::piton()),
            ActivityCounters::default(),
        );
        let issued: Vec<u64> = (start..horizon)
            .filter(|&now| stepped.step(now, &mut memsys, &mut act))
            .collect();

        let mut folded = ActivityCounters {
            core_active_cycles: charges.active,
            mem_stall_cycles: charges.mem_stall,
            dual_thread_cycles: charges.dual,
            drafted_issues: charges.drafted,
            l1i_accesses: charges.l1i,
            sb_enqueues: charges.sb_enqueues,
            issues: charges.issues,
            occupancy_cycles: charges.occupancy,
            ..ActivityCounters::default()
        };
        for r in records.iter().filter(|r| r.op != PHANTOM_OP) {
            folded.operand_activity[usize::from(r.op)] += r.activity;
        }
        let offsets: Vec<u64> = records
            .iter()
            .map(|r| start + u64::from(r.offset))
            .collect();
        assert_eq!(offsets, issued, "issuing cycles");
        assert_eq!(folded, act);
        assert_eq!(format!("{local:?}"), format!("{stepped:?}"), "core state");
        horizon
    }

    fn core_with(programs: &[Vec<Instruction>]) -> Core {
        let mut core = Core::new(TileId::new(0), 2, 8);
        for (thread, code) in programs.iter().enumerate() {
            core.load_thread(thread, Arc::new(Program::from_instructions(code.clone())));
        }
        core
    }

    /// An endless loop whose registers never change: the shape both
    /// local loops replay instead of re-interpreting.
    fn steady_loop() -> Vec<Instruction> {
        vec![
            Instruction::movi(Reg::new(1), 0x5555),
            Instruction::movi(Reg::new(2), 0x0F0F),
            Instruction::alu(Opcode::Add, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::Mulx, Reg::new(4), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::And, Reg::new(3), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 2),
        ]
    }

    #[test]
    fn two_thread_run_local_matches_step() {
        // Lockstep copies of one loop draft each other's issues; loops
        // of different lengths recur only together.
        let tight = vec![
            Instruction::movi(Reg::new(1), 3),
            Instruction::alu(Opcode::Add, Reg::new(2), Reg::new(1), Reg::new(1)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 1),
        ];
        for pair in [[steady_loop(), steady_loop()], [steady_loop(), tight]] {
            let horizon = assert_local_matches_step(core_with(&pair), 0, 3_001);
            assert_eq!(horizon, 3_001);
        }
        // A countdown that halts mid-span leaves its sibling running
        // alone; a program without `halt` falls off the end.
        let countdown = vec![
            Instruction::movi(Reg::new(1), 40),
            Instruction::movi(Reg::new(2), 1),
            Instruction::alu(Opcode::Sub, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::branch(Opcode::Bne, Reg::new(1), Reg::G0, 2),
            Instruction::halt(),
        ];
        let short = vec![Instruction::nop(), Instruction::movi(Reg::new(5), 9)];
        for pair in [
            [steady_loop(), countdown.clone()],
            [short.clone(), steady_loop()],
        ] {
            let horizon = assert_local_matches_step(core_with(&pair), 0, 2_000);
            assert_eq!(horizon, 2_000);
        }
        let horizon = assert_local_matches_step(core_with(&[countdown, short]), 0, 2_000);
        assert_eq!(horizon, 2_000, "both threads halt: the run covers the span");
    }

    #[test]
    fn two_thread_run_local_stops_at_memory() {
        let mut store = steady_loop();
        store.insert(4, Instruction::stx(Reg::new(1), Reg::new(2), 0));
        let load = vec![
            Instruction::movi(Reg::new(1), 0x4000),
            Instruction::nop(),
            Instruction::ldx(Reg::new(2), Reg::new(1), 0),
        ];
        // Stops after the store (its drain is a memory-system effect)…
        let horizon = assert_local_matches_step(core_with(&[store, steady_loop()]), 0, 1_000);
        assert!(horizon < 1_000);
        // …and before the load.
        let horizon = assert_local_matches_step(core_with(&[steady_loop(), load]), 0, 1_000);
        assert!(horizon < 1_000);
    }

    #[test]
    fn three_running_threads_have_no_local_loop() {
        let mut core = Core::new(TileId::new(0), 3, 8);
        for thread in 0..3 {
            core.load_thread(thread, Arc::new(Program::from_instructions(steady_loop())));
        }
        let mut records = Vec::new();
        let horizon = core.run_local(5, 9, 100, &mut records, &mut LocalCharges::default());
        assert_eq!(horizon, 9, "stepped live from the start");
        assert!(records.is_empty());
    }

    #[test]
    fn steady_loop_replay_matches_step() {
        // Spans that end mid-period, on a period boundary and long
        // after the first replay all fold to what stepping produces.
        for end in [7, 40, 1_000, 1_024, 4_099] {
            assert_local_matches_step(core_with(&[steady_loop()]), 0, end);
        }
    }

    #[test]
    fn loop_with_changing_counter_matches_step() {
        // The counter feeds an ALU op, so a replayed period would
        // repeat stale registers and stale operand activities.
        let counting = vec![
            Instruction::movi(Reg::new(1), 0),
            Instruction::movi(Reg::new(2), 1),
            Instruction::movi(Reg::new(4), 0x00FF),
            Instruction::alu(Opcode::Add, Reg::new(1), Reg::new(1), Reg::new(2)),
            Instruction::alu(Opcode::And, Reg::new(3), Reg::new(1), Reg::new(4)),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 3),
        ];
        for programs in [vec![counting.clone()], vec![counting, steady_loop()]] {
            let mut core = core_with(&programs);
            assert_local_matches_step(core.clone(), 0, 3_000);
            let mut records = Vec::new();
            core.run_local(0, 0, 3_000, &mut records, &mut LocalCharges::default());
            assert!(core.reg(0, Reg::new(1)) > 300, "the counter ran");
        }
    }

    #[test]
    fn loop_with_membar_matches_step() {
        // A cold store leaves the drain port busy for hundreds of
        // cycles after the buffer empties. The first taken backward
        // branch reaches the head before the `membar` has waited, so
        // the second reaches it in the same state after a long wait
        // that no later period repeats.
        let code = vec![
            Instruction::movi(Reg::new(1), 0x2000),
            Instruction::stx(Reg::new(1), Reg::new(1), 0),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 5),
            Instruction::membar(),
            Instruction::nop(),
            Instruction::branch(Opcode::Beq, Reg::G0, Reg::G0, 3),
        ];
        let (mut core, mut memsys, mut act) = setup();
        core.load_thread(0, Arc::new(Program::from_instructions(code)));
        let mut now = 0;
        while now < 2 || core.has_pending_stores() {
            core.step(now, &mut memsys, &mut act);
            now += 1;
        }
        assert!(
            core.store_buffer.drained_by(now) > now + 100,
            "drain port busy"
        );
        assert_local_matches_step(core, now, now + 2_000);
    }
}
