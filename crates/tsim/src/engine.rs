//! The execution engine: a cooperative executor that runs every simulated
//! thread of a run on the caller's OS thread.
//!
//! Each simulated thread is an `async` body over a [`ThreadCtx`]. Every
//! instrumented operation is an `async fn` that, when awaited, applies
//! its effect to the machine state ([`Central`]) at once. At a
//! *scheduling point*
//! (synchronization operations, and data accesses when the
//! [`SwitchPolicy`](crate::SwitchPolicy) says so) the operation asks the
//! scheduler for the next thread. If the pick is the caller, the future
//! is ready at once and the thread runs on; otherwise it returns
//! `Pending` once, which unwinds the body's future back to [`run`].
//!
//! [`run`] is the whole executor: it polls the picked thread's boxed
//! future with a no-op waker, catches a panic per poll, and repeats until
//! every thread finished or the run failed. Nothing is ever woken: the
//! scheduler's pick *is* the wake-up, so the scheduler and not the OS
//! decides every interleaving, and a thread switch costs one `poll`.
//!
//! # Ownership
//!
//! The machine state lives in one `Rc<RefCell<Central>>` shared by the
//! executor and the run's [`ThreadCtx`] handles. An operation borrows it
//! for its synchronous part only and never across an `.await`, so at most
//! one borrow is live at any time. A failing operation records its
//! [`SimError`] and stays pending for good; the executor sees the error
//! after the poll returns and drops every thread's future.

use std::any::Any;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use adhash::{hash_delta_run, DeltaBatch, FpRound, HashSum, Mix64Hasher};

use crate::alloc::{AllocLog, Allocator, BlockInfo};
use crate::error::SimError;
use crate::faults::{FaultKind, FaultPlan, FaultRecord, FaultState};
use crate::libcalls::{LibCalls, LibLog};
use crate::mem::Memory;
use crate::monitor::{
    CheckpointInfo, CheckpointKind, EngineHashes, FastPathSpec, Monitor, StateView,
};
use crate::program::{GlobalDecl, Program, RunConfig};
use crate::sched::{Scheduler, SwitchPolicy};
use crate::trace::{Trace, TraceOp};
use crate::types::{Addr, BarrierId, CondId, LockId, RwLockId, SemId, ThreadId, TypeTag, ValKind};

/// Instruction-cost model (in simulated instructions).
const COST_ACCESS: u64 = 1;
const COST_SYNC: u64 = 1;
const COST_MALLOC: u64 = 10;
const COST_FREE: u64 = 10;
const COST_LIB: u64 = 5;

/// Even under `SwitchPolicy::SyncOnly`, force a scheduling point every
/// this many consecutive data accesses by one thread, so spin loops over
/// plain loads cannot keep the turn forever.
const FORCED_PREEMPT_EVERY: u64 = 4096;

/// Object-safe wrapper that lets the engine hold any monitor type and
/// still return the concrete value to the caller.
trait AnyMonitor: Monitor {
    fn as_monitor(&mut self) -> &mut dyn Monitor;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<M: Monitor + 'static> AnyMonitor for M {
    fn as_monitor(&mut self) -> &mut dyn Monitor {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TState {
    Ready,
    BlockedLock(LockId),
    BlockedBarrier(BarrierId),
    BlockedCond(CondId),
    BlockedRwRead(RwLockId),
    BlockedRwWrite(RwLockId),
    BlockedSem(SemId),
    Finished,
}

#[derive(Debug, Default)]
struct LockState {
    held_by: Option<ThreadId>,
}

#[derive(Debug)]
struct BarrierState {
    parties: usize,
    arrived: Vec<ThreadId>,
}

#[derive(Debug, Default)]
struct RwState {
    writer: Option<ThreadId>,
    readers: Vec<ThreadId>,
}

#[derive(Debug)]
struct SemState {
    count: u64,
}

/// Per-thread run state, kept in one contiguous arena (`Central::threads`)
/// instead of parallel `Vec`s so a scheduling point touches one cache line
/// per thread and run construction performs one allocation for all of it.
#[derive(Debug, Clone)]
struct ThreadSlot {
    state: TState,
    instr: u64,
    access_count: u64,
}

/// Engine-side store datapath for monitors that claim a
/// [`FastPathSpec`]: replaces the per-store virtual dispatch with
/// monomorphic batched incremental hashing (folded four lanes wide at
/// flush, see [`DeltaBatch`]).
struct HotState {
    hashing: bool,
    rounding: Option<FpRound>,
    hasher: Mix64Hasher,
    /// Deltas buffered since the last flush; all belong to `batch_tid`.
    batch: DeltaBatch,
    batch_tid: ThreadId,
    /// Per-thread incremental sums, grown lazily to the highest storing
    /// thread id (mirrors the lazy per-core growth of the dyn-path
    /// checker, which the cost model observes).
    sums: Vec<HashSum>,
    stores: u64,
    freed_words: u64,
    /// Reusable `(old, new)` buffer for whole-block frees.
    free_scratch: Vec<(u64, u64)>,
}

impl HotState {
    fn new(spec: FastPathSpec) -> Self {
        HotState {
            hashing: spec.hashing,
            rounding: spec.rounding,
            hasher: Mix64Hasher::default(),
            batch: DeltaBatch::new(),
            batch_tid: 0,
            sums: Vec::new(),
            stores: 0,
            freed_words: 0,
            free_scratch: Vec::new(),
        }
    }

    /// Rounds a word iff it is an FP store and rounding is configured —
    /// exactly `MhmCore::round_off` semantics, so the fast path hashes
    /// bit-identically to the dyn-path checker.
    #[inline]
    fn round(&self, bits: u64, kind: ValKind) -> u64 {
        match (kind, self.rounding) {
            (ValKind::F64, Some(r)) => r.apply_bits(bits),
            _ => bits,
        }
    }

    /// Folds the buffered deltas into `batch_tid`'s sum.
    fn flush_batch(&mut self) {
        if !self.batch.is_empty() {
            let sum = self.batch.flush(&self.hasher);
            let tid = self.batch_tid;
            if self.sums.len() <= tid {
                self.sums.resize(tid + 1, HashSum::ZERO);
            }
            self.sums[tid] = self.sums[tid].combine(sum);
        }
    }

    /// The per-store hot path: count, round, and buffer one delta.
    #[inline]
    fn on_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        self.stores += 1;
        if !self.hashing {
            return;
        }
        if self.batch_tid != tid || self.batch.is_full() {
            self.flush_batch();
            self.batch_tid = tid;
        }
        self.batch
            .push(addr.raw(), self.round(old, kind), self.round(new, kind));
    }
}

/// All mutable machine state of one run.
struct Central {
    mem: Memory,
    globals: Vec<GlobalDecl>,
    alloc: Allocator,
    locks: Vec<LockState>,
    rwlocks: Vec<RwState>,
    sems: Vec<SemState>,
    barriers: Vec<BarrierState>,
    threads: Vec<ThreadSlot>,
    /// The thread the scheduler picked last: the one the executor polls.
    active: Option<ThreadId>,
    scheduler: Box<dyn Scheduler + Send>,
    switch: SwitchPolicy,
    monitor: Box<dyn AnyMonitor + Send>,
    hot: Option<HotState>,
    zero_fill_instr: u64,
    charge_zero_fill: bool,
    lib: LibCalls,
    output: Vec<u8>,
    trace: Option<Trace>,
    decisions: Vec<u32>,
    decision_options: Option<Vec<Vec<u32>>>,
    step: u64,
    max_steps: u64,
    faults: Option<FaultState>,
    deadline_at: Option<Instant>,
    deadline_ms: u64,
    cp_seq: u64,
    cp_decision_index: Vec<usize>,
    error: Option<SimError>,
    finished: usize,
    nthreads: usize,
    sink: Option<Arc<dyn obs::EventSink>>,
    /// Reusable runnable-set buffer for scheduling points (no per-point
    /// allocation).
    sched_scratch: Vec<ThreadId>,
}

/// What the calling thread does after an operation: the future every
/// [`ThreadCtx`] operation ends by awaiting.
enum Turn {
    /// The caller keeps the turn: ready at once.
    Continue,
    /// The scheduler picked another thread: pending once, and ready when
    /// the executor polls the caller again (it polls only the picked
    /// thread, so that is the caller's next turn).
    Yield,
    /// The run failed (the error is recorded): pending for good.
    Stop,
}

impl Future for Turn {
    type Output = ();

    #[inline]
    fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        let turn = self.get_mut();
        match *turn {
            Turn::Continue => Poll::Ready(()),
            Turn::Yield => {
                *turn = Turn::Continue;
                Poll::Pending
            }
            Turn::Stop => Poll::Pending,
        }
    }
}

impl Central {
    fn trace_push(&mut self, tid: ThreadId, op: TraceOp) {
        if let Some(t) = &mut self.trace {
            t.push(tid, op);
        }
    }

    /// Emits one observability event, building it lazily so a run
    /// without a sink pays only this `Option` check.
    fn obs_emit(&self, make: impl FnOnce(u64) -> obs::Event) {
        if let Some(sink) = &self.sink {
            sink.record(make(self.step));
        }
    }

    /// Emits a fault-injection event.
    fn obs_fault(&self, tid: ThreadId, kind: FaultKind) {
        self.obs_emit(|step| {
            obs::Event::instant(step, tid as u32, "fault")
                .with_arg("tid", tid as u32)
                .with_arg("kind", kind.label())
        });
    }

    fn fire_checkpoint(&mut self, tid: ThreadId, kind: CheckpointKind) {
        let seq = self.cp_seq;
        self.cp_seq += 1;
        self.cp_decision_index.push(self.decisions.len());
        self.trace_push(tid, TraceOp::Checkpoint { seq });
        self.obs_emit(|step| {
            let (kind_str, label) = match kind {
                CheckpointKind::Barrier(_) => ("barrier", None),
                CheckpointKind::Manual(l) => ("manual", Some(l)),
                CheckpointKind::End => ("end", None),
            };
            let ev = obs::Event::instant(step, tid as u32, "checkpoint")
                .with_arg("seq", seq)
                .with_arg("kind", kind_str);
            match label {
                Some(l) => ev.with_arg("label", l),
                None => ev,
            }
        });
        let Central {
            mem,
            globals,
            alloc,
            monitor,
            hot,
            ..
        } = self;
        let mut view = StateView::new(mem, globals, alloc.table());
        if let Some(h) = hot.as_mut() {
            // Checkpoints are flush boundaries: drain the delta batch so
            // the per-thread sums are exact, then expose them.
            h.flush_batch();
        }
        if let Some(h) = hot.as_ref() {
            view = view.with_engine(EngineHashes {
                sums: &h.sums,
                stores: h.stores,
                freed_words: h.freed_words,
            });
        }
        monitor
            .as_monitor()
            .on_checkpoint(&CheckpointInfo { seq, kind }, &view);
    }

    fn deadlock_detail(&self) -> String {
        let mut parts = Vec::new();
        for (t, slot) in self.threads.iter().enumerate() {
            let what = match &slot.state {
                TState::Ready => continue,
                TState::BlockedLock(l) => format!("thread {t} waits on lock {}", l.index()),
                TState::BlockedBarrier(b) => {
                    format!("thread {t} waits at barrier {}", b.index())
                }
                TState::BlockedCond(c) => {
                    format!("thread {t} waits on condvar {}", c.0)
                }
                TState::BlockedRwRead(l) => {
                    format!("thread {t} waits to read-lock rwlock {}", l.index())
                }
                TState::BlockedRwWrite(l) => {
                    format!("thread {t} waits to write-lock rwlock {}", l.index())
                }
                TState::BlockedSem(sem) => {
                    format!("thread {t} waits on semaphore {}", sem.index())
                }
                TState::Finished => continue,
            };
            parts.push(what);
        }
        if parts.is_empty() {
            "no runnable threads".to_owned()
        } else {
            parts.join("; ")
        }
    }

    /// Records `err` (unless the run already failed) and stops the
    /// calling thread.
    #[cold]
    fn fail(&mut self, err: SimError) -> Turn {
        if self.error.is_none() {
            self.error = Some(err);
        }
        Turn::Stop
    }

    /// The wall-clock watchdog: `true` once the run's deadline passed.
    #[inline]
    fn deadline_passed(&self) -> bool {
        self.deadline_at.is_some_and(|at| Instant::now() >= at)
    }

    /// A scheduling point: record the caller's new state and let the
    /// scheduler pick who runs next. `avoid_self` is the forced-preemption
    /// backstop (see [`schedule_next_core`]).
    fn sched_point(&mut self, tid: ThreadId, new_state: TState, avoid_self: bool) -> Turn {
        self.step += 1;
        if self.step > self.max_steps {
            return self.fail(SimError::StepLimit {
                limit: self.max_steps,
            });
        }
        // Every scheduling point checks the wall clock, so even a spin
        // livelock over plain loads (which reaches here via the
        // forced-preemption backstop) is caught without waiting for the
        // much larger step limit.
        if self.deadline_passed() {
            return self.fail(SimError::Deadline {
                limit_ms: self.deadline_ms,
            });
        }
        self.threads[tid].state = new_state;
        self.active = None;
        match schedule_next_core(self, avoid_self.then_some(tid)) {
            Some(next) if next == tid => Turn::Continue,
            Some(_) => Turn::Yield,
            // No runnable thread: the core recorded a deadlock (the
            // caller is not finished).
            None => Turn::Stop,
        }
    }

    /// Counts one data access and inserts the scheduling point the
    /// switch policy (or the forced-preemption backstop) asks for.
    #[inline]
    fn access_point(&mut self, tid: ThreadId) -> Turn {
        let slot = &mut self.threads[tid];
        slot.access_count += 1;
        let count = slot.access_count;
        if count.is_multiple_of(FORCED_PREEMPT_EVERY) {
            self.sched_point(tid, TState::Ready, true)
        } else if self.switch.preempt_on_access(count) {
            self.sched_point(tid, TState::Ready, false)
        } else {
            Turn::Continue
        }
    }

    /// Hands a store to the fast path or the monitor.
    #[inline]
    fn observe_store(&mut self, tid: ThreadId, addr: Addr, old: u64, new: u64, kind: ValKind) {
        match &mut self.hot {
            Some(hot) => hot.on_store(tid, addr, old, new, kind),
            None => self
                .monitor
                .as_monitor()
                .on_store(tid, addr, old, new, kind),
        }
    }

    /// Allocates and zero-fills a block, charging the fill when
    /// configured, and reports it to the monitor. Returns the block's
    /// base and length in words.
    fn alloc_block(
        &mut self,
        tid: ThreadId,
        site: &'static str,
        tag: TypeTag,
        len: usize,
    ) -> (Addr, usize) {
        let base = self.alloc.alloc(tid, site, tag, len);
        let high = self.alloc.high_water();
        self.mem.grow_heap(high);
        let block = self.alloc.table()[&base.0].clone();
        for i in 0..block.len {
            self.mem.write(base.offset(i as u64), 0);
        }
        if self.charge_zero_fill {
            self.zero_fill_instr += block.len as u64;
        }
        self.monitor.as_monitor().on_alloc(tid, &block);
        (base, block.len)
    }

    // ---- data accesses -------------------------------------------------

    fn load(&mut self, tid: ThreadId, addr: Addr, kind: ValKind) -> (u64, Turn) {
        self.threads[tid].instr += COST_ACCESS;
        let Some(value) = self.mem.read(addr) else {
            return (0, self.fail(SimError::BadAddress { tid, addr }));
        };
        if self.hot.is_none() {
            // A fast-path claim covers loads too (a claiming monitor's
            // `on_load` is a no-op), so the dispatch is skipped entirely.
            self.monitor.as_monitor().on_load(tid, addr, value, kind);
        }
        self.trace_push(tid, TraceOp::Load(addr));
        (value, self.access_point(tid))
    }

    fn store(&mut self, tid: ThreadId, addr: Addr, mut value: u64, kind: ValKind) -> Turn {
        self.threads[tid].instr += COST_ACCESS;
        if let Some(f) = &mut self.faults {
            // Data corruption: the value actually written (and seen by
            // both memory and the monitor) has one bit flipped.
            if let Some(e) = f.fire(FaultKind::BitFlip, tid) {
                value ^= 1 << (e % 64);
                self.obs_fault(tid, FaultKind::BitFlip);
            }
        }
        let Some(mut old) = self.mem.write(addr, value) else {
            return self.fail(SimError::BadAddress { tid, addr });
        };
        if let Some(f) = &mut self.faults {
            // The §4.1 SW-Inc hazard: the monitor's read of the old value
            // races the store and observes a wrong (stale) word, so it
            // subtracts the wrong term from the hash. Memory itself is
            // untouched — only the monitor is lied to.
            if let Some(e) = f.fire(FaultKind::StaleRead, tid) {
                old ^= 1 << (e % 64);
                self.obs_fault(tid, FaultKind::StaleRead);
            }
        }
        self.observe_store(tid, addr, old, value, kind);
        self.trace_push(tid, TraceOp::Store(addr));
        self.access_point(tid)
    }

    /// Atomic read-modify-write: stores `f(old)` when it is `Some`.
    fn rmw(
        &mut self,
        tid: ThreadId,
        addr: Addr,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> (u64, Turn) {
        self.threads[tid].instr += 2 * COST_ACCESS;
        let Some(old) = self.mem.read(addr) else {
            return (0, self.fail(SimError::BadAddress { tid, addr }));
        };
        if let Some(new) = f(old) {
            self.mem.write(addr, new);
            self.observe_store(tid, addr, old, new, ValKind::U64);
        }
        self.trace_push(tid, TraceOp::Rmw(addr));
        (old, self.sched_point(tid, TState::Ready, false))
    }

    // ---- synchronization -----------------------------------------------

    /// Wakes every thread in `from` (a lock's, condvar's, … waiters).
    fn wake_all(&mut self, from: TState) {
        for slot in &mut self.threads {
            if slot.state == from {
                slot.state = TState::Ready;
            }
        }
    }

    /// One acquisition attempt; `true` once the lock is held.
    fn lock(&mut self, tid: ThreadId, l: LockId) -> (bool, Turn) {
        self.threads[tid].instr += COST_SYNC;
        match self.locks[l.0].held_by {
            None => {
                self.locks[l.0].held_by = Some(tid);
                self.trace_push(tid, TraceOp::Lock(l));
                (true, self.sched_point(tid, TState::Ready, false))
            }
            Some(holder) if holder == tid => {
                (true, self.fail(SimError::RelockHeld { tid, lock: l }))
            }
            Some(_) => (false, self.sched_point(tid, TState::BlockedLock(l), false)),
        }
    }

    fn unlock(&mut self, tid: ThreadId, l: LockId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        if self.locks[l.0].held_by != Some(tid) {
            return self.fail(SimError::UnlockNotHeld { tid, lock: l });
        }
        self.locks[l.0].held_by = None;
        if !wake_dropped(self, tid) {
            self.wake_all(TState::BlockedLock(l));
        }
        self.trace_push(tid, TraceOp::Unlock(l));
        self.sched_point(tid, TState::Ready, false)
    }

    fn barrier(&mut self, tid: ThreadId, b: BarrierId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        self.trace_push(tid, TraceOp::BarrierArrive(b));
        self.barriers[b.0].arrived.push(tid);
        if self.barriers[b.0].arrived.len() < self.barriers[b.0].parties {
            return self.sched_point(tid, TState::BlockedBarrier(b), false);
        }
        let arrived = std::mem::take(&mut self.barriers[b.0].arrived);
        for &t in &arrived {
            self.threads[t].state = TState::Ready;
        }
        self.trace_push(tid, TraceOp::BarrierRelease(b));
        self.fire_checkpoint(tid, CheckpointKind::Barrier(b));
        self.sched_point(tid, TState::Ready, false)
    }

    /// The first half of `cond_wait`: release `l` and block on `cond`.
    fn cond_wait(&mut self, tid: ThreadId, cond: CondId, l: LockId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        if self.locks[l.0].held_by != Some(tid) {
            return self.fail(SimError::UnlockNotHeld { tid, lock: l });
        }
        self.locks[l.0].held_by = None;
        self.wake_all(TState::BlockedLock(l));
        self.trace_push(tid, TraceOp::CondWait(cond, l));
        self.sched_point(tid, TState::BlockedCond(cond), false)
    }

    fn cond_signal(&mut self, tid: ThreadId, cond: CondId, all: bool) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        if !wake_dropped(self, tid) {
            if all {
                self.wake_all(TState::BlockedCond(cond));
            } else if let Some(slot) = self
                .threads
                .iter_mut()
                .find(|s| s.state == TState::BlockedCond(cond))
            {
                slot.state = TState::Ready;
            }
        }
        let op = if all {
            TraceOp::CondBroadcast(cond)
        } else {
            TraceOp::CondSignal(cond)
        };
        self.trace_push(tid, op);
        self.sched_point(tid, TState::Ready, false)
    }

    // ---- reader-writer locks and semaphores ------------------------------

    fn read_lock(&mut self, tid: ThreadId, l: RwLockId) -> (bool, Turn) {
        self.threads[tid].instr += COST_SYNC;
        if self.rwlocks[l.0].writer.is_some() {
            return (
                false,
                self.sched_point(tid, TState::BlockedRwRead(l), false),
            );
        }
        self.rwlocks[l.0].readers.push(tid);
        self.trace_push(tid, TraceOp::RwReadLock(l));
        (true, self.sched_point(tid, TState::Ready, false))
    }

    fn read_unlock(&mut self, tid: ThreadId, l: RwLockId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        let readers = &mut self.rwlocks[l.0].readers;
        let Some(pos) = readers.iter().position(|&t| t == tid) else {
            return self.fail(SimError::RwUnlockNotHeld {
                tid,
                rwlock: l.0,
                write: false,
            });
        };
        readers.swap_remove(pos);
        if readers.is_empty() {
            // A waiting writer may proceed.
            self.wake_all(TState::BlockedRwWrite(l));
        }
        self.trace_push(tid, TraceOp::RwReadUnlock(l));
        self.sched_point(tid, TState::Ready, false)
    }

    fn write_lock(&mut self, tid: ThreadId, l: RwLockId) -> (bool, Turn) {
        self.threads[tid].instr += COST_SYNC;
        let st = &mut self.rwlocks[l.0];
        if st.writer.is_some() || !st.readers.is_empty() {
            return (
                false,
                self.sched_point(tid, TState::BlockedRwWrite(l), false),
            );
        }
        st.writer = Some(tid);
        self.trace_push(tid, TraceOp::RwWriteLock(l));
        (true, self.sched_point(tid, TState::Ready, false))
    }

    fn write_unlock(&mut self, tid: ThreadId, l: RwLockId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        if self.rwlocks[l.0].writer != Some(tid) {
            return self.fail(SimError::RwUnlockNotHeld {
                tid,
                rwlock: l.0,
                write: true,
            });
        }
        self.rwlocks[l.0].writer = None;
        for slot in &mut self.threads {
            if slot.state == TState::BlockedRwRead(l) || slot.state == TState::BlockedRwWrite(l) {
                slot.state = TState::Ready;
            }
        }
        self.trace_push(tid, TraceOp::RwWriteUnlock(l));
        self.sched_point(tid, TState::Ready, false)
    }

    fn sem_wait(&mut self, tid: ThreadId, sem: SemId) -> (bool, Turn) {
        self.threads[tid].instr += COST_SYNC;
        if self.sems[sem.0].count == 0 {
            return (false, self.sched_point(tid, TState::BlockedSem(sem), false));
        }
        self.sems[sem.0].count -= 1;
        self.trace_push(tid, TraceOp::SemWait(sem));
        (true, self.sched_point(tid, TState::Ready, false))
    }

    fn sem_post(&mut self, tid: ThreadId, sem: SemId) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        self.sems[sem.0].count += 1;
        if !wake_dropped(self, tid) {
            self.wake_all(TState::BlockedSem(sem));
        }
        self.trace_push(tid, TraceOp::SemPost(sem));
        self.sched_point(tid, TState::Ready, false)
    }

    // ---- heap ------------------------------------------------------------

    fn malloc(
        &mut self,
        tid: ThreadId,
        site: &'static str,
        tag: TypeTag,
        len: usize,
    ) -> (Addr, Turn) {
        self.threads[tid].instr += COST_MALLOC;
        if let Some(f) = &mut self.faults {
            if f.fire(FaultKind::AllocFail, tid).is_some() {
                self.obs_fault(tid, FaultKind::AllocFail);
                return (Addr(0), self.fail(SimError::AllocFailed { tid, site }));
            }
        }
        let (base, words) = self.alloc_block(tid, site, tag, len);
        self.trace_push(tid, TraceOp::Alloc { base, len: words });
        self.obs_emit(|step| {
            obs::Event::instant(step, tid as u32, "alloc")
                .with_arg("base", base.0)
                .with_arg("words", words)
        });
        (base, self.sched_point(tid, TState::Ready, false))
    }

    fn free(&mut self, tid: ThreadId, addr: Addr) -> Turn {
        self.threads[tid].instr += COST_FREE;
        let Some(block) = self.alloc.free(addr) else {
            return self.fail(SimError::BadFree { tid, addr });
        };
        match &mut self.hot {
            Some(hot) => {
                hot.freed_words += block.len as u64;
                if hot.hashing {
                    // The freed block leaves the live state: cancel every
                    // word's contribution (delta current → 0, rounded as
                    // the dyn-path checker would) via one fused run over
                    // the block's contiguous words.
                    hot.flush_batch();
                    if hot.sums.len() <= tid {
                        hot.sums.resize(tid + 1, HashSum::ZERO);
                    }
                    let mut pairs = std::mem::take(&mut hot.free_scratch);
                    pairs.clear();
                    for i in 0..block.len {
                        let a = block.base.offset(i as u64);
                        let cur = self.mem.read(a).unwrap_or(0);
                        let kind = block.kind_at(i);
                        pairs.push((hot.round(cur, kind), hot.round(0, kind)));
                    }
                    let delta = hash_delta_run(&hot.hasher, block.base.raw(), &pairs);
                    hot.sums[tid] = hot.sums[tid].combine(delta);
                    hot.free_scratch = pairs;
                }
            }
            None => {
                let contents: Vec<u64> = block
                    .iter()
                    .map(|a| self.mem.read(a).unwrap_or(0))
                    .collect();
                self.monitor.as_monitor().on_free(tid, &block, &contents);
            }
        }
        self.trace_push(tid, TraceOp::Free { base: addr });
        self.obs_emit(|step| {
            obs::Event::instant(step, tid as u32, "free").with_arg("base", addr.0)
        });
        self.sched_point(tid, TState::Ready, false)
    }

    // ---- library calls, output, accounting -------------------------------

    /// Charges a library call and applies an injected
    /// [`FaultKind::LibPerturb`] fault to its result (environment
    /// nondeterminism beyond the seeded stream, e.g. an NTP step under
    /// `gettimeofday`).
    fn lib_call(&mut self, tid: ThreadId, call: impl FnOnce(&mut LibCalls) -> u64) -> u64 {
        self.threads[tid].instr += COST_LIB;
        let v = call(&mut self.lib);
        let perturbed = match &mut self.faults {
            Some(f) => f.fire(FaultKind::LibPerturb, tid),
            None => None,
        };
        match perturbed {
            Some(e) => {
                self.obs_fault(tid, FaultKind::LibPerturb);
                v ^ e
            }
            None => v,
        }
    }

    fn write_output(&mut self, tid: ThreadId, bytes: &[u8]) -> Turn {
        self.threads[tid].instr += COST_SYNC + bytes.len() as u64 / 8;
        self.output.extend_from_slice(bytes);
        self.monitor.as_monitor().on_output(tid, bytes);
        self.trace_push(tid, TraceOp::Output { len: bytes.len() });
        self.sched_point(tid, TState::Ready, false)
    }

    /// Local computation is no scheduling point, but it checks the
    /// watchdog: a thread looping on `work` alone must still time out.
    #[inline]
    fn work(&mut self, tid: ThreadId, n: u64) -> Turn {
        self.threads[tid].instr += n;
        if self.deadline_passed() {
            return self.fail(SimError::Deadline {
                limit_ms: self.deadline_ms,
            });
        }
        Turn::Continue
    }

    fn checkpoint(&mut self, tid: ThreadId, label: &'static str) -> Turn {
        self.threads[tid].instr += COST_SYNC;
        self.fire_checkpoint(tid, CheckpointKind::Manual(label));
        self.sched_point(tid, TState::Ready, false)
    }
}

/// Picks the next thread to run (or detects completion/deadlock), records
/// the decision and returns the pick. Expects `c.active == None`.
///
/// `avoid` excludes a thread from consideration when at least one other
/// thread is runnable — used by the forced-preemption backstop so that a
/// thread spinning on plain loads cannot be handed the turn straight
/// back regardless of the scheduler policy.
///
/// A `None` return means no thread is runnable: either every thread
/// finished, or the run deadlocked (recorded in `c.error`).
fn schedule_next_core(c: &mut Central, avoid: Option<ThreadId>) -> Option<ThreadId> {
    let mut runnable = std::mem::take(&mut c.sched_scratch);
    runnable.clear();
    runnable.extend((0..c.nthreads).filter(|&t| c.threads[t].state == TState::Ready));
    if let Some(avoid) = avoid {
        if runnable.len() > 1 {
            runnable.retain(|&t| t != avoid);
        }
    }
    if runnable.is_empty() {
        if c.finished < c.nthreads && c.error.is_none() {
            c.error = Some(SimError::Deadlock {
                detail: c.deadlock_detail(),
            });
        }
        c.sched_scratch = runnable;
        None
    } else {
        let idx = c.scheduler.pick(&runnable, c.step).min(runnable.len() - 1);
        let next = runnable[idx];
        c.decisions.push(next as u32);
        if let Some(opts) = &mut c.decision_options {
            opts.push(runnable.iter().map(|&t| t as u32).collect());
        }
        c.active = Some(next);
        c.obs_emit(|step| {
            obs::Event::instant(step, next as u32, "sched")
                .with_arg("tid", next as u32)
                .with_arg("runnable", runnable.len())
        });
        c.sched_scratch = runnable;
        Some(next)
    }
}

/// Registers a wake operation with the fault plan; `true` means an
/// injected [`FaultKind::WakeDrop`] swallows this wake (the classic
/// lost-wakeup bug — the woken state change simply does not happen).
fn wake_dropped(c: &mut Central, tid: ThreadId) -> bool {
    let dropped = match &mut c.faults {
        Some(f) => f.fire(FaultKind::WakeDrop, tid).is_some(),
        None => false,
    };
    if dropped {
        c.obs_fault(tid, FaultKind::WakeDrop);
    }
    dropped
}

/// The per-thread instrumented API that workload bodies are written
/// against — the simulator's equivalent of the instruction stream Pin
/// instruments in the paper.
///
/// All shared-memory traffic, synchronization, allocation, library calls
/// and output of the program under test must go through this handle; the
/// run's [`Monitor`] observes it and the scheduler interleaves it. Every
/// operation is `async`: its future is ready at once unless the
/// operation is a scheduling point at which the scheduler picks another
/// thread. An operation that is not awaited has no effect.
///
/// On machine misuse an operation never completes; the run then returns
/// the corresponding [`SimError`].
pub struct ThreadCtx {
    tid: ThreadId,
    machine: Rc<RefCell<Central>>,
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx").field("tid", &self.tid).finish()
    }
}

impl ThreadCtx {
    /// This thread's id (0-based, dense).
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Number of threads in the program.
    pub fn nthreads(&self) -> usize {
        self.machine.borrow().nthreads
    }

    /// Runs one operation's synchronous part on the machine state, then
    /// awaits the turn it returns. The borrow ends before the `.await`.
    async fn op<T>(&self, f: impl FnOnce(&mut Central, ThreadId) -> (T, Turn)) -> T {
        let (value, turn) = f(&mut self.machine.borrow_mut(), self.tid);
        turn.await;
        value
    }

    // ---- data accesses -------------------------------------------------

    /// Loads an integer/pointer word.
    pub async fn load(&self, addr: Addr) -> u64 {
        self.op(|c, tid| c.load(tid, addr, ValKind::U64)).await
    }

    /// Stores an integer/pointer word.
    pub async fn store(&self, addr: Addr, value: u64) {
        self.op(|c, tid| ((), c.store(tid, addr, value, ValKind::U64)))
            .await
    }

    /// Loads an `f64` (stored as its bit pattern).
    pub async fn load_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.op(|c, tid| c.load(tid, addr, ValKind::F64)).await)
    }

    /// Stores an `f64` — an *FP store*, which the checker may round off
    /// before hashing.
    pub async fn store_f64(&self, addr: Addr, value: f64) {
        self.op(|c, tid| ((), c.store(tid, addr, value.to_bits(), ValKind::F64)))
            .await
    }

    /// Atomic fetch-add on an integer word; returns the previous value.
    /// A synchronization (scheduling) point.
    pub async fn fetch_add(&self, addr: Addr, delta: u64) -> u64 {
        self.op(|c, tid| c.rmw(tid, addr, |old| Some(old.wrapping_add(delta))))
            .await
    }

    /// Atomic compare-and-swap; returns the previous value (the swap
    /// happened iff it equals `expected`). A scheduling point.
    pub async fn compare_and_swap(&self, addr: Addr, expected: u64, new: u64) -> u64 {
        self.op(|c, tid| c.rmw(tid, addr, |old| (old == expected).then_some(new)))
            .await
    }

    // ---- synchronization -----------------------------------------------

    /// Acquires a mutex, blocking while it is held by another thread.
    ///
    /// The simulated mutexes are non-reentrant; re-acquiring aborts the
    /// run with [`SimError::RelockHeld`].
    pub async fn lock(&self, l: LockId) {
        while !self.op(|c, tid| c.lock(tid, l)).await {}
    }

    /// Releases a mutex this thread holds.
    pub async fn unlock(&self, l: LockId) {
        self.op(|c, tid| ((), c.unlock(tid, l))).await
    }

    /// Arrives at a pthread-style barrier; blocks until all parties have
    /// arrived. The last arrival fires a determinism checkpoint — the
    /// paper checks at every dynamic `pthread_barrier_wait`.
    pub async fn barrier(&self, b: BarrierId) {
        self.op(|c, tid| ((), c.barrier(tid, b))).await
    }

    /// Waits on a condition variable, releasing `l` while waiting and
    /// re-acquiring it before returning.
    ///
    /// Spurious wakeups are possible (as with pthreads): always call in a
    /// predicate loop.
    pub async fn cond_wait(&self, cond: CondId, l: LockId) {
        self.op(|c, tid| ((), c.cond_wait(tid, cond, l))).await;
        self.lock(l).await
    }

    /// Wakes one thread waiting on `cond` (the lowest-id waiter).
    pub async fn cond_signal(&self, cond: CondId) {
        self.op(|c, tid| ((), c.cond_signal(tid, cond, false)))
            .await
    }

    /// Wakes every thread waiting on `cond`.
    pub async fn cond_broadcast(&self, cond: CondId) {
        self.op(|c, tid| ((), c.cond_signal(tid, cond, true))).await
    }

    /// Voluntarily yields the turn (a scheduling point with no effect).
    pub async fn sched_yield(&self) {
        self.op(|c, tid| ((), c.sched_point(tid, TState::Ready, false)))
            .await
    }

    // ---- reader-writer locks and semaphores ------------------------------

    /// Acquires a reader-writer lock in shared (read) mode; blocks while
    /// a writer holds it.
    pub async fn read_lock(&self, l: RwLockId) {
        while !self.op(|c, tid| c.read_lock(tid, l)).await {}
    }

    /// Releases a shared (read) hold.
    pub async fn read_unlock(&self, l: RwLockId) {
        self.op(|c, tid| ((), c.read_unlock(tid, l))).await
    }

    /// Acquires a reader-writer lock in exclusive (write) mode; blocks
    /// while any reader or another writer holds it.
    pub async fn write_lock(&self, l: RwLockId) {
        while !self.op(|c, tid| c.write_lock(tid, l)).await {}
    }

    /// Releases an exclusive (write) hold.
    pub async fn write_unlock(&self, l: RwLockId) {
        self.op(|c, tid| ((), c.write_unlock(tid, l))).await
    }

    /// Semaphore wait (P): blocks until the count is positive, then
    /// decrements it.
    pub async fn sem_wait(&self, sem: SemId) {
        while !self.op(|c, tid| c.sem_wait(tid, sem)).await {}
    }

    /// Semaphore post (V): increments the count and wakes waiters.
    pub async fn sem_post(&self, sem: SemId) {
        self.op(|c, tid| ((), c.sem_post(tid, sem))).await
    }

    // ---- heap ------------------------------------------------------------

    /// Allocates `len` zero-filled words at allocation site `site` with
    /// per-word type layout `tag`. A scheduling point (the allocator is
    /// shared state).
    pub async fn malloc(&self, site: &'static str, tag: TypeTag, len: usize) -> Addr {
        self.op(|c, tid| c.malloc(tid, site, tag, len)).await
    }

    /// Frees the block at `addr`. Aborts the run with
    /// [`SimError::BadFree`] if `addr` is not the base of a live block.
    /// A scheduling point.
    pub async fn free(&self, addr: Addr) {
        self.op(|c, tid| ((), c.free(tid, addr))).await
    }

    // ---- library calls, output, accounting -------------------------------

    /// Simulated nondeterministic `rand()` (controlled by the run's
    /// library seed / replay log).
    pub async fn rand_u64(&self) -> u64 {
        self.op(|c, tid| (c.lib_call(tid, |lib| lib.rand_u64(tid)), Turn::Continue))
            .await
    }

    /// Simulated `gettimeofday()` (controlled like [`rand_u64`]).
    ///
    /// [`rand_u64`]: ThreadCtx::rand_u64
    pub async fn gettimeofday(&self) -> u64 {
        self.op(|c, tid| (c.lib_call(tid, |lib| lib.gettimeofday(tid)), Turn::Continue))
            .await
    }

    /// Appends bytes to the program's output stream (the simulated
    /// `write()`); a scheduling point.
    pub async fn write_output(&self, bytes: &[u8]) {
        self.op(|c, tid| ((), c.write_output(tid, bytes))).await
    }

    /// Accounts `n` instructions of thread-local computation (work that
    /// does not touch shared memory). Not a scheduling point, but it
    /// honors the run's deadline.
    pub async fn work(&self, n: u64) {
        self.op(|c, tid| ((), c.work(tid, n))).await
    }

    /// Fires a manual determinism checkpoint (the paper's
    /// programmer-specified checking points). A scheduling point.
    pub async fn checkpoint(&self, label: &'static str) {
        self.op(|c, tid| ((), c.checkpoint(tid, label))).await
    }
}

/// Single-threaded setup context: establishes the program's fixed input
/// state before the threads start. No scheduling is involved; effects are
/// still visible to the [`Monitor`] (attributed to thread 0) so that the
/// identical input contributes identically to every run.
pub struct SetupCtx<'a> {
    c: &'a mut Central,
}

impl std::fmt::Debug for SetupCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetupCtx").finish_non_exhaustive()
    }
}

impl SetupCtx<'_> {
    /// Stores an integer word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped (setup bugs are programming errors).
    pub fn store(&mut self, addr: Addr, value: u64) {
        self.c.threads[0].instr += COST_ACCESS;
        let old = self
            .c
            .mem
            .write(addr, value)
            .expect("setup store to unmapped address");
        self.c
            .monitor
            .as_monitor()
            .on_store(0, addr, old, value, ValKind::U64);
    }

    /// Stores an `f64` word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn store_f64(&mut self, addr: Addr, value: f64) {
        self.c.threads[0].instr += COST_ACCESS;
        let old = self
            .c
            .mem
            .write(addr, value.to_bits())
            .expect("setup store to unmapped address");
        self.c
            .monitor
            .as_monitor()
            .on_store(0, addr, old, value.to_bits(), ValKind::F64);
    }

    /// Loads a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is unmapped.
    pub fn load(&mut self, addr: Addr) -> u64 {
        self.c
            .mem
            .read(addr)
            .expect("setup load from unmapped address")
    }

    /// Allocates `len` zero-filled words (setup allocations model the
    /// input data of the program).
    pub fn malloc(&mut self, site: &'static str, tag: TypeTag, len: usize) -> Addr {
        self.c.threads[0].instr += COST_MALLOC;
        self.c.alloc_block(0, site, tag, len).0
    }

    /// A deterministic pseudo-random stream for building input data
    /// (fixed across runs; not a simulated nondeterministic library call).
    pub fn input_rand(&mut self, key: u64) -> u64 {
        let mut x = key ^ 0x5bf0_3635_16f5_0e5b;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
}

/// The result of one simulated run.
///
/// Carries the monitor back to the caller together with the run's
/// accounting, logs, optional trace, and a view of the final state.
pub struct RunOutcome<M> {
    /// The monitor that observed the run.
    pub monitor: M,
    /// Native instructions executed, per thread (the Figure 6 baseline).
    pub instr: Vec<u64>,
    /// Instructions spent zero-filling allocations, charged only when
    /// [`RunConfig::charge_zero_fill`](crate::RunConfig) is set — the
    /// paper's HW-InstantCheck overhead.
    pub zero_fill_instr: u64,
    /// The program's output stream.
    pub output: Vec<u8>,
    /// The scheduler decisions taken (thread id per scheduling point);
    /// feed into a [`ScriptedScheduler`](crate::ScriptedScheduler) to
    /// replay the interleaving.
    pub decisions: Vec<u32>,
    /// The runnable set at every decision (recorded only when
    /// [`RunConfig::record_options`](crate::RunConfig) is set; empty
    /// otherwise).
    pub decision_options: Vec<Vec<u32>>,
    /// Total scheduling steps.
    pub steps: u64,
    /// Number of checkpoints fired (including the final `End`).
    pub checkpoints: u64,
    /// For each checkpoint (in firing order), how many scheduler
    /// decisions had been taken when it fired — lets systematic
    /// exploration align decision prefixes with checkpoint boundaries.
    pub checkpoint_decision_index: Vec<usize>,
    /// Allocator address log (for cross-run replay).
    pub alloc_log: Arc<AllocLog>,
    /// Library-call log (for cross-run replay).
    pub lib_log: Arc<LibLog>,
    /// Replayed allocations that fell back to fresh memory.
    pub replay_misses: u64,
    /// Every fault the run's [`FaultPlan`](crate::FaultPlan) injected,
    /// in firing order. Empty when no plan was configured. Part of the
    /// reproducibility contract: equal (fault seed, run config) pairs
    /// produce equal logs.
    pub faults: Vec<FaultRecord>,
    /// The recorded trace, if requested.
    pub trace: Option<Trace>,
    mem: Memory,
    globals: Vec<GlobalDecl>,
    blocks: BTreeMap<u64, BlockInfo>,
}

impl<M> std::fmt::Debug for RunOutcome<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutcome")
            .field("steps", &self.steps)
            .field("checkpoints", &self.checkpoints)
            .field("instructions", &self.total_instructions())
            .finish_non_exhaustive()
    }
}

impl<M> RunOutcome<M> {
    /// Reads one word of the final memory, or `None` if unmapped.
    pub fn final_word(&self, addr: Addr) -> Option<u64> {
        self.mem.read(addr)
    }

    /// Reads one `f64` of the final memory.
    pub fn final_f64(&self, addr: Addr) -> Option<f64> {
        self.mem.read(addr).map(f64::from_bits)
    }

    /// A view of the final live state (globals + live heap blocks).
    pub fn final_state(&self) -> StateView<'_> {
        StateView::new(&self.mem, &self.globals, &self.blocks)
    }

    /// Total native instructions across all threads (excluding monitor
    /// overhead and zero-fill).
    pub fn total_instructions(&self) -> u64 {
        self.instr.iter().sum()
    }
}

fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `prog` under `config` with `monitor` observing: the executor.
pub(crate) fn run<M: Monitor + 'static>(
    prog: Program,
    config: &RunConfig,
    monitor: M,
) -> Result<RunOutcome<M>, SimError> {
    let nthreads = prog.nthreads;
    let mut scheduler = config.scheduler.build();
    scheduler.init(nthreads);

    // Consult the monitor's fast-path claim once, before it is boxed.
    let hot = monitor.fast_path().map(HotState::new);

    let mut central = Central {
        mem: Memory::new(prog.global_words),
        globals: prog.globals,
        alloc: Allocator::new(nthreads, config.alloc_replay.clone()),
        locks: (0..prog.locks).map(|_| LockState::default()).collect(),
        rwlocks: (0..prog.rwlocks).map(|_| RwState::default()).collect(),
        sems: prog.sems.iter().map(|&count| SemState { count }).collect(),
        barriers: prog
            .barriers
            .iter()
            .map(|&parties| BarrierState {
                parties,
                arrived: Vec::new(),
            })
            .collect(),
        threads: vec![
            ThreadSlot {
                state: TState::Ready,
                instr: 0,
                access_count: 0,
            };
            nthreads
        ],
        active: None,
        scheduler,
        switch: config.switch,
        monitor: Box::new(monitor),
        hot,
        zero_fill_instr: 0,
        charge_zero_fill: config.charge_zero_fill,
        lib: LibCalls::new(nthreads, config.lib_seed, config.lib_replay.clone()),
        output: Vec::new(),
        trace: config.record_trace.then(Trace::default),
        decisions: Vec::new(),
        decision_options: config.record_options.then(Vec::new),
        step: 0,
        max_steps: config.max_steps,
        faults: config
            .faults
            .clone()
            .filter(FaultPlan::is_active)
            .map(FaultState::new),
        deadline_at: config.deadline.map(|d| Instant::now() + d),
        deadline_ms: config.deadline.map_or(0, |d| d.as_millis() as u64),
        cp_seq: 0,
        cp_decision_index: Vec::new(),
        error: None,
        finished: 0,
        nthreads,
        // Drop disabled sinks up front so every emission site reduces
        // to a `None` check.
        sink: config.sink.clone().filter(|s| s.enabled()),
        sched_scratch: Vec::with_capacity(nthreads),
    };

    if let Some(setup) = prog.setup {
        let mut sctx = SetupCtx { c: &mut central };
        setup(&mut sctx);
    }

    let machine = Rc::new(RefCell::new(central));
    let mut tasks: Vec<_> = prog
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            Some(body(ThreadCtx {
                tid,
                machine: Rc::clone(&machine),
            }))
        })
        .collect();

    let mut cx = Context::from_waker(Waker::noop());
    let mut next = schedule_next_core(&mut machine.borrow_mut(), None);
    while let Some(tid) = next {
        let task = tasks[tid]
            .as_mut()
            .expect("a finished thread is never picked");
        let polled = panic::catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx)));
        if let Ok(Poll::Ready(())) = polled {
            tasks[tid] = None;
        }
        let c = &mut *machine.borrow_mut();
        match polled {
            Ok(Poll::Ready(())) => {
                c.threads[tid].state = TState::Finished;
                c.finished += 1;
                c.active = None;
            }
            // An operation that hands the turn over leaves another thread
            // active (or records why none is); a body that is pending while
            // still holding the turn awaited something the scheduler
            // cannot see, and would otherwise be polled forever.
            Ok(Poll::Pending) if c.error.is_none() && c.active == Some(tid) => {
                c.fail(SimError::ThreadPanic {
                    tid,
                    message: "awaited a future that is not a ThreadCtx operation".to_owned(),
                });
            }
            Ok(Poll::Pending) => {}
            Err(payload) => {
                c.fail(SimError::ThreadPanic {
                    tid,
                    message: payload_message(payload.as_ref()),
                });
            }
        }
        next = match (&c.error, c.active) {
            (Some(_), _) => None,
            (None, Some(active)) => Some(active),
            (None, None) => schedule_next_core(c, None),
        };
    }
    // Dropping the futures drops every ThreadCtx, which leaves the
    // executor the only owner of the machine state.
    drop(tasks);
    let mut central = Rc::try_unwrap(machine)
        .unwrap_or_else(|_| panic!("a ThreadCtx outlived its run"))
        .into_inner();

    if let Some(err) = central.error.take() {
        return Err(err);
    }

    // End-of-run determinism checkpoint (the paper always checks at the
    // end of the program).
    central.fire_checkpoint(0, CheckpointKind::End);

    let (alloc_log, blocks, replay_misses) = central.alloc.into_parts();
    let monitor = central
        .monitor
        .into_any()
        .downcast::<M>()
        .unwrap_or_else(|_| unreachable!("monitor type preserved"));

    Ok(RunOutcome {
        monitor: *monitor,
        instr: central.threads.iter().map(|s| s.instr).collect(),
        zero_fill_instr: central.zero_fill_instr,
        output: central.output,
        decisions: central.decisions,
        decision_options: central.decision_options.unwrap_or_default(),
        steps: central.step,
        checkpoints: central.cp_seq,
        checkpoint_decision_index: central.cp_decision_index,
        alloc_log: Arc::new(alloc_log),
        lib_log: Arc::new(central.lib.into_log()),
        replay_misses,
        faults: central.faults.map_or_else(Vec::new, FaultState::into_log),
        trace: central.trace,
        mem: central.mem,
        globals: central.globals,
        blocks,
    })
}
