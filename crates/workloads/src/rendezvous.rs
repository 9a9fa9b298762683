//! Application threads and the shared state they record against.
//!
//! Each simulated processor runs its application code on a real OS thread.
//! The threads run freely: a shared load or store hits an atomic word
//! array, appends one [`DriverOp`] to the thread's own op vector, and
//! returns at once. Only barriers and locks synchronise, through a real
//! barrier and a lock table behind one mutex. No machine runs; timing is
//! applied later, when [`crate::trace::ReplayDriver`] feeds the recorded
//! streams to a simulated machine.
//!
//! Free-running threads give per-node streams that are independent of the
//! host schedule only when the application is data-race-free, so every
//! access is checked ([`shadow`]); see the [`crate::trace`] module docs
//! for the argument and for what the check cannot see.
//!
//! Sync semantics match the machine's. A barrier releases when every
//! *live* thread has arrived: a thread whose program has finished is
//! excused, as the machine excuses a processor that has issued
//! [`DriverOp::Done`]. `Barrier(seq)` counts each node's own barriers.
//! Locks are granted FIFO.
//!
//! A failed recording never returns a trace. An application panic is
//! re-raised with its own payload, a data race panics naming the word, the
//! two nodes and the barrier epoch, and a sync deadlock (every live thread
//! blocked at a barrier or on a lock) panics instead of hanging. A drop
//! guard retires each thread from the live count even while it unwinds,
//! and a failure wakes every blocked thread, so no thread is left waiting.

use crate::layout::{f2w, w2f};
use dirtree_core::types::Addr;
use dirtree_machine::DriverOp;
use dirtree_sim::{Cycle, FxHashMap};
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The per-thread handle through which application code touches shared
/// memory and synchronises.
pub struct Env {
    tid: usize,
    shared: Arc<Shared>,
    ops: Vec<DriverOp>,
    /// Barriers passed so far: this node's next `Barrier` sequence number
    /// and the barrier epoch its accesses belong to.
    epoch: u32,
    /// Locks held, in acquisition order, with their race-check tags.
    held: Vec<(u32, u16)>,
}

impl Env {
    /// Processor id of this thread.
    pub fn tid(&self) -> usize {
        self.tid
    }

    fn check_addr(&self, addr: Addr) {
        let words = self.shared.words.len();
        assert!(
            addr < words as u64,
            "node {} accessed address {addr}, outside the {words} shared words",
            self.tid
        );
    }

    fn access(&mut self, addr: Addr, write: bool) -> &AtomicU64 {
        self.check_addr(addr);
        let i = addr as usize;
        // Accesses under locks carry the outermost held lock's tag.
        let lock = self.held.first().map_or(0, |&(_, tag)| tag);
        // Relaxed suffices: every access to a shadow word is a load or a
        // compare-and-swap of that one location, and its modification
        // order alone makes a later access see an earlier one. A summary
        // only grows within an epoch, so a stale load that already covers
        // this access (new == old) is covered by every later value too.
        let cell = &self.shared.shadow[i];
        let mut old = cell.load(Relaxed);
        loop {
            let new = match shadow::step(old, self.epoch, self.tid as u16, write, lock) {
                Ok(new) => new,
                Err(other) => panic!(
                    "data race during trace recording: address {addr}, node {} ({}) and \
                     node {other}, barrier epoch {}: conflicting accesses hold no common lock",
                    self.tid,
                    if write { "write" } else { "read" },
                    self.epoch
                ),
            };
            if new == old {
                break;
            }
            match cell.compare_exchange_weak(old, new, Relaxed, Relaxed) {
                Ok(_) => break,
                Err(seen) => old = seen,
            }
        }
        self.ops.push(if write {
            DriverOp::Write(addr)
        } else {
            DriverOp::Read(addr)
        });
        &self.shared.words[i]
    }

    /// Shared load (one simulated memory reference).
    pub fn read(&mut self, addr: Addr) -> u64 {
        self.access(addr, false).load(Relaxed)
    }

    /// Shared store (one simulated memory reference).
    pub fn write(&mut self, addr: Addr, value: u64) {
        self.access(addr, true).store(value, Relaxed);
    }

    /// A simulated load whose value the program does not want. It loads
    /// nothing, so it can influence no op stream and is outside the
    /// data-race check.
    pub fn touch_read(&mut self, addr: Addr) {
        self.touch(addr, DriverOp::Read(addr));
    }

    /// A simulated store that leaves the shared word unchanged; like
    /// [`Env::touch_read`], it is outside the data-race check.
    pub fn touch_write(&mut self, addr: Addr) {
        self.touch(addr, DriverOp::Write(addr));
    }

    fn touch(&mut self, addr: Addr, op: DriverOp) {
        self.check_addr(addr);
        self.ops.push(op);
    }

    /// Shared load of a float.
    pub fn read_f(&mut self, addr: Addr) -> f64 {
        w2f(self.read(addr))
    }

    /// Shared store of a float.
    pub fn write_f(&mut self, addr: Addr, value: f64) {
        self.write(addr, f2w(value));
    }

    /// Local computation for `cycles` cycles.
    pub fn work(&mut self, cycles: Cycle) {
        self.ops.push(DriverOp::Work(cycles));
    }

    /// Global barrier across all live processors.
    pub fn barrier(&mut self) {
        self.ops.push(DriverOp::Barrier(self.epoch));
        self.epoch += 1;
        self.shared.barrier();
    }

    /// Acquire lock `id`.
    pub fn lock(&mut self, id: u32) {
        self.ops.push(DriverOp::Lock(id));
        let tag = self.shared.acquire(id, self.tid);
        self.held.push((id, tag));
    }

    /// Release lock `id`.
    pub fn unlock(&mut self, id: u32) {
        self.ops.push(DriverOp::Unlock(id));
        self.shared.release(id, self.tid);
        if let Some(i) = self.held.iter().rposition(|&(h, _)| h == id) {
            self.held.remove(i);
        }
    }
}

/// Per-application-thread program.
pub type AppFn = Box<dyn FnOnce(&mut Env) + Send + 'static>;

/// A workload: one application program per simulated processor, plus the
/// size of its shared memory. [`crate::trace::record_ops`] runs it once.
pub struct ThreadedWorkload {
    nprocs: usize,
    /// Taken by the one recording.
    apps: Option<Vec<AppFn>>,
    values: Vec<u64>,
}

impl ThreadedWorkload {
    /// One program per processor; `program(tid)` builds each thread's
    /// code. `shared_words` sizes the shared memory.
    pub fn new(nprocs: u32, shared_words: u64, program: impl FnMut(usize) -> AppFn) -> Self {
        Self {
            nprocs: nprocs as usize,
            apps: Some((0..nprocs as usize).map(program).collect()),
            values: vec![0; shared_words as usize],
        }
    }

    /// Number of simulated processors (application threads).
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Shared memory contents: zero before recording, the programs'
    /// final results after it.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    pub fn value_at(&self, addr: Addr) -> u64 {
        self.values[addr as usize]
    }

    pub fn float_at(&self, addr: Addr) -> f64 {
        w2f(self.values[addr as usize])
    }

    /// Run every program to completion on its own thread and return the
    /// per-node op streams; the final memory image lands in `values`.
    /// Panics on any failure (module docs), never returning a partial
    /// trace.
    pub(crate) fn record(&mut self) -> Vec<Vec<DriverOp>> {
        let n = self.nprocs;
        assert!(
            n <= shadow::MAX_NODES,
            "the recorder supports at most {} nodes, got {n}",
            shadow::MAX_NODES
        );
        let shared = Arc::new(Shared::new(n, self.values.len()));
        let handles: Vec<_> = self
            .apps
            .take()
            .expect("workload already recorded")
            .into_iter()
            .enumerate()
            .map(|(tid, app)| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sim-proc-{tid}"))
                    .spawn(move || {
                        let _retire = Retire(shared.clone());
                        let mut env = Env {
                            tid,
                            shared,
                            ops: Vec::new(),
                            epoch: 0,
                            held: Vec::new(),
                        };
                        app(&mut env);
                        env.ops
                    })
                    .expect("spawn workload thread")
            })
            .collect();
        // Join every thread before reporting, so none outlives the call.
        let mut ops = Vec::with_capacity(n);
        let mut first_panic = None;
        for h in handles {
            match h.join() {
                Ok(stream) => ops.push(stream),
                Err(payload) if payload.is::<Aborted>() => {}
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        if let Some(msg) = shared.state().deadlock.take() {
            panic!("{msg}");
        }
        let shared = Arc::into_inner(shared).expect("every recording thread has exited");
        self.values = shared
            .words
            .into_iter()
            .map(AtomicU64::into_inner)
            .collect();
        ops
    }
}

/// Unwind payload of a thread stopped because another one failed; the
/// recorder reports the original failure instead.
struct Aborted;

fn abort() -> ! {
    resume_unwind(Box::new(Aborted))
}

/// Retires its thread from the live count when dropped, including while
/// the thread unwinds from a panic.
struct Retire(Arc<Shared>);

impl Drop for Retire {
    fn drop(&mut self) {
        self.0.retire(std::thread::panicking());
    }
}

struct Lock {
    /// Dense race-check tag (never 0, which means "no lock").
    tag: u16,
    owner: Option<usize>,
    waiters: VecDeque<usize>,
}

struct SyncState {
    nodes: usize,
    live: usize,
    at_barrier: usize,
    lock_waiters: usize,
    /// Barriers released so far; waiters leave when it changes.
    generation: u64,
    locks: FxHashMap<u32, Lock>,
    /// Set by any failure; every blocked or syncing thread then aborts.
    failed: bool,
    deadlock: Option<String>,
}

struct Shared {
    /// The shared memory. Relaxed loads and stores suffice: a word
    /// publishes no other data, and in a race-free recording every load
    /// of another node's store is ordered after it by the `sync` mutex (a
    /// barrier or a lock hand-off).
    words: Vec<AtomicU64>,
    /// Per-word race-check state ([`shadow`]).
    shadow: Vec<AtomicU64>,
    sync: Mutex<SyncState>,
    /// Signalled on every barrier release, lock hand-off and failure.
    wake: Condvar,
}

impl Shared {
    fn new(nodes: usize, words: usize) -> Self {
        Self {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
            shadow: (0..words).map(|_| AtomicU64::new(0)).collect(),
            sync: Mutex::new(SyncState {
                nodes,
                live: nodes,
                at_barrier: 0,
                lock_waiters: 0,
                generation: 0,
                locks: FxHashMap::default(),
                failed: false,
                deadlock: None,
            }),
            wake: Condvar::new(),
        }
    }

    /// The sync state, recovered from poisoning: every update leaves it
    /// valid, and a failure must stay reportable.
    fn state(&self) -> MutexGuard<'_, SyncState> {
        self.sync.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fail(&self, st: &mut SyncState) {
        st.failed = true;
        self.wake.notify_all();
    }

    /// After a live-count or blocked-count change: release the barrier if
    /// every live thread is there, or fail if no live thread can run.
    fn settle(&self, st: &mut SyncState) {
        if st.failed || st.live == 0 {
            return;
        }
        if st.at_barrier == st.live {
            st.at_barrier = 0;
            st.generation += 1;
            self.wake.notify_all();
        } else if st.at_barrier + st.lock_waiters == st.live {
            st.deadlock = Some(format!(
                "workload deadlocked during trace recording ({}/{} done, {} at barrier, \
                 {} waiting on a lock)",
                st.nodes - st.live,
                st.nodes,
                st.at_barrier,
                st.lock_waiters
            ));
            self.fail(st);
        }
    }

    fn barrier(&self) {
        let mut st = self.state();
        if st.failed {
            drop(st);
            abort();
        }
        st.at_barrier += 1;
        let generation = st.generation;
        self.settle(&mut st);
        while st.generation == generation && !st.failed {
            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.failed {
            drop(st);
            abort();
        }
    }

    /// Acquire lock `id` for `tid` (FIFO); returns the lock's tag.
    fn acquire(&self, id: u32, tid: usize) -> u16 {
        let mut st = self.state();
        if st.failed {
            drop(st);
            abort();
        }
        let next_tag = st.locks.len() + 1;
        let lock = st.locks.entry(id).or_insert_with(|| Lock {
            tag: u16::try_from(next_tag).expect("more distinct locks than the race check tags"),
            owner: None,
            waiters: VecDeque::new(),
        });
        let tag = lock.tag;
        if lock.owner.is_none() {
            lock.owner = Some(tid);
            return tag;
        }
        lock.waiters.push_back(tid);
        st.lock_waiters += 1;
        self.settle(&mut st);
        while st.locks[&id].owner != Some(tid) && !st.failed {
            st = self.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if st.failed {
            drop(st);
            abort();
        }
        tag
    }

    /// Release lock `id`, handing it to the longest waiter.
    fn release(&self, id: u32, tid: usize) {
        let mut st = self.state();
        let lock = st.locks.get_mut(&id).filter(|l| l.owner == Some(tid));
        let Some(lock) = lock else {
            drop(st);
            panic!("node {tid} unlocked lock {id}, which it does not hold");
        };
        lock.owner = lock.waiters.pop_front();
        if lock.owner.is_some() {
            st.lock_waiters -= 1;
            self.wake.notify_all();
        }
    }

    /// A thread's program has ended, normally or by unwinding.
    fn retire(&self, panicking: bool) {
        let mut st = self.state();
        if panicking {
            self.fail(&mut st);
        }
        st.live -= 1;
        self.settle(&mut st);
    }
}

/// The data-race check: one packed `u64` per shared word, summarising the
/// accesses made to it in the current barrier epoch.
///
/// Every load and store folds itself into its word's summary with a
/// compare-and-swap, so of two accesses to one word the later one always
/// sees the earlier, whatever the interleaving. A summary is a race when
/// two different nodes accessed the word, at least one of them wrote, and
/// not every access in the epoch held one common lock. Both conditions
/// only grow as accesses are added, so whether an epoch races depends on
/// its set of accesses, not on their order.
///
/// The lock condition is conservative: it asks that *every* access to a
/// conflicting word in the epoch held the same lock (an access's lock is
/// the outermost one its thread holds), not just each conflicting pair.
/// A word that one node writes under a lock and also reads without it,
/// while another node reads it under the lock, is reported although no
/// pair races.
pub(crate) mod shadow {
    /// Packing: epoch stamp 24 bits | kind 2 | node a 11 | node b 11 |
    /// lock tag 16.
    const EPOCH_BITS: u32 = 24;
    const NODE_BITS: u32 = 11;
    pub const MAX_NODES: usize = 1 << NODE_BITS;

    /// Only node `a` has accessed the word, and it has written.
    const WRITTEN: u64 = 1;
    /// Reads only: by `a` alone when `a == b`, else by `a`, `b` and
    /// perhaps others.
    const READ: u64 = 2;
    /// Nodes `a != b` made conflicting accesses (tolerated only while
    /// every access holds the common lock).
    const CONFLICT: u64 = 3;

    fn pack(stamp: u64, kind: u64, a: u16, b: u16, lock: u16) -> u64 {
        stamp | kind << 24 | (a as u64) << 26 | (b as u64) << 37 | (lock as u64) << 48
    }

    /// Fold one access by node `me` in barrier epoch `epoch` (holding lock
    /// tag `lock`, 0 for none) into summary `old`. `Err(other)` names the
    /// node it races with.
    pub fn step(old: u64, epoch: u32, me: u16, write: bool, lock: u16) -> Result<u64, u16> {
        // Stamp 0 marks a word untouched since recording began. The epoch
        // wraps after 2^24 - 1 barriers; a word idle for exactly that many
        // would have its stale summary taken for the current one.
        let stamp = (epoch as u64 % ((1 << EPOCH_BITS) - 1)) + 1;
        let field = |shift: u32, bits: u32| (old >> shift) & ((1 << bits) - 1);
        if field(0, EPOCH_BITS) != stamp {
            let kind = if write { WRITTEN } else { READ };
            return Ok(pack(stamp, kind, me, me, lock));
        }
        let kind = field(24, 2);
        let (a, b) = (field(26, NODE_BITS) as u16, field(37, NODE_BITS) as u16);
        let common = if field(48, 16) as u16 == lock {
            lock
        } else {
            0
        };
        let (kind, a, b) = match kind {
            WRITTEN if a == me => (WRITTEN, a, a),
            WRITTEN => (CONFLICT, a, me),
            READ if !write && (me == a || me == b) => (READ, a, b),
            READ if !write && a == b => (READ, a, me),
            READ if !write => (READ, a, b),
            READ if a == me && b == me => (WRITTEN, me, me),
            READ => (CONFLICT, if a != me { a } else { b }, me),
            _ => (CONFLICT, a, b),
        };
        if kind == CONFLICT && common == 0 {
            return Err(if a != me { a } else { b });
        }
        Ok(pack(stamp, kind, a, b, common))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::record_and_run;
    use dirtree_core::protocol::ProtocolKind;
    use dirtree_machine::{Machine, MachineConfig};

    fn run(
        nodes: u32,
        kind: ProtocolKind,
        words: u64,
        program: impl FnMut(usize) -> AppFn,
    ) -> (dirtree_machine::RunOutcome, ThreadedWorkload) {
        let mut workload = ThreadedWorkload::new(nodes, words, program);
        let mut machine = Machine::new(MachineConfig::test_default(nodes), kind);
        let out = record_and_run(&mut machine, &mut workload);
        (out, workload)
    }

    #[test]
    fn single_thread_counts_in_shared_memory() {
        let (_, w) = run(2, ProtocolKind::FullMap, 4, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    for i in 0..10u64 {
                        let v = env.read(0);
                        env.write(0, v + i);
                    }
                }
            })
        });
        assert_eq!(w.value_at(0), (0..10).sum::<u64>());
    }

    #[test]
    fn producer_consumer_through_barrier() {
        let (_, w) = run(
            4,
            ProtocolKind::DirTree {
                pointers: 4,
                arity: 2,
            },
            8,
            |tid| {
                Box::new(move |env| {
                    if tid == 0 {
                        env.write(3, 42);
                    }
                    env.barrier();
                    let v = env.read(3);
                    env.write(4 + tid as u64, v * 2);
                })
            },
        );
        for tid in 0..4u64 {
            assert_eq!(w.value_at(4 + tid), 84, "tid {tid} read a stale value");
        }
    }

    #[test]
    fn lock_protected_increments_do_not_race() {
        let (_, w) = run(8, ProtocolKind::FullMap, 2, |_| {
            Box::new(move |env| {
                for _ in 0..5 {
                    env.lock(1);
                    let v = env.read(0);
                    env.work(3);
                    env.write(0, v + 1);
                    env.unlock(1);
                }
            })
        });
        assert_eq!(w.value_at(0), 40);
    }

    #[test]
    fn floats_roundtrip_through_shared_memory() {
        let (_, w) = run(2, ProtocolKind::FullMap, 2, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    env.write_f(1, -2.5);
                }
                env.barrier();
                let x = env.read_f(1);
                if tid == 1 {
                    env.write_f(0, x * 2.0);
                }
            })
        });
        assert_eq!(w.float_at(0), -5.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            run(
                4,
                ProtocolKind::DirTree {
                    pointers: 2,
                    arity: 2,
                },
                128,
                |tid| {
                    Box::new(move |env| {
                        // Each node works in its own 32-word slice.
                        let base = 32 * tid as u64;
                        for i in 0..20u64 {
                            let a = (i * 7) % 32;
                            let v = env.read(base + a);
                            env.write(base + (a + 1) % 32, v + 1);
                        }
                        env.barrier();
                    })
                },
            )
            .0
        };
        let a = go();
        let b = go();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.stats.messages, b.stats.messages);
    }

    /// A panic in one application thread reaches the caller with its own
    /// message, even while the other threads wait at a barrier it never
    /// reaches.
    #[test]
    #[should_panic(expected = "node 1 gave up")]
    fn app_panic_is_reraised_not_truncated() {
        let mut w = ThreadedWorkload::new(2, 4, |tid| {
            Box::new(move |env| {
                env.write(tid as u64, 1);
                if tid == 1 {
                    panic!("node 1 gave up");
                }
                env.barrier();
                env.read(0);
                env.barrier();
            })
        });
        crate::record_ops(&mut w);
    }

    /// Every live thread blocked at a sync point is a named failure, not
    /// a hang: node 0 holds the lock across the barrier node 1 needs.
    #[test]
    #[should_panic(expected = "workload deadlocked during trace recording")]
    fn sync_deadlock_is_reported() {
        let mut w = ThreadedWorkload::new(2, 1, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    env.lock(7);
                    env.barrier();
                } else {
                    env.barrier();
                    env.lock(7);
                }
            })
        });
        crate::record_ops(&mut w);
    }

    /// Two nodes write one word in the same barrier epoch: a race, found
    /// whichever thread runs first.
    #[test]
    #[should_panic(expected = "data race during trace recording: address 3")]
    fn racy_env_workload_is_rejected() {
        let mut w = ThreadedWorkload::new(2, 4, |tid| {
            Box::new(move |env| {
                env.barrier();
                env.write(3, tid as u64);
            })
        });
        crate::record_ops(&mut w);
    }

    #[test]
    fn unlocked_read_of_locked_word_races() {
        let mut w = ThreadedWorkload::new(2, 1, |tid| {
            Box::new(move |env| {
                if tid == 0 {
                    env.lock(1);
                    env.write(0, 5);
                    env.unlock(1);
                } else {
                    env.read(0);
                }
            })
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::record_ops(&mut w);
        }))
        .expect_err("a read without the writer's lock races");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("barrier epoch 0"), "{msg}");
    }

    /// The verdict of the shadow summary depends on the set of accesses in
    /// an epoch, never on their order: every permutation of each access
    /// set agrees on whether it races.
    #[test]
    fn race_verdict_is_order_independent() {
        // (node, write, lock tag)
        let sets: [&[(u16, bool, u16)]; 8] = [
            &[(0, false, 0), (1, false, 0), (2, false, 0)],
            &[(0, true, 0), (0, false, 0), (0, true, 3)],
            &[(0, false, 0), (1, false, 0), (0, true, 0)],
            &[(0, true, 1), (1, true, 1), (2, false, 1)],
            &[(0, true, 1), (1, true, 2)],
            &[(0, true, 1), (1, false, 1), (2, false, 0)],
            &[(3, false, 0), (3, true, 0), (4, false, 0)],
            &[(0, false, 2), (1, false, 0), (1, false, 2)],
        ];
        let races = |order: &[(u16, bool, u16)]| {
            let mut s = 0u64;
            for &(me, write, lock) in order {
                match shadow::step(s, 5, me, write, lock) {
                    Ok(next) => s = next,
                    Err(_) => return true,
                }
            }
            false
        };
        fn permutations(v: &[(u16, bool, u16)]) -> Vec<Vec<(u16, bool, u16)>> {
            if v.len() <= 1 {
                return vec![v.to_vec()];
            }
            let mut out = Vec::new();
            for i in 0..v.len() {
                let mut rest = v.to_vec();
                let x = rest.remove(i);
                for mut p in permutations(&rest) {
                    p.insert(0, x);
                    out.push(p);
                }
            }
            out
        }
        let expected = [false, false, true, false, true, true, true, false];
        for (set, want) in sets.iter().zip(expected) {
            for order in permutations(set) {
                assert_eq!(races(&order), want, "{order:?}");
            }
        }
    }

    /// A summary from an earlier epoch never counts against this one.
    #[test]
    fn barrier_epochs_reset_the_summary() {
        let s = shadow::step(0, 0, 0, true, 0).unwrap();
        assert!(shadow::step(s, 0, 1, false, 0).is_err());
        assert!(shadow::step(s, 1, 1, true, 0).is_ok());
    }
}
