//! **Dir<sub>i</sub>Tree<sub>k</sub>** — the paper's contribution (§3).
//!
//! The home directory keeps `i` pointers per memory block, each with a
//! *level* counter recording the height of the tree it points at; cache
//! blocks keep up to `k` child pointers (forward pointers only). Sharers
//! form a forest of at most `i` near-balanced trees.
//!
//! **Read miss** (Figure 6), always 2 messages:
//! 1. requester already pointed at by a directory pointer → just resupply;
//! 2. a free pointer exists → point it at the requester, level 1;
//! 3. two pointers have trees of equal height → both are handed to the
//!    requester, whose cache adopts the two roots as children; the first
//!    pointer now points at the requester (level + 1) and the second
//!    becomes free (*tree merge*);
//! 4. otherwise the pointer with the smallest level is handed over; its
//!    root becomes the requester's only child (*push down*).
//!
//! When several equal-height pairs exist we merge the pair of **maximal**
//! equal level: this reproduces the paper's Figure 5, where the 15th read
//! miss adopts processors 11 and 13.
//!
//! **Write miss** (~log P latency): the home sends a wave to the roots;
//! each node forwards it to its children and acknowledges its parent after
//! its subtree acks. Even-numbered pointers additionally forward to their
//! odd-numbered partners, so the home collects at most `⌈i/2⌉` acks.
//!
//! **Write policy.** §3 says the forest can serve "either an invalidation
//! or an update protocol", so the policy is a property of the block, not a
//! separate protocol. One forest, one Figure-6 insertion and one wave
//! fan-out serve three policies:
//! * *Invalidate* (the paper's protocol, [`DirTree::new`]): the wave is
//!   `Inv`, it clears the forest, and the writer gets an exclusive copy.
//! * *Update* ([`DirTree::new_update`]): the wave is `Update`, every copy
//!   stays valid and the forest survives; the writer joins it through the
//!   normal insertion. There is no exclusive state, so every write is a
//!   home transaction and memory is always current.
//! * *Adaptive* ([`DirTree::new_adaptive`]): the hybrid of the title. A
//!   home-side [`PatternDetector`] picks the policy per block. A flip is a
//!   mode-bit change on a *drained* block (no message in flight, no
//!   unretired completion, no open transaction, clean entry), and the
//!   forest stays where it is.
//!
//! **Replacement**: the evicted block silently kills its subtree with
//! unacknowledged `Replace_INV` messages and never informs the home —
//! directory pointers may go stale; wave handling is idempotent so every
//! wave message still produces exactly one ack.
//!
//! Because `Replace_INV` is unacknowledged, nothing orders the silent kill
//! before a later write grant: if the disbanding node forgot its child
//! edges, a write could complete (all *recorded* sharers acked) while a
//! `Replace_INV` is still in flight toward a live copy. The disbanded
//! edges are therefore remembered as **zombie edges** and every
//! acknowledged wave re-traverses them; per-channel FIFO delivery
//! guarantees the wave's message reaches each ex-child after the
//! `Replace_INV` did, so its acknowledgement proves the copy is dead (or
//! has re-joined the forest on its own). (The model checker in
//! `crates/check` finds the 12-step counterexample at P=2 if the edges are
//! dropped instead.)
//!
//! ```
//! use dirtree_core::dir::dir_tree::DirTree;
//! use dirtree_core::protocol::{Protocol, ProtocolParams};
//! use dirtree_core::testkit::MockCtx;
//!
//! // Reproduce Figure 5: after 14 read misses, the 15th requester adopts
//! // processors 11 and 13 (the maximal equal-height pair).
//! let mut ctx = MockCtx::new(32);
//! let mut proto = DirTree::new(4, 2, ProtocolParams::default());
//! for reader in 1..=15 {
//!     ctx.read(&mut proto, reader, 0);
//! }
//! assert_eq!(proto.children_of(15, 0), &[11, 13]);
//! ```

use crate::adapt::detector::PatternDetector;
use crate::ctx::{ProtoCtx, ProtoEvent};
use crate::dir::util::{AckCollectors, TxnGate};
use crate::msg::{Msg, MsgKind};
use crate::protocol::{ptr_bits, Protocol, ProtocolKind, ProtocolParams};
use crate::types::{Addr, LineState, NodeId, OpKind};
use dirtree_sim::{Cycle, FxHashMap, FxHashSet};

/// A directory pointer: the root of one sharer tree and its recorded level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    pub node: NodeId,
    pub level: u32,
}

#[derive(Clone, Default, Hash)]
struct Entry {
    dirty: bool,
    owner: NodeId,
    ptrs: Vec<Option<Ptr>>,
    pending: Option<(NodeId, OpKind)>,
    wait_acks: u32,
    wait_wb: bool,
    /// The pending writer was itself a recorded root: the grant will tell
    /// it to kill its own subtree locally.
    grant_self_root: bool,
}

/// A wave obligation: who to acknowledge and the pairing duty.
struct WaveDebt {
    from: NodeId,
    dir: bool,
    also: Option<NodeId>,
}

/// How the protocol completes writes.
#[derive(Clone)]
enum Policy {
    Invalidate,
    Update,
    Adaptive(Box<Adaptive>),
}

/// The adaptive policy's state: the detector, the per-block mode bits, and
/// the drain counters the flip rule consults.
#[derive(Clone)]
struct Adaptive {
    detector: PatternDetector,
    /// Blocks currently in update mode (absent = invalidate, the default).
    update_mode: FxHashSet<Addr>,
    drain: Drain,
    /// Machine size, latched from the context (the detector sizes reader
    /// bitsets with it). Constant per machine, so not fingerprinted.
    nodes: u32,
}

/// Per-block counts a block must bring to zero before it may flip.
#[derive(Clone, Default)]
struct Drain {
    /// Messages sent or redelivered and not yet handled.
    inflight: FxHashMap<Addr, u32>,
    /// Completions handed to the machine whose processor-side retirement
    /// has not been confirmed yet ([`Protocol::note_op_retired`]). A write
    /// that completed under update semantics must also retire under them.
    pending_retire: FxHashMap<Addr, u32>,
}

impl Drain {
    fn busy(&self, addr: Addr) -> bool {
        self.inflight.contains_key(&addr) || self.pending_retire.contains_key(&addr)
    }
}

/// Decrement a per-block drain count, dropping the key at zero.
fn release(counts: &mut FxHashMap<Addr, u32>, addr: Addr) {
    match counts.get_mut(&addr) {
        Some(c) if *c > 1 => *c -= 1,
        Some(_) => {
            counts.remove(&addr);
        }
        None => debug_assert!(false, "uncounted drain release for {addr:#x}"),
    }
}

/// The [`ProtoCtx`] the adaptive policy's handlers see: counts sends,
/// redeliveries and completions per block; everything else passes through.
struct CountingCtx<'a> {
    inner: &'a mut dyn ProtoCtx,
    drain: &'a mut Drain,
}

impl ProtoCtx for CountingCtx<'_> {
    fn now(&self) -> Cycle {
        self.inner.now()
    }
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }
    fn home_of(&self, addr: Addr) -> NodeId {
        self.inner.home_of(addr)
    }
    fn send(&mut self, dst: NodeId, msg: Msg) {
        *self.drain.inflight.entry(msg.addr).or_insert(0) += 1;
        self.inner.send(dst, msg);
    }
    fn redeliver(&mut self, node: NodeId, msg: Msg, delay: Cycle) {
        *self.drain.inflight.entry(msg.addr).or_insert(0) += 1;
        self.inner.redeliver(node, msg, delay);
    }
    fn occupy(&mut self, node: NodeId, cycles: Cycle) {
        self.inner.occupy(node, cycles);
    }
    fn line_state(&self, node: NodeId, addr: Addr) -> LineState {
        self.inner.line_state(node, addr)
    }
    fn set_line_state(&mut self, node: NodeId, addr: Addr, state: LineState) {
        self.inner.set_line_state(node, addr, state);
    }
    fn complete(&mut self, node: NodeId, addr: Addr, op: OpKind) {
        *self.drain.pending_retire.entry(addr).or_insert(0) += 1;
        self.inner.complete(node, addr, op);
    }
    fn note(&mut self, event: ProtoEvent) {
        self.inner.note(event);
    }
}

/// The wire kind of one wave hop: `Inv` or `Update`.
fn wave_kind(update: bool, also: Option<NodeId>, from_dir: bool) -> MsgKind {
    if update {
        MsgKind::Update { also, from_dir }
    } else {
        MsgKind::Inv { also, from_dir }
    }
}

/// Forward a wave from `node` to a child, zombie or pairing partner.
fn send_wave(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, to: NodeId, update: bool) {
    let kind = wave_kind(update, None, false);
    ctx.send(
        to,
        Msg {
            addr,
            src: node,
            kind,
        },
    );
}

/// Acknowledge one wave message (`InvAck` or `UpdateAck`).
fn send_ack(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, to: NodeId, dir: bool, update: bool) {
    let kind = if update {
        MsgKind::UpdateAck { dir }
    } else {
        MsgKind::InvAck { dir }
    };
    ctx.send(
        to,
        Msg {
            addr,
            src: node,
            kind,
        },
    );
}

/// The Dir_iTree_k protocol under one of its three write policies.
#[derive(Clone)]
pub struct DirTree {
    pointers: u32,
    arity: u32,
    params: ProtocolParams,
    policy: Policy,
    entries: FxHashMap<Addr, Entry>,
    gate: TxnGate,
    /// Cache-side child pointers (up to `arity` per line).
    children: FxHashMap<(NodeId, Addr), Vec<NodeId>>,
    /// Edges of a disbanded subtree: children a node has already sent an
    /// *unacknowledged* `ReplaceInv`, remembered until an acknowledged
    /// wave re-traverses them. Nothing orders a silent kill before a later
    /// write grant except per-channel FIFO — so the wave must follow the
    /// same channels the `ReplaceInv` took. Dropping these edges at
    /// replacement time lets a write complete while the kill is still in
    /// flight (the model checker finds the race in 12 steps at P=2).
    zombies: FxHashMap<(NodeId, Addr), Vec<NodeId>>,
    collectors: AckCollectors,
    /// Writeback requests that arrived while the owner was still killing
    /// its own subtree (`WmLip`); served when it becomes exclusive.
    pending_wb: FxHashMap<(NodeId, Addr), (OpKind, NodeId)>,
    /// Update policy: `Replace_INV`s that landed while the target's update
    /// grant was in flight (state `WmIp`). The kill is deferred to grant
    /// time, because the edge that led here is already gone — a copy the
    /// grant made valid would be unreachable from the roots forever.
    pending_kill: FxHashSet<(NodeId, Addr)>,
    /// Reusable scratch for one home wave's `(target, partner)` fan-out —
    /// cleared before every use, so its carry-over contents are *not*
    /// protocol state: it is excluded from [`Protocol::fingerprint`] (the
    /// model checker must never observe scratch reuse; a mutant that
    /// aliases this buffer across waves is caught by the witness — see
    /// `dirtree-check`'s `MutantKind::StaleWaveScratch`).
    wave_scratch: Vec<(NodeId, Option<NodeId>)>,
}

impl DirTree {
    /// The paper's protocol: invalidation writes.
    pub fn new(pointers: u32, arity: u32, params: ProtocolParams) -> Self {
        Self::with_policy(pointers, arity, params, Policy::Invalidate)
    }

    /// Update writes on every block.
    pub fn new_update(pointers: u32, arity: u32, params: ProtocolParams) -> Self {
        Self::with_policy(pointers, arity, params, Policy::Update)
    }

    /// The adaptive hybrid: a per-block write policy picked by the
    /// sharing-pattern detector (blocks start in invalidate mode).
    pub fn new_adaptive(pointers: u32, arity: u32, params: ProtocolParams) -> Self {
        let adaptive = Adaptive {
            detector: PatternDetector::new(
                params.adapt_flip_up,
                params.adapt_flip_down,
                params.adapt_saturation,
            ),
            update_mode: FxHashSet::default(),
            drain: Drain::default(),
            nodes: 0,
        };
        Self::with_policy(
            pointers,
            arity,
            params,
            Policy::Adaptive(Box::new(adaptive)),
        )
    }

    fn with_policy(pointers: u32, arity: u32, params: ProtocolParams, policy: Policy) -> Self {
        assert!(pointers >= 1, "need at least one directory pointer");
        assert!(arity >= 2, "cache blocks need at least two child pointers");
        Self {
            pointers,
            arity,
            params,
            policy,
            entries: FxHashMap::default(),
            gate: TxnGate::new(),
            children: FxHashMap::default(),
            zombies: FxHashMap::default(),
            collectors: AckCollectors::new(),
            pending_wb: FxHashMap::default(),
            pending_kill: FxHashSet::default(),
            wave_scratch: Vec::new(),
        }
    }

    /// Does `addr` currently complete writes with update semantics? Pinned
    /// policies answer from the policy alone.
    fn updates(&self, addr: Addr) -> bool {
        match &self.policy {
            Policy::Invalidate => false,
            Policy::Update => true,
            Policy::Adaptive(a) => a.update_mode.contains(&addr),
        }
    }

    /// Current detector score for `addr` (adaptive policy; diagnostics and
    /// tests). Pinned policies have no detector and report 0.
    pub fn score(&self, addr: Addr) -> i32 {
        match &self.policy {
            Policy::Adaptive(a) => a.detector.score(addr),
            _ => 0,
        }
    }

    /// Force `addr`'s mode bit *without* the drain check. This is a fault
    /// injector for the mutation tests — flipping mid-wave makes a
    /// completing write retire under the wrong semantics, which the SWMR
    /// witness must catch. Never called by the protocol itself.
    #[doc(hidden)]
    pub fn force_mode(&mut self, addr: Addr, update: bool) {
        let Policy::Adaptive(a) = &mut self.policy else {
            panic!("force_mode needs the adaptive write policy");
        };
        if update {
            a.update_mode.insert(addr);
        } else {
            a.update_mode.remove(&addr);
        }
    }

    fn entry(&mut self, addr: Addr) -> &mut Entry {
        let i = self.pointers as usize;
        self.entries.entry(addr).or_insert_with(|| Entry {
            ptrs: vec![None; i],
            ..Entry::default()
        })
    }

    /// The current forest for `addr`: `(root, level)` per non-null pointer,
    /// in pointer-index order (for tests, analysis cross-checks, and the
    /// tree-shape experiment).
    pub fn forest(&self, addr: Addr) -> Vec<Option<Ptr>> {
        self.entries
            .get(&addr)
            .map(|e| e.ptrs.clone())
            .unwrap_or_else(|| vec![None; self.pointers as usize])
    }

    /// Cache-side children of `(node, addr)`.
    pub fn children_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.children
            .get(&(node, addr))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Disbanded-subtree edges of `(node, addr)` still awaiting an
    /// acknowledged re-traversal (see the `zombies` field).
    pub fn zombies_of(&self, node: NodeId, addr: Addr) -> &[NodeId] {
        self.zombies
            .get(&(node, addr))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// No home transaction, no ack collection, no pending writeback or
    /// deferred kill, clean directory entry: the block may change write
    /// policy (the flip additionally requires a drained [`Drain`]). A dirty
    /// block is *not* idle — update mode has no exclusive state, so the
    /// owner must write back before the block can flip.
    fn flip_idle(&self, addr: Addr) -> bool {
        !self.gate.has_traffic(addr)
            && !self.collectors.open_at_addr(addr)
            && !self.pending_wb.keys().any(|k| k.1 == addr)
            && !self.pending_kill.iter().any(|k| k.1 == addr)
            && self.entries.get(&addr).is_none_or(|e| {
                !e.dirty
                    && e.pending.is_none()
                    && e.wait_acks == 0
                    && !e.wait_wb
                    && !e.grant_self_root
            })
    }

    /// Adaptive policy, while the home serves a fresh `ReadReq` or
    /// `WriteReq` for `addr` (from `writer`, for a write), *before* serving
    /// it: if the block is idle ([`Self::flip_idle`]), classify the write
    /// interval a write closes, then flip the block's write policy if the
    /// detector wants the other one and the block is drained — zero
    /// in-flight messages and zero unretired completions (so a write
    /// completed under the old mode also *retires* under it).
    ///
    /// A flip is a mode-bit change. The forest — roots, child edges and
    /// zombie edges — stays as it is; the entry is normalised to its
    /// pointers (the stale `owner` of a written-back block is dropped, and
    /// an entry without roots is removed), so a block's state after a flip
    /// does not depend on the history that led to it.
    fn maybe_flip(&mut self, ctx: &mut dyn ProtoCtx, addr: Addr, writer: Option<NodeId>) {
        if !self.flip_idle(addr) {
            return;
        }
        let Policy::Adaptive(a) = &mut self.policy else {
            return;
        };
        if let Some(writer) = writer {
            let pattern = a.detector.record_write(addr, writer, a.nodes);
            ctx.note(ProtoEvent::PatternSample(pattern));
        }
        let in_update = a.update_mode.contains(&addr);
        if a.detector.prefers_update(addr, in_update) == in_update || a.drain.busy(addr) {
            return;
        }
        self.flip(ctx, addr);
    }

    fn flip(&mut self, ctx: &mut dyn ProtoCtx, addr: Addr) {
        let Policy::Adaptive(a) = &mut self.policy else {
            unreachable!("only the adaptive policy flips");
        };
        let to_update = a.update_mode.insert(addr);
        if !to_update {
            a.update_mode.remove(&addr);
        }
        if let Some(e) = self.entries.get_mut(&addr) {
            if e.ptrs.iter().all(Option::is_none) {
                self.entries.remove(&addr);
            } else {
                *e = Entry {
                    ptrs: std::mem::take(&mut e.ptrs),
                    ..Entry::default()
                };
            }
        }
        ctx.note(ProtoEvent::ModeFlip { to_update });
    }

    /// Run `f` under the adaptive policy's counting context (a plain
    /// pass-through for pinned policies).
    fn counted(&mut self, ctx: &mut dyn ProtoCtx, f: impl FnOnce(&mut Self, &mut dyn ProtoCtx)) {
        let Policy::Adaptive(a) = &mut self.policy else {
            return f(self, ctx);
        };
        a.nodes = ctx.num_nodes();
        let mut drain = std::mem::take(&mut a.drain);
        f(
            self,
            &mut CountingCtx {
                inner: ctx,
                drain: &mut drain,
            },
        );
        if let Policy::Adaptive(a) = &mut self.policy {
            a.drain = drain;
        }
    }

    /// Silently disband `(node, addr)`'s subtree: one unacknowledged
    /// `ReplaceInv` per child, with the edges moved to the zombie set so
    /// the next acknowledged wave still covers them.
    fn disband(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
        let kids = self.children.remove(&(node, addr)).unwrap_or_default();
        if kids.is_empty() {
            return;
        }
        let z = self.zombies.entry((node, addr)).or_default();
        for k in kids {
            ctx.send(
                k,
                Msg {
                    addr,
                    src: node,
                    kind: MsgKind::ReplaceInv,
                },
            );
            if !z.contains(&k) {
                z.push(k);
            }
        }
    }

    /// Collect the whole tree rooted at `root` by following child pointers
    /// (diagnostics; cycles are guarded against).
    pub fn subtree(&self, root: NodeId, addr: Addr) -> Vec<NodeId> {
        let mut out = vec![root];
        let mut i = 0;
        while i < out.len() && out.len() < 100_000 {
            let n = out[i];
            for &c in self.children_of(n, addr) {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
            i += 1;
        }
        out
    }

    fn finish_txn(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr) {
        if let Some(next) = self.gate.finish(addr) {
            ctx.redeliver(home, next, 0);
        }
    }

    /// Figure 6: insert `requester` into the forest, returning the roots it
    /// must adopt as children (empty for cases 1 and 2).
    fn insert_sharer(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        addr: Addr,
        requester: NodeId,
    ) -> Vec<NodeId> {
        let arity = self.arity as usize;
        let e = self.entry(addr);
        // Case 1: already recorded (e.g. silently replaced, now re-reading).
        if e.ptrs.iter().flatten().any(|p| p.node == requester) {
            return vec![];
        }
        // Case 2: a free pointer.
        if let Some(slot) = e.ptrs.iter().position(Option::is_none) {
            e.ptrs[slot] = Some(Ptr {
                node: requester,
                level: 1,
            });
            return vec![];
        }
        // Case 3: merge equal-height trees of maximal equal height. The
        // paper always merges exactly two ("two pointers are selected");
        // with arity k > 2 we generalize and adopt up to k equal-height
        // roots at once (an extension; k = 2 reproduces the paper).
        let mut best: Option<(u32, Vec<usize>)> = None; // (level, slots)
        for a in 0..e.ptrs.len() {
            let la = e.ptrs[a].unwrap().level;
            if best.as_ref().is_some_and(|(l, _)| *l >= la) {
                continue;
            }
            let slots: Vec<usize> = (a..e.ptrs.len())
                .filter(|&b| e.ptrs[b].unwrap().level == la)
                .take(arity)
                .collect();
            if slots.len() >= 2 {
                best = Some((la, slots));
            }
        }
        if let Some((level, slots)) = best {
            let adopt: Vec<NodeId> = slots.iter().map(|&i| e.ptrs[i].unwrap().node).collect();
            e.ptrs[slots[0]] = Some(Ptr {
                node: requester,
                level: level + 1,
            });
            for &i in &slots[1..] {
                e.ptrs[i] = None;
            }
            ctx.note(ProtoEvent::TreeMerge);
            return adopt;
        }
        // Case 4: all levels distinct — push down the smallest tree.
        let (slot, ptr) = e
            .ptrs
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|p| (i, p)))
            .min_by_key(|&(_, p)| p.level)
            .expect("no pointers despite full directory");
        e.ptrs[slot] = Some(Ptr {
            node: requester,
            level: ptr.level + 1,
        });
        ctx.note(ProtoEvent::TreePushDown);
        vec![ptr.node]
    }

    fn handle_read_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.gate.admit(addr, &msg) {
            return;
        }
        if self.entry(addr).dirty {
            let e = self.entry(addr);
            debug_assert_ne!(e.owner, requester);
            e.pending = Some((requester, OpKind::Read));
            e.wait_wb = true;
            let owner = e.owner;
            ctx.send(
                owner,
                Msg {
                    addr,
                    src: home,
                    kind: MsgKind::WbReq {
                        for_op: OpKind::Read,
                        requester,
                    },
                },
            );
        } else {
            let adopt = self.insert_sharer(ctx, addr, requester);
            ctx.send(
                requester,
                Msg {
                    addr,
                    src: home,
                    kind: MsgKind::ReadReply { adopt },
                },
            );
            // Transaction stays open until the FillAck.
        }
    }

    /// Launch a write's wave from the home to the forest roots and return
    /// the number of acks the home awaits. An invalidation wave skips a
    /// root that is the writer itself — the grant tells it to kill its own
    /// subtree locally (it holds the child pointers; an `Inv` would only
    /// bounce back to it) — and clears the forest; an update wave reaches
    /// every root, the writer's own copy included, and keeps the forest.
    fn launch_wave(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        writer: NodeId,
        update: bool,
    ) -> u32 {
        let pairing = self.params.dir_tree_pairing;
        let skip = if update { None } else { Some(writer) };
        let root = |p: Option<Ptr>| p.map(|p| p.node).filter(|&n| Some(n) != skip);
        // Reuse the wave scratch buffer (taken, cleared, and put back) so a
        // write's fan-out list never allocates on the hot path.
        let mut sends = std::mem::take(&mut self.wave_scratch);
        sends.clear();
        let e = self.entries.get_mut(&addr).unwrap();
        if pairing {
            // Even-numbered roots forward to their odd partners: the home
            // receives at most ceil(i/2) acknowledgements.
            for pair in e.ptrs.chunks(2) {
                let odd = pair.get(1).copied().flatten();
                match (root(pair[0]), root(odd)) {
                    (Some(a), also) => sends.push((a, also)),
                    (None, Some(b)) => sends.push((b, None)),
                    (None, None) => {}
                }
            }
        } else {
            sends.extend(e.ptrs.iter().filter_map(|&p| root(p)).map(|n| (n, None)));
        }
        if !update {
            e.ptrs.iter_mut().for_each(|p| *p = None);
        }
        for &(dst, also) in &sends {
            ctx.send(
                dst,
                Msg {
                    addr,
                    src: home,
                    kind: wave_kind(update, also, true),
                },
            );
        }
        let expected = sends.len() as u32;
        self.wave_scratch = sends;
        expected
    }

    /// Complete a write at the home once its wave is acknowledged.
    fn grant(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        writer: NodeId,
        update: bool,
    ) {
        let kind = if update {
            // The writer keeps a valid copy: insert it as a sharer.
            let adopt = self.insert_sharer(ctx, addr, writer);
            MsgKind::UpdateGrant { adopt }
        } else {
            let e = self.entries.get_mut(&addr).unwrap();
            e.dirty = true;
            e.owner = writer;
            e.ptrs.iter_mut().for_each(|p| *p = None);
            let kill_self_subtree = std::mem::take(&mut e.grant_self_root);
            MsgKind::WriteReply { kill_self_subtree }
        };
        ctx.send(
            writer,
            Msg {
                addr,
                src: home,
                kind,
            },
        );
        self.finish_txn(ctx, home, addr);
    }

    fn handle_write_req(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::WriteReq { requester } = msg.kind else {
            unreachable!()
        };
        if !self.gate.admit(addr, &msg) {
            return;
        }
        let update = self.updates(addr);
        let e = self.entry(addr);
        if e.dirty {
            e.pending = Some((requester, OpKind::Write));
            e.wait_wb = true;
            let owner = e.owner;
            ctx.send(
                owner,
                Msg {
                    addr,
                    src: home,
                    kind: MsgKind::WbReq {
                        for_op: OpKind::Write,
                        requester,
                    },
                },
            );
            return;
        }
        let self_root = !update && e.ptrs.iter().flatten().any(|p| p.node == requester);
        let expected = self.launch_wave(ctx, home, addr, requester, update);
        let e = self.entries.get_mut(&addr).unwrap();
        e.grant_self_root = self_root;
        if expected == 0 {
            self.grant(ctx, home, addr, requester, update);
        } else {
            e.pending = Some((requester, OpKind::Write));
            e.wait_acks = expected;
        }
    }

    fn handle_wb(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        home: NodeId,
        addr: Addr,
        src: NodeId,
        evict: bool,
    ) {
        let e = self.entry(addr);
        if e.wait_wb {
            e.wait_wb = false;
            let (requester, op) = e.pending.take().expect("wait_wb without pending");
            e.dirty = false;
            let old_owner = e.owner;
            match op {
                OpKind::Read => {
                    // The downgraded owner becomes the first root; then the
                    // requester joins through the normal insertion path.
                    if !evict {
                        e.ptrs[0] = Some(Ptr {
                            node: old_owner,
                            level: 1,
                        });
                    }
                    let adopt = self.insert_sharer(ctx, addr, requester);
                    ctx.send(
                        requester,
                        Msg {
                            addr,
                            src: home,
                            kind: MsgKind::ReadReply { adopt },
                        },
                    );
                    // Transaction stays open until the FillAck.
                }
                OpKind::Write => {
                    self.grant(ctx, home, addr, requester, false);
                }
            }
        } else {
            debug_assert!(evict);
            let e = self.entries.get_mut(&addr).unwrap();
            debug_assert!(e.dirty && e.owner == src);
            e.dirty = false;
        }
    }

    /// A root's `InvAck`/`UpdateAck` reached the home; the last one grants
    /// the write under the wave's semantics.
    fn handle_home_ack(&mut self, ctx: &mut dyn ProtoCtx, home: NodeId, addr: Addr, update: bool) {
        let e = self.entries.get_mut(&addr).expect("ack without entry");
        debug_assert!(e.wait_acks > 0);
        e.wait_acks -= 1;
        if e.wait_acks == 0 {
            let (requester, op) = e.pending.take().expect("acks without pending");
            debug_assert_eq!(op, OpKind::Write);
            self.grant(ctx, home, addr, requester, update);
        }
    }

    /// Append `(node, addr)`'s zombie edges to `targets` (skipping ones
    /// already there) and forget them: the wave about to traverse them is
    /// the acknowledged re-traversal they were waiting for.
    fn consume_zombies(&mut self, node: NodeId, addr: Addr, targets: &mut Vec<NodeId>) {
        for z in self.zombies.remove(&(node, addr)).unwrap_or_default() {
            if !targets.contains(&z) {
                targets.push(z);
            }
        }
    }

    /// One wave step at `node`: forward to `targets` plus every zombie edge
    /// (consumed — FIFO puts this wave behind the `Replace_INV` on the same
    /// channel) and the pairing partner, then settle `debt`: ack now if
    /// nothing was forwarded, else open a collector. Every wave delivery
    /// settles exactly one debt — later arrivals find the collector open
    /// and are absorbed in [`Self::handle_wave`]. Returns whether a
    /// collector opened.
    fn fan_out(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        mut targets: Vec<NodeId>,
        debt: WaveDebt,
        update: bool,
    ) -> bool {
        self.consume_zombies(node, addr, &mut targets);
        let forwards = targets.len() as u32 + u32::from(debt.also.is_some());
        for k in targets.into_iter().chain(debt.also) {
            send_wave(ctx, node, addr, k, update);
        }
        if forwards == 0 {
            send_ack(ctx, node, addr, debt.from, debt.dir, update);
            false
        } else {
            self.collectors
                .open(node, addr, debt.from, debt.dir, forwards);
            true
        }
    }

    /// Invalidate the copy at `node`: the wave takes its child edges with
    /// it, and a live line goes invalid (transiently `InvIp` while the
    /// subtree acks).
    fn kill_copy(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        debt: WaveDebt,
        invalidate_line: bool,
    ) {
        let kids = self.children.remove(&(node, addr)).unwrap_or_default();
        let collecting = self.fan_out(ctx, node, addr, kids, debt, false);
        if invalidate_line {
            let state = if collecting {
                LineState::InvIp
            } else {
                LineState::Iv
            };
            ctx.set_line_state(node, addr, state);
        }
    }

    /// An `Inv` or `Update` reached a cache. The message kind, not the
    /// block's current policy, picks the semantics: a wave finishes the
    /// way it started.
    fn handle_wave(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let update = matches!(msg.kind, MsgKind::Update { .. });
        let (MsgKind::Inv { also, from_dir } | MsgKind::Update { also, from_dir }) = msg.kind
        else {
            unreachable!()
        };
        let debt = WaveDebt {
            from: msg.src,
            dir: from_dir,
            also,
        };
        // A node already collecting acknowledgements answers immediately:
        // its subtree is covered by the first wave path, and waiting here
        // could deadlock on child-pointer *cycles* created by silent
        // replacement + rejoin (A is replaced, re-reads, and adopts its own
        // ex-ancestor). Immediate acks make every wait edge follow
        // first-visit order, which is acyclic. A pairing duty ('also') is
        // the one thing that must still be discharged and awaited.
        if self.collectors.is_open(node, addr) {
            if let Some(partner) = debt.also {
                send_wave(ctx, node, addr, partner, update);
                self.collectors.absorb(node, addr, debt.from, debt.dir, 1);
            } else {
                send_ack(ctx, node, addr, debt.from, debt.dir, update);
            }
            return;
        }
        let state = ctx.line_state(node, addr);
        if update {
            // The copy is refreshed in place and keeps its children.
            let live = state == LineState::V;
            if live {
                ctx.note(ProtoEvent::Invalidation); // counted as "copies touched"
            }
            let kids = if live || state == LineState::WmIp {
                self.children_of(node, addr).to_vec()
            } else {
                Vec::new()
            };
            self.fan_out(ctx, node, addr, kids, debt, true);
            return;
        }
        match state {
            LineState::V => {
                ctx.note(ProtoEvent::Invalidation);
                self.kill_copy(ctx, node, addr, debt, true);
            }
            LineState::WmIp | LineState::WmLip => {
                // Upgrading writer: its old copy (and subtree) dies, but the
                // line stays transient awaiting the grant.
                self.kill_copy(ctx, node, addr, debt, false);
            }
            LineState::InvIp => {
                // InvIp with a closed collector cannot happen (the state is
                // set exactly while a collector is open, and the open case
                // returned above).
                unreachable!("InvIp line without an open collector");
            }
            LineState::Iv | LineState::NotPresent | LineState::RmIp => {
                // Stale target (or a requester whose read has not been
                // served yet — the home holds read transactions open until
                // the FillAck, so no fill can be in flight here): no copy,
                // no children. But a disbanded subtree (zombie edges) must
                // be re-traversed with *acknowledged* invalidations — the
                // silent `ReplaceInv`s may still be in flight, and this
                // wave is what orders the kill before the write grant —
                // and a pairing duty must still be discharged. `kill_copy`
                // handles all of it (with no live line to invalidate).
                debug_assert!(self.children_of(node, addr).is_empty());
                self.kill_copy(ctx, node, addr, debt, false);
            }
            LineState::E => {
                // Unreachable by construction (see module docs); be safe.
                debug_assert!(false, "Inv reached an exclusive owner");
                send_ack(ctx, node, addr, debt.from, debt.dir, false);
            }
        }
    }

    /// A child's (or partner's) ack reached a collecting cache.
    fn handle_cache_ack(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, update: bool) {
        let Some(targets) = self.collectors.ack(node, addr) else {
            return;
        };
        if !update && ctx.line_state(node, addr) == LineState::InvIp {
            ctx.set_line_state(node, addr, LineState::Iv);
        }
        for (to, dir) in targets {
            if !update && to == node && !dir {
                // Self-subtree kill finished: the write completes.
                debug_assert_eq!(ctx.line_state(node, addr), LineState::WmLip);
                ctx.set_line_state(node, addr, LineState::E);
                ctx.complete(node, addr, OpKind::Write);
                if let Some((for_op, requester)) = self.pending_wb.remove(&(node, addr)) {
                    self.serve_wb_req(ctx, node, addr, for_op, requester);
                }
            } else {
                send_ack(ctx, node, addr, to, dir, update);
            }
        }
    }

    /// Serve a home recall at the exclusive owner.
    fn serve_wb_req(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        for_op: OpKind,
        requester: NodeId,
    ) {
        use crate::types::LineState as S;
        debug_assert_eq!(ctx.line_state(node, addr), S::E);
        debug_assert!(self.children_of(node, addr).is_empty());
        ctx.set_line_state(
            node,
            addr,
            match for_op {
                OpKind::Read => S::V,
                OpKind::Write => S::Iv,
            },
        );
        let home = ctx.home_of(addr);
        ctx.send(
            home,
            Msg {
                addr,
                src: node,
                kind: MsgKind::WbData { for_op, requester },
            },
        );
    }

    fn handle_read_reply(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        let MsgKind::ReadReply { adopt } = msg.kind else {
            unreachable!()
        };
        debug_assert_eq!(ctx.line_state(node, addr), LineState::RmIp);
        debug_assert!(
            self.children_of(node, addr).is_empty(),
            "filling a line that still owns children"
        );
        debug_assert!(adopt.len() <= self.arity as usize);
        if !adopt.is_empty() {
            self.children.insert((node, addr), adopt);
        }
        ctx.set_line_state(node, addr, LineState::V);
        ctx.complete(node, addr, OpKind::Read);
        let home = ctx.home_of(addr);
        ctx.send(
            home,
            Msg {
                addr,
                src: node,
                kind: MsgKind::FillAck,
            },
        );
    }

    fn handle_write_reply(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        kill_self_subtree: bool,
    ) {
        debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
        let mut kids = if kill_self_subtree {
            self.children.remove(&(node, addr)).unwrap_or_default()
        } else {
            // Any children the writer had were killed when the
            // invalidation reached it through the forest (before its
            // subtree acked, hence before this grant).
            debug_assert!(self.children_of(node, addr).is_empty());
            Vec::new()
        };
        // A subtree this writer disbanded earlier (silent replacement, then
        // re-miss) may still have its `ReplaceInv`s in flight: re-kill it
        // with acknowledged invalidations so the write cannot complete
        // first.
        self.consume_zombies(node, addr, &mut kids);
        if kids.is_empty() {
            ctx.set_line_state(node, addr, LineState::E);
            ctx.complete(node, addr, OpKind::Write);
        } else {
            // Kill our own subtree before the write completes.
            ctx.set_line_state(node, addr, LineState::WmLip);
            self.collectors
                .open(node, addr, node, false, kids.len() as u32);
            for k in kids {
                send_wave(ctx, node, addr, k, false);
            }
        }
    }

    fn handle_update_grant(
        &mut self,
        ctx: &mut dyn ProtoCtx,
        node: NodeId,
        addr: Addr,
        adopt: Vec<NodeId>,
    ) {
        debug_assert_eq!(ctx.line_state(node, addr), LineState::WmIp);
        if !adopt.is_empty() {
            let slot = self.children.entry((node, addr)).or_default();
            for a in adopt {
                if !slot.contains(&a) && a != node {
                    slot.push(a);
                }
            }
        }
        if self.pending_kill.remove(&(node, addr)) {
            // A `Replace_INV` raced this grant (see `handle_replace_inv`).
            // The write itself is done — the home applied the value when
            // it processed the request — but the local copy must go the
            // way the kill intended, or it stays valid yet unreachable
            // from the roots. Disband first so adopted subtrees get their
            // own kills.
            ctx.note(ProtoEvent::ReplacementInvalidation);
            self.disband(ctx, node, addr);
            ctx.set_line_state(node, addr, LineState::Iv);
        } else {
            // The writer keeps a *valid* (not exclusive) copy.
            ctx.set_line_state(node, addr, LineState::V);
        }
        ctx.complete(node, addr, OpKind::Write);
    }

    fn handle_replace_inv(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr) {
        match ctx.line_state(node, addr) {
            LineState::V => {
                ctx.note(ProtoEvent::ReplacementInvalidation);
                self.disband(ctx, node, addr);
                ctx.set_line_state(node, addr, LineState::Iv);
            }
            // Update mode: the kill crossed our in-flight update grant. The
            // parent edge that led here is gone (an update wave consumes it
            // as a zombie), so the copy the grant is about to validate
            // would be unreachable from the roots. Ignoring the kill would
            // leak a live orphan; defer it to grant time instead.
            LineState::WmIp if self.updates(addr) => {
                self.pending_kill.insert((node, addr));
            }
            // Otherwise a transient, invalid or exclusive line is no longer
            // the copy the stale parent thought it was killing.
            _ => {}
        }
    }

    fn handle_repl_notify(&mut self, addr: Addr, src: NodeId) {
        // Ablation policy E12: clear a stale root pointer eagerly.
        if let Some(e) = self.entries.get_mut(&addr) {
            for p in e.ptrs.iter_mut() {
                if p.map(|q| q.node) == Some(src) {
                    *p = None;
                }
            }
        }
    }

    fn dispatch(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let addr = msg.addr;
        match msg.kind {
            MsgKind::ReadReq { .. } => self.handle_read_req(ctx, node, msg),
            MsgKind::WriteReq { .. } => self.handle_write_req(ctx, node, msg),
            MsgKind::WbData { .. } => self.handle_wb(ctx, node, addr, msg.src, false),
            MsgKind::WbEvict => self.handle_wb(ctx, node, addr, msg.src, true),
            MsgKind::InvAck { dir: true } => self.handle_home_ack(ctx, node, addr, false),
            MsgKind::UpdateAck { dir: true } => self.handle_home_ack(ctx, node, addr, true),
            MsgKind::FillAck => self.finish_txn(ctx, node, addr),
            MsgKind::InvAck { dir: false } => self.handle_cache_ack(ctx, node, addr, false),
            MsgKind::UpdateAck { dir: false } => self.handle_cache_ack(ctx, node, addr, true),
            MsgKind::ReadReply { .. } => self.handle_read_reply(ctx, node, msg),
            MsgKind::WriteReply { kill_self_subtree } => {
                self.handle_write_reply(ctx, node, addr, kill_self_subtree)
            }
            MsgKind::UpdateGrant { adopt } => self.handle_update_grant(ctx, node, addr, adopt),
            MsgKind::Inv { .. } | MsgKind::Update { .. } => self.handle_wave(ctx, node, msg),
            MsgKind::ReplaceInv => self.handle_replace_inv(ctx, node, addr),
            MsgKind::ReplNotify => self.handle_repl_notify(addr, msg.src),
            MsgKind::WbReq { for_op, requester } => {
                use crate::types::LineState as S;
                match ctx.line_state(node, addr) {
                    S::E => self.serve_wb_req(ctx, node, addr, for_op, requester),
                    // Still killing our own subtree after the grant: serve
                    // the recall once exclusive.
                    S::WmLip => {
                        self.pending_wb.insert((node, addr), (for_op, requester));
                    }
                    // Evicted: the WbEvict in flight satisfies the home.
                    _ => {}
                }
            }
            other => unreachable!("Dir_iTree_k received {other:?}"),
        }
    }

    fn send_request(ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        let home = ctx.home_of(addr);
        let kind = match op {
            OpKind::Read => MsgKind::ReadReq { requester: node },
            OpKind::Write => MsgKind::WriteReq { requester: node },
        };
        ctx.send(
            home,
            Msg {
                addr,
                src: node,
                kind,
            },
        );
    }

    fn evict_line(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        match state {
            LineState::V => {
                self.disband(ctx, node, addr);
                if !self.params.dir_tree_silent_replace {
                    let home = ctx.home_of(addr);
                    ctx.send(
                        home,
                        Msg {
                            addr,
                            src: node,
                            kind: MsgKind::ReplNotify,
                        },
                    );
                }
            }
            LineState::E => {
                debug_assert!(
                    !self.updates(addr),
                    "exclusive copy of an update-mode block"
                );
                let home = ctx.home_of(addr);
                ctx.send(
                    home,
                    Msg {
                        addr,
                        src: node,
                        kind: MsgKind::WbEvict,
                    },
                );
            }
            other => unreachable!("evicting line in state {other:?}"),
        }
    }
}

impl Protocol for DirTree {
    fn kind(&self) -> ProtocolKind {
        let (pointers, arity) = (self.pointers, self.arity);
        match self.policy {
            Policy::Invalidate => ProtocolKind::DirTree { pointers, arity },
            Policy::Update => ProtocolKind::DirTreeUpdate { pointers, arity },
            Policy::Adaptive(_) => ProtocolKind::DirTreeAdaptive { pointers, arity },
        }
    }

    fn is_update(&self) -> bool {
        matches!(self.policy, Policy::Update)
    }

    fn is_update_for(&self, addr: Addr) -> bool {
        self.updates(addr)
    }

    fn wants_read_hits(&self) -> bool {
        matches!(self.policy, Policy::Adaptive(_))
    }

    fn note_read_hit(&mut self, node: NodeId, addr: Addr) {
        if let Policy::Adaptive(a) = &mut self.policy {
            debug_assert!(a.nodes > 0, "read hit before any miss");
            a.detector.record_read(addr, node, a.nodes);
        }
    }

    fn note_op_retired(&mut self, _node: NodeId, addr: Addr, _op: OpKind) {
        if let Policy::Adaptive(a) = &mut self.policy {
            release(&mut a.drain.pending_retire, addr);
        }
    }

    fn start_miss(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, op: OpKind) {
        self.counted(ctx, |_, c| Self::send_request(c, node, addr, op));
    }

    fn handle(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, msg: Msg) {
        let Policy::Adaptive(a) = &mut self.policy else {
            return self.dispatch(ctx, node, msg);
        };
        let addr = msg.addr;
        a.nodes = ctx.num_nodes();
        release(&mut a.drain.inflight, addr);
        // Fresh requests at the home feed the detector and may flip the
        // block before it is served. Reads are recorded even when the
        // transaction gate will defer the request (the reader set is
        // idempotent); writes are classified only on an idle block, so each
        // write transaction closes exactly one interval.
        match msg.kind {
            MsgKind::ReadReq { requester } => {
                a.detector.record_read(addr, requester, a.nodes);
                self.maybe_flip(ctx, addr, None);
            }
            MsgKind::WriteReq { requester } => self.maybe_flip(ctx, addr, Some(requester)),
            _ => {}
        }
        self.counted(ctx, |p, c| p.dispatch(c, node, msg));
    }

    fn evict(&mut self, ctx: &mut dyn ProtoCtx, node: NodeId, addr: Addr, state: LineState) {
        self.counted(ctx, |p, c| p.evict_line(c, node, addr, state));
    }

    fn dir_bits_per_mem_block(&self, nodes: u32) -> u64 {
        // i pointers, each (node id + level) ≈ 2·log n bits.
        let tree = 2 * self.pointers as u64 * ptr_bits(nodes);
        match self.policy {
            // Plus the dirty bit; update mode has no exclusive state.
            Policy::Invalidate => tree + 1,
            Policy::Update => tree,
            // Plus the detector state: reader bitset, last-writer pointer,
            // 4-bit saturating score, and the mode bit.
            Policy::Adaptive(_) => tree + 1 + nodes as u64 + ptr_bits(nodes) + 5,
        }
    }

    fn cache_bits_per_line(&self, nodes: u32) -> u64 {
        // k child pointers of log n bits, plus state.
        self.arity as u64 * ptr_bits(nodes) + 3
    }

    fn boxed_clone(&self) -> Box<dyn Protocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, h: &mut dyn std::hash::Hasher) {
        use crate::fingerprint::{digest_map, digest_set};
        digest_map(h, &self.entries);
        self.gate.digest(h);
        digest_map(h, &self.children);
        digest_map(h, &self.zombies);
        self.collectors.digest(h);
        digest_map(h, &self.pending_wb);
        digest_set(h, &self.pending_kill);
        if let Policy::Adaptive(a) = &self.policy {
            digest_set(h, &a.update_mode);
            digest_map(h, &a.drain.inflight);
            digest_map(h, &a.drain.pending_retire);
            a.detector.digest(h);
        }
    }

    fn relabeled(&self, perm: &[NodeId]) -> Option<Box<dyn Protocol>> {
        Some(Box::new(self.relabeled_concrete(perm)))
    }

    fn deliveries_commute(&self) -> bool {
        true
    }

    /// Dir_iTree_k structural invariants (§3 well-formedness).
    ///
    /// Checked at **every** state:
    /// * every directory entry keeps exactly `i` pointer slots (≤ i roots);
    /// * pointers reference valid nodes with level ≥ 1;
    /// * no two pointers of one block reference the same root;
    /// * cache-side child lists hold ≤ `k` distinct children, never the
    ///   node itself;
    /// * zombie (disbanded-subtree) edge lists hold distinct valid nodes,
    ///   never the node itself;
    /// * no update-mode block has an exclusive copy.
    ///
    /// Checked only at **quiescence** (no message in flight — mid-
    /// transaction these are legitimately violated, e.g. while a recalled
    /// owner's data is on the wire):
    /// * no ack collector, home transaction, pending write or deferred
    ///   kill is left open, and the adaptive drain counters are zero;
    /// * `dirty` entries have an empty forest, no child or zombie edges
    ///   (the granting wave drains both), and the recorded owner exclusive;
    /// * for every other block in play — with or without a directory
    ///   entry — there is no exclusive copy, and every valid copy is
    ///   reachable from the recorded roots through child and zombie
    ///   pointers: a sharer the forest cannot see would silently survive
    ///   (or miss) the next write wave.
    ///
    /// Note the *absence* of a height-vs-level claim: recorded levels are
    /// upper bounds at insertion time, and silent replacement + rejoin can
    /// leave stale cross-tree edges that make a traversal longer than any
    /// recorded level, so levels are deliberately only sanity-checked.
    fn check_invariants(
        &self,
        ctx: &dyn ProtoCtx,
        addrs: &[Addr],
        quiescent: bool,
    ) -> Result<(), String> {
        let nodes = ctx.num_nodes();
        let edge_maps = [
            ("child pointer", &self.children, self.arity as usize),
            ("zombie edge", &self.zombies, usize::MAX),
        ];
        for (what, map, max) in edge_maps {
            for (&(node, addr), kids) in map {
                if kids.len() > max {
                    return Err(format!(
                        "node {node} holds {} children for {addr:#x}, arity is {}",
                        kids.len(),
                        self.arity
                    ));
                }
                for (i, k) in kids.iter().enumerate() {
                    if *k == node {
                        return Err(format!("self-loop {what} at node {node} for {addr:#x}"));
                    }
                    if *k >= nodes {
                        return Err(format!("out-of-range {what} at node {node} for {addr:#x}"));
                    }
                    if kids[..i].contains(k) {
                        return Err(format!("duplicate {what} at node {node} for {addr:#x}"));
                    }
                }
            }
        }
        for (&addr, e) in &self.entries {
            if e.ptrs.len() != self.pointers as usize {
                return Err(format!(
                    "directory entry for {addr:#x} has {} pointer slots, expected {}",
                    e.ptrs.len(),
                    self.pointers
                ));
            }
            let mut roots: Vec<NodeId> = Vec::new();
            for p in e.ptrs.iter().flatten() {
                if p.node >= nodes {
                    return Err(format!("pointer at {addr:#x} references node {}", p.node));
                }
                if p.level == 0 {
                    return Err(format!("pointer at {addr:#x} has level 0"));
                }
                if roots.contains(&p.node) {
                    return Err(format!("duplicate root pointer at {addr:#x}"));
                }
                roots.push(p.node);
            }
        }
        for &addr in addrs.iter().filter(|&&a| self.updates(a)) {
            if let Some(n) = (0..nodes).find(|&n| ctx.line_state(n, addr) == LineState::E) {
                return Err(format!(
                    "update-mode block {addr:#x} has an exclusive copy at {n}"
                ));
            }
        }
        if !quiescent {
            return Ok(());
        }
        if self.collectors.open_count() != 0 {
            return Err(format!(
                "{} ack collector(s) still open at quiescence",
                self.collectors.open_count()
            ));
        }
        if self.gate.open_transactions() != 0 {
            return Err(format!(
                "{} home transaction(s) still open at quiescence",
                self.gate.open_transactions()
            ));
        }
        if let Some((&addr, _)) = self
            .entries
            .iter()
            .find(|(_, e)| e.pending.is_some() || e.wait_acks != 0)
        {
            return Err(format!("quiescent but write pending for {addr:#x}"));
        }
        if let Some((node, addr)) = self.pending_kill.iter().next() {
            return Err(format!(
                "quiescent but deferred kill at {node} for {addr:#x}"
            ));
        }
        if let Policy::Adaptive(a) = &self.policy {
            if let Some((&addr, &c)) = a.drain.inflight.iter().next() {
                return Err(format!(
                    "quiescent but {c} in-flight messages counted for {addr:#x}"
                ));
            }
            if let Some((&addr, &c)) = a.drain.pending_retire.iter().next() {
                return Err(format!(
                    "quiescent but {c} unretired completions counted for {addr:#x}"
                ));
            }
        }
        for &addr in addrs {
            let entry = self.entries.get(&addr);
            if let Some(e) = entry.filter(|e| e.dirty) {
                if e.ptrs.iter().any(Option::is_some) {
                    return Err(format!("dirty block {addr:#x} still records roots"));
                }
                if ctx.line_state(e.owner, addr) != LineState::E {
                    return Err(format!(
                        "dirty block {addr:#x}: recorded owner {} is not exclusive",
                        e.owner
                    ));
                }
                for (what, map) in [("child", &self.children), ("zombie", &self.zombies)] {
                    if map.iter().any(|(&(_, a), k)| a == addr && !k.is_empty()) {
                        return Err(format!("dirty block {addr:#x} still has {what} edges"));
                    }
                }
                continue;
            }
            // Clean block: no exclusive copy, and every valid copy must be
            // reachable from the recorded roots.
            let mut reach = vec![false; nodes as usize];
            let mut frontier: Vec<NodeId> = entry
                .map(|e| e.ptrs.iter().flatten().map(|p| p.node).collect())
                .unwrap_or_default();
            while let Some(n) = frontier.pop() {
                if std::mem::replace(&mut reach[n as usize], true) {
                    continue;
                }
                frontier.extend_from_slice(self.children_of(n, addr));
                frontier.extend_from_slice(self.zombies_of(n, addr));
            }
            for n in 0..nodes {
                match ctx.line_state(n, addr) {
                    LineState::E => {
                        return Err(format!(
                            "clean block {addr:#x} has an exclusive copy at node {n}"
                        ));
                    }
                    LineState::V if !reach[n as usize] => {
                        return Err(format!(
                            "valid copy at node {n} for {addr:#x} unreachable from the forest"
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }
}

/// Relabel a per-`(node, addr)` edge map (children / zombies) through
/// `perm`, preserving each edge list's order.
fn relabel_edges(
    map: &FxHashMap<(NodeId, Addr), Vec<NodeId>>,
    perm: &[NodeId],
) -> FxHashMap<(NodeId, Addr), Vec<NodeId>> {
    map.iter()
        .map(|(&(n, a), kids)| {
            (
                (perm[n as usize], a),
                kids.iter().map(|&k| perm[k as usize]).collect(),
            )
        })
        .collect()
}

impl DirTree {
    /// Node-relabeled clone ([`Protocol::relabeled`]). Every decision the
    /// protocol makes — slot selection, level comparison, wave pairing,
    /// push-down target, the detector's classification — is a function of
    /// slot indices, levels and id *equality*, never of node-id magnitude,
    /// so element-wise mapping of ids (preserving slot and edge-list order)
    /// is an exact equivariance. Mode bits and drain counts are keyed by
    /// address only. `wave_scratch` is cleared before every use and is not
    /// protocol state, so the clone starts with it empty.
    fn relabeled_concrete(&self, perm: &[NodeId]) -> DirTree {
        let relabel_ptr = |p: &Option<Ptr>| {
            p.map(|p| Ptr {
                node: perm[p.node as usize],
                level: p.level,
            })
        };
        let policy = match &self.policy {
            Policy::Invalidate => Policy::Invalidate,
            Policy::Update => Policy::Update,
            Policy::Adaptive(a) => Policy::Adaptive(Box::new(Adaptive {
                detector: a.detector.relabeled(perm),
                update_mode: a.update_mode.clone(),
                drain: a.drain.clone(),
                nodes: a.nodes,
            })),
        };
        DirTree {
            pointers: self.pointers,
            arity: self.arity,
            params: self.params,
            policy,
            entries: self
                .entries
                .iter()
                .map(|(&a, e)| {
                    (
                        a,
                        Entry {
                            dirty: e.dirty,
                            owner: perm[e.owner as usize],
                            ptrs: e.ptrs.iter().map(relabel_ptr).collect(),
                            pending: e.pending.map(|(n, op)| (perm[n as usize], op)),
                            wait_acks: e.wait_acks,
                            wait_wb: e.wait_wb,
                            grant_self_root: e.grant_self_root,
                        },
                    )
                })
                .collect(),
            gate: self.gate.relabeled(perm),
            children: relabel_edges(&self.children, perm),
            zombies: relabel_edges(&self.zombies, perm),
            collectors: self.collectors.relabeled(perm),
            pending_wb: self
                .pending_wb
                .iter()
                .map(|(&(n, a), &(op, req))| ((perm[n as usize], a), (op, perm[req as usize])))
                .collect(),
            pending_kill: self
                .pending_kill
                .iter()
                .map(|&(n, a)| (perm[n as usize], a))
                .collect(),
            wave_scratch: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ProtocolParams;
    use crate::testutil::MockCtx;

    fn setup(nodes: u32, pointers: u32) -> (MockCtx, DirTree) {
        (
            MockCtx::new(nodes),
            DirTree::new(pointers, 2, ProtocolParams::default()),
        )
    }

    /// Home of every address used below is node 0 (addr % nodes == 0), so
    /// requesters 1..=15 never collide with the home.
    const A: Addr = 0;

    #[test]
    fn read_miss_is_always_two_messages() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=20 {
            let mark = ctx.mark();
            ctx.read(&mut p, n, A);
            assert_eq!(
                ctx.critical_since(mark),
                2,
                "read miss #{n} must cost exactly 2 messages (paper Table 1)"
            );
        }
    }

    #[test]
    fn paper_figure5_fifteenth_request_adopts_11_and_13() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=14 {
            ctx.read(&mut p, n, A);
        }
        // After 14 requests the maximal-equal-level pair is (11, 13).
        ctx.read(&mut p, 15, A);
        assert_eq!(p.children_of(15, A), &[11, 13]);
    }

    #[test]
    fn forest_levels_follow_figure6() {
        let (mut ctx, mut p) = setup(32, 2);
        // Dir2Tree2 trace from Table 3: levels evolve 1,1 -> merge.
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        assert_eq!(
            p.forest(A),
            vec![
                Some(Ptr { node: 1, level: 1 }),
                Some(Ptr { node: 2, level: 1 })
            ]
        );
        ctx.read(&mut p, 3, A); // merge: 3 adopts 1 and 2
        assert_eq!(p.forest(A), vec![Some(Ptr { node: 3, level: 2 }), None]);
        assert_eq!(p.children_of(3, A), &[1, 2]);
        ctx.read(&mut p, 4, A); // free slot
        ctx.read(&mut p, 5, A); // push down: 5 adopts 4 (levels 2 and 1 differ)
        assert_eq!(
            p.forest(A),
            vec![
                Some(Ptr { node: 3, level: 2 }),
                Some(Ptr { node: 5, level: 2 })
            ]
        );
        assert_eq!(p.children_of(5, A), &[4]);
        ctx.read(&mut p, 6, A); // merge 3 and 5 under 6
        assert_eq!(p.forest(A), vec![Some(Ptr { node: 6, level: 3 }), None]);
        assert_eq!(p.children_of(6, A), &[3, 5]);
    }

    #[test]
    fn rereading_when_already_recorded_does_not_restructure() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=4 {
            ctx.read(&mut p, n, A);
        }
        let forest = p.forest(A);
        ctx.evict(&mut p, 2, A); // silent
        ctx.read(&mut p, 2, A); // case 1: still recorded
        assert_eq!(p.forest(A), forest, "forest unchanged by re-read");
    }

    #[test]
    fn write_invalidates_entire_forest() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=15 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 20, A);
        for n in 1..=15 {
            assert!(
                !ctx.line_state(n, A).readable(),
                "node {n} survived the write"
            );
        }
        assert_eq!(ctx.line_state(20, A), LineState::E);
        ctx.assert_swmr(A);
        // Forest is empty and dirty.
        assert!(p.forest(A).iter().all(Option::is_none));
    }

    #[test]
    fn pairing_halves_home_acks() {
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=8 {
            ctx.read(&mut p, n, A); // fills 4 pointers, then merges
        }
        let mark = ctx.mark();
        ctx.write(&mut p, 9, A);
        let dir_acks = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
            .count();
        let live_roots = 4; // after 8 inserts all four pointers are live
        assert!(
            dir_acks <= live_roots / 2 + 1,
            "home saw {dir_acks} acks, pairing should bound it by ceil(roots/2)"
        );
    }

    #[test]
    fn no_pairing_ablation_sends_ack_per_root() {
        let params = ProtocolParams {
            dir_tree_pairing: false,
            ..Default::default()
        };
        let mut p = DirTree::new(4, 2, params);
        let mut ctx = MockCtx::new(32);
        for n in 1..=8 {
            ctx.read(&mut p, n, A);
        }
        let roots = p.forest(A).iter().flatten().count();
        let mark = ctx.mark();
        ctx.write(&mut p, 9, A);
        let dir_acks = ctx
            .sent_since(mark)
            .iter()
            .filter(|(_, m)| matches!(m.kind, MsgKind::InvAck { dir: true }))
            .count();
        assert_eq!(dir_acks, roots);
    }

    #[test]
    fn silent_replacement_kills_subtree_only() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3 is root with children {1, 2}
        }
        ctx.read(&mut p, 4, A);
        ctx.evict(&mut p, 3, A); // Replace_INV kills 1 and 2 silently
        assert!(!ctx.line_state(1, A).readable());
        assert!(!ctx.line_state(2, A).readable());
        assert!(ctx.line_state(4, A).readable(), "other tree untouched");
        // Home still (staleley) points at 3; a write must still work.
        ctx.write(&mut p, 5, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![5]);
    }

    #[test]
    fn stale_root_rejoin_with_duplicate_invs_is_coherent() {
        let (mut ctx, mut p) = setup(32, 2);
        // Build: 3 -> {1, 2}; evict 1 silently (leaf). Home pointer still
        // references the tree; 1 re-reads and is re-inserted elsewhere,
        // creating a stale 3 -> 1 edge plus a fresh position for 1.
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        ctx.evict(&mut p, 1, A);
        ctx.read(&mut p, 4, A); // occupies second pointer
        ctx.read(&mut p, 1, A); // 1 rejoins: push-down of tree 4 (levels 2 vs 1)
        assert_eq!(p.children_of(1, A), &[4]);
        // Now the write's invalidation visits 1 once from home (root) and
        // once via the stale edge from 3.
        ctx.write(&mut p, 9, A);
        ctx.assert_swmr(A);
        assert_eq!(ctx.holders(A), vec![9]);
    }

    #[test]
    fn dirty_read_recall_keeps_owner_as_root() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.write(&mut p, 2, A);
        ctx.read(&mut p, 5, A);
        assert_eq!(ctx.line_state(2, A), LineState::V);
        assert_eq!(ctx.line_state(5, A), LineState::V);
        let forest = p.forest(A);
        assert_eq!(forest[0], Some(Ptr { node: 2, level: 1 }));
        assert_eq!(forest[1], Some(Ptr { node: 5, level: 1 }));
    }

    #[test]
    fn upgrade_write_from_inside_the_forest() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=5 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 3, A); // 3 is inside the forest (has children)
        assert_eq!(ctx.line_state(3, A), LineState::E);
        for n in [1, 2, 4, 5] {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
        assert!(p.children_of(3, A).is_empty(), "writer's children cleared");
    }

    #[test]
    fn exclusive_eviction_cleans_dirty_state() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.write(&mut p, 3, A);
        ctx.evict(&mut p, 3, A);
        let mark = ctx.mark();
        ctx.read(&mut p, 4, A);
        assert_eq!(ctx.critical_since(mark), 2, "clean read after writeback");
    }

    #[test]
    fn repl_notify_ablation_clears_stale_pointer() {
        let params = ProtocolParams {
            dir_tree_silent_replace: false,
            ..Default::default()
        };
        let mut p = DirTree::new(4, 2, params);
        let mut ctx = MockCtx::new(32);
        ctx.read(&mut p, 1, A);
        ctx.read(&mut p, 2, A);
        ctx.evict(&mut p, 1, A);
        assert_eq!(p.forest(A)[0], None, "notify cleared the pointer");
        assert_eq!(p.forest(A)[1], Some(Ptr { node: 2, level: 1 }));
    }

    #[test]
    fn deep_forest_write_storm_many_nodes() {
        let (mut ctx, mut p) = setup(32, 1);
        // Dir1Tree2 degenerates to a single (chain-heavy) tree.
        for n in 1..=25 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 30, A);
        for n in 1..=25 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn sequential_writers_chain_ownership() {
        let (mut ctx, mut p) = setup(16, 4);
        for n in 0..16 {
            ctx.write(&mut p, n, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![n]);
        }
    }

    #[test]
    fn subtree_inspection_walks_children() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        let t = p.subtree(3, A);
        assert_eq!(t, vec![3, 1, 2]);
    }

    #[test]
    fn memory_formula_matches_section3() {
        let p = DirTree::new(4, 2, ProtocolParams::default());
        // 2·i·log n + dirty = 2·4·5 + 1 for n = 32.
        assert_eq!(p.dir_bits_per_mem_block(32), 41);
        // k·log n + state = 2·5 + 3.
        assert_eq!(p.cache_bits_per_line(32), 13);
    }

    #[test]
    fn upgrade_by_sole_sharer_costs_two_messages() {
        // Migratory pattern: read then write by the same node. The home
        // skips the self-invalidation (the grant carries the subtree-kill
        // instruction), so the upgrade costs req + grant only.
        let (mut ctx, mut p) = setup(32, 4);
        ctx.read(&mut p, 3, A);
        let mark = ctx.mark();
        ctx.write(&mut p, 3, A);
        assert_eq!(ctx.critical_since(mark), 2, "upgrade must match full-map");
        assert_eq!(ctx.line_state(3, A), LineState::E);
    }

    #[test]
    fn upgrade_by_root_with_children_kills_subtree_locally() {
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A); // 3 -> {1, 2}
        }
        assert_eq!(p.children_of(3, A), &[1, 2]);
        let mark = ctx.mark();
        ctx.write(&mut p, 3, A); // 3 is the sole root
                                 // req + grant + 2 self-issued invs + 2 acks = 6, still cheaper
                                 // than bouncing an Inv off the home.
        assert_eq!(ctx.critical_since(mark), 6);
        assert!(!ctx.line_state(1, A).readable());
        assert!(!ctx.line_state(2, A).readable());
        assert_eq!(ctx.line_state(3, A), LineState::E);
        assert!(p.children_of(3, A).is_empty());
        ctx.assert_swmr(A);
    }

    #[test]
    fn writer_as_odd_partner_is_skipped_in_pairing() {
        let (mut ctx, mut p) = setup(32, 4);
        ctx.read(&mut p, 5, A); // ptr0
        ctx.read(&mut p, 7, A); // ptr1
        let mark = ctx.mark();
        ctx.write(&mut p, 7, A); // the odd partner upgrades
                                 // Home invalidates only node 5 (no `also` back to the writer):
                                 // req + inv(5) + ack + grant = 4.
        assert_eq!(ctx.critical_since(mark), 4);
        assert!(!ctx.line_state(5, A).readable());
        assert_eq!(ctx.line_state(7, A), LineState::E);
    }

    #[test]
    fn recall_during_self_subtree_kill_is_deferred() {
        // Build 3 -> {1, 2}; 3 upgrades (self-kill in progress keeps it
        // WmLip briefly); a reader's recall must wait for exclusivity.
        // With the mock's synchronous delivery the window closes inside
        // run(), so this exercises the pending_wb bookkeeping end-to-end.
        let (mut ctx, mut p) = setup(32, 2);
        for n in 1..=3 {
            ctx.read(&mut p, n, A);
        }
        ctx.write(&mut p, 3, A);
        ctx.read(&mut p, 9, A); // dirty recall from 3
        assert_eq!(ctx.line_state(3, A), LineState::V);
        assert_eq!(ctx.line_state(9, A), LineState::V);
        ctx.assert_swmr(A);
    }

    #[test]
    fn arity_four_merges_up_to_four_trees() {
        let mut p = DirTree::new(4, 4, ProtocolParams::default());
        let mut ctx = MockCtx::new(32);
        for n in 1..=4 {
            ctx.read(&mut p, n, A); // fill the four pointers, level 1 each
        }
        ctx.read(&mut p, 5, A); // 4-way merge: 5 adopts all four
        assert_eq!(p.children_of(5, A), &[1, 2, 3, 4]);
        let forest = p.forest(A);
        assert_eq!(forest[0], Some(Ptr { node: 5, level: 2 }));
        assert!(forest[1..].iter().all(Option::is_none));
        // Coherence still holds through the wider tree.
        ctx.write(&mut p, 9, A);
        for n in 1..=5 {
            assert!(!ctx.line_state(n, A).readable());
        }
        ctx.assert_swmr(A);
    }

    #[test]
    fn arity_two_merge_is_unchanged_by_the_generalization() {
        // The k = 2 behaviour must stay exactly the paper's (Figure 5).
        let (mut ctx, mut p) = setup(32, 4);
        for n in 1..=15 {
            ctx.read(&mut p, n, A);
        }
        assert_eq!(p.children_of(15, A), &[11, 13]);
    }

    #[test]
    fn interleaved_reads_and_writes_converge() {
        let (mut ctx, mut p) = setup(32, 4);
        for round in 0..4 {
            for n in 1..=10 {
                ctx.read(&mut p, n, A);
            }
            ctx.write(&mut p, round, A);
            ctx.assert_swmr(A);
            assert_eq!(ctx.holders(A), vec![round]);
        }
    }

    #[test]
    fn valid_copy_without_a_directory_entry_is_an_invariant_violation() {
        // A valid line the home has no entry for is unreachable from any
        // root; the quiescent reachability check must cover such blocks
        // too (the adaptive flip removes root-less entries, so blocks
        // without one are a real case).
        let (mut ctx, mut p) = setup(4, 2);
        ctx.begin_miss(&mut p, 1, A, OpKind::Read); // request never delivered
        ctx.set_line_state(1, A, LineState::V);
        let err = p.check_invariants(&ctx, &[A], true).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    mod update {
        use super::*;

        fn setup(nodes: u32) -> (MockCtx, DirTree) {
            (
                MockCtx::new(nodes),
                DirTree::new_update(4, 2, ProtocolParams::default()),
            )
        }

        /// An update-policy write via the mock (the MockCtx `write` helper
        /// asserts E, which does not exist here).
        fn do_write(ctx: &mut MockCtx, p: &mut DirTree, node: u32) {
            let before = ctx.completed.len();
            ctx.begin_miss(p, node, A, OpKind::Write);
            ctx.run(p);
            assert!(
                ctx.completed[before..].contains(&(node, A, OpKind::Write)),
                "write by {node} did not complete"
            );
            assert_eq!(ctx.line_state(node, A), LineState::V, "writer stays valid");
        }

        #[test]
        fn read_misses_cost_two_messages_like_invalidate_policy() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=10 {
                let mark = ctx.mark();
                ctx.read(&mut p, n, A);
                assert_eq!(ctx.critical_since(mark), 2);
            }
        }

        #[test]
        fn writes_leave_all_copies_valid() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=6 {
                ctx.read(&mut p, n, A);
            }
            do_write(&mut ctx, &mut p, 9);
            for n in 1..=6 {
                assert_eq!(
                    ctx.line_state(n, A),
                    LineState::V,
                    "update must not kill node {n}"
                );
            }
            assert_eq!(ctx.holders(A).len(), 7, "writer joins the sharers");
        }

        #[test]
        fn forest_shape_matches_invalidate_policy() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=14 {
                ctx.read(&mut p, n, A);
            }
            ctx.read(&mut p, 15, A);
            assert_eq!(p.children_of(15, A), &[11, 13], "Figure 5 shape preserved");
        }

        #[test]
        fn ternary_merge_adopts_three_equal_height_roots() {
            // i = 3, k = 3: three readers fill the pointers at level 1, and
            // the fourth adopts all three — the same k-way merge as the
            // invalidate policy, not a pairwise one.
            let mut p = DirTree::new_update(3, 3, ProtocolParams::default());
            let mut ctx = MockCtx::new(8);
            for n in 1..=4 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(4, A), &[1, 2, 3]);
            assert_eq!(
                p.forest(A),
                vec![Some(Ptr { node: 4, level: 2 }), None, None]
            );
            let mut inv = DirTree::new(3, 3, ProtocolParams::default());
            let mut inv_ctx = MockCtx::new(8);
            for n in 1..=4 {
                inv_ctx.read(&mut inv, n, A);
            }
            assert_eq!(p.forest(A), inv.forest(A));
            do_write(&mut ctx, &mut p, 5);
            assert_eq!(ctx.holders(A), vec![1, 2, 3, 4, 5]);
        }

        #[test]
        fn every_sharer_receives_every_update() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 4); // writer inside the forest
            let updates = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::Update { .. }))
                .count();
            assert_eq!(updates, 8, "one update per recorded sharer");
        }

        #[test]
        fn repeated_writes_by_same_node_each_pay_a_transaction() {
            let (mut ctx, mut p) = setup(32);
            do_write(&mut ctx, &mut p, 3);
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 3);
            // req + self-update + ack + grant: the no-E price.
            assert!(ctx.critical_since(mark) >= 4);
        }

        #[test]
        fn silent_replacement_then_update_is_safe() {
            // Two pointers so the third read merges: 3 -> {1, 2}.
            let mut p = DirTree::new_update(2, 2, ProtocolParams::default());
            let mut ctx = MockCtx::new(32);
            for n in 1..=3 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(3, A), &[1, 2]);
            ctx.evict(&mut p, 3, A); // kills 1 and 2 silently
            do_write(&mut ctx, &mut p, 5);
            assert!(!ctx.line_state(1, A).readable());
            assert!(!ctx.line_state(2, A).readable());
            assert_eq!(ctx.line_state(5, A), LineState::V);
        }

        #[test]
        fn disband_retains_zombie_edges_until_wave_retraverses() {
            let mut p = DirTree::new_update(2, 2, ProtocolParams::default());
            let mut ctx = MockCtx::new(32);
            for n in 1..=3 {
                ctx.read(&mut p, n, A);
            }
            assert_eq!(p.children_of(3, A), &[1, 2]);
            ctx.evict(&mut p, 3, A);
            assert_eq!(
                p.zombies_of(3, A),
                &[1, 2],
                "disbanded edges are retained as zombies"
            );
            do_write(&mut ctx, &mut p, 5);
            assert!(
                p.zombies.is_empty(),
                "the acked update wave consumes zombie edges"
            );
            assert!(!ctx.line_state(1, A).readable());
            assert!(!ctx.line_state(2, A).readable());
        }

        #[test]
        fn pairing_bounds_home_acks() {
            let (mut ctx, mut p) = setup(32);
            for n in 1..=8 {
                ctx.read(&mut p, n, A);
            }
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 9);
            let home_acks = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::UpdateAck { dir: true }))
                .count();
            assert!(
                home_acks <= 2,
                "pairing should bound home acks, got {home_acks}"
            );
        }

        #[test]
        fn memory_formula_has_no_dirty_bit() {
            let p = DirTree::new_update(4, 2, ProtocolParams::default());
            assert_eq!(p.dir_bits_per_mem_block(32), 40);
            assert!(p.is_update() && p.is_update_for(A));
        }
    }

    mod adaptive {
        use super::*;

        const P: u32 = 16;

        fn adaptive() -> DirTree {
            DirTree::new_adaptive(4, 2, ProtocolParams::default())
        }

        /// Mirror the machine: confirm retirement of every completion the
        /// mock logged since `from` (MockCtx itself has no retirement
        /// notion).
        fn retire(ctx: &MockCtx, p: &mut DirTree, from: usize) {
            for (n, a, op) in ctx.completed[from..].iter().copied() {
                p.note_op_retired(n, a, op);
            }
        }

        /// A read that mirrors the machine's hit path: hits feed
        /// `note_read_hit`, misses run to completion and retire.
        fn do_read(ctx: &mut MockCtx, p: &mut DirTree, node: NodeId, addr: Addr) {
            if ctx.line_state(node, addr).readable() {
                p.note_read_hit(node, addr);
                return;
            }
            let m = ctx.completed.len();
            ctx.read(p, node, addr);
            retire(ctx, p, m);
        }

        /// A write that runs to completion under either mode and retires;
        /// returns the writer's final line state.
        fn do_write(ctx: &mut MockCtx, p: &mut DirTree, node: NodeId, addr: Addr) -> LineState {
            if ctx.line_state(node, addr).writable() {
                return ctx.line_state(node, addr);
            }
            let m = ctx.completed.len();
            ctx.begin_miss(p, node, addr, OpKind::Write);
            ctx.run(p);
            assert!(
                ctx.completed[m..].contains(&(node, addr, OpKind::Write)),
                "write by {node} did not complete"
            );
            retire(ctx, p, m);
            ctx.line_state(node, addr)
        }

        #[test]
        fn read_mostly_block_flips_to_update_and_keeps_copies_valid() {
            let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
            // Interval 1: eight readers (half the machine), then a write.
            // The score reaches +1 — still invalidate mode, so the write
            // kills every reader and leaves the writer exclusive.
            for n in 1..=8 {
                do_read(&mut ctx, &mut p, n, A);
            }
            assert_eq!(do_write(&mut ctx, &mut p, 0, A), LineState::E);
            assert!(!p.is_update_for(A));
            assert_eq!(ctx.holders(A), vec![0]);
            // Interval 2: same pattern. Score reaches +2 = flip threshold;
            // the write is served in update mode and every copy stays
            // valid.
            for n in 1..=8 {
                do_read(&mut ctx, &mut p, n, A);
            }
            assert_eq!(do_write(&mut ctx, &mut p, 0, A), LineState::V);
            assert!(p.is_update_for(A));
            assert_eq!(ctx.holders(A).len(), 9, "8 readers + writer all valid");
            ctx.assert_swmr(A);
        }

        #[test]
        fn private_rmw_stays_invalidate_with_exclusive_owner() {
            let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
            assert_eq!(do_write(&mut ctx, &mut p, 3, A), LineState::E);
            for _ in 0..10 {
                // Write hits on the exclusive copy: no traffic at all.
                let mark = ctx.mark();
                assert_eq!(do_write(&mut ctx, &mut p, 3, A), LineState::E);
                assert_eq!(ctx.sent_since(mark).len(), 0);
            }
            assert!(!p.is_update_for(A));
        }

        #[test]
        fn migratory_token_stays_invalidate() {
            let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
            do_write(&mut ctx, &mut p, 0, A);
            for hop in 1..8 {
                do_read(&mut ctx, &mut p, hop, A);
                assert_eq!(do_write(&mut ctx, &mut p, hop, A), LineState::E);
            }
            assert!(!p.is_update_for(A));
            assert!(p.score(A) < 0);
        }

        #[test]
        fn update_block_flips_back_when_pattern_turns_write_shared() {
            let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
            for _ in 0..2 {
                for n in 1..=8 {
                    do_read(&mut ctx, &mut p, n, A);
                }
                do_write(&mut ctx, &mut p, 0, A);
            }
            assert!(p.is_update_for(A));
            // Ping-pong writes with no reads: write-shared, score falls
            // from +2; at -2 the block flips back mid-stream and that write
            // runs as an invalidation wave over the same tree.
            let mut final_state = LineState::V;
            for i in 0..4 {
                final_state = do_write(&mut ctx, &mut p, 5 + (i % 2), A);
            }
            assert!(!p.is_update_for(A), "flipped back to invalidate");
            assert_eq!(final_state, LineState::E, "last write ran as invalidate");
            assert_eq!(ctx.holders(A).len(), 1, "the tree was invalidated");
            ctx.assert_swmr(A);
        }

        #[test]
        fn flip_keeps_the_whole_forest_updates_reach_every_sharer() {
            let (mut ctx, mut p) = (MockCtx::new(32), adaptive());
            // Figure-5 style forest: 15 sharers with real tree depth, built
            // under invalidate mode across two read-mostly intervals.
            for _ in 0..2 {
                for n in 1..=15 {
                    do_read(&mut ctx, &mut p, n, A);
                }
                do_write(&mut ctx, &mut p, 16, A);
            }
            assert!(p.is_update_for(A));
            for n in 1..=15 {
                do_read(&mut ctx, &mut p, n, A);
            }
            // One more write in update mode: every one of the 15 sharers
            // must receive an Update — possible only if the child edges
            // built under invalidate mode survived the flip intact.
            let mark = ctx.mark();
            do_write(&mut ctx, &mut p, 16, A);
            let updates = ctx
                .sent_since(mark)
                .iter()
                .filter(|(_, m)| matches!(m.kind, MsgKind::Update { .. }))
                .count();
            assert!(updates >= 15, "updates reached {updates}/15+ sharers");
            assert!(ctx.holders(A).len() >= 16);
        }

        /// Every node's child and zombie edges for `A`, for comparing the
        /// forest across a flip.
        fn edges(p: &DirTree, nodes: u32) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
            (0..nodes)
                .map(|n| (p.children_of(n, A).to_vec(), p.zombies_of(n, A).to_vec()))
                .collect()
        }

        #[test]
        fn flipped_block_keeps_its_forest_and_gets_a_normalised_entry() {
            let (mut ctx, mut p) = (MockCtx::new(P), adaptive());
            // Owner 9 writes, then a reader recalls it: 9 becomes a root
            // and the entry keeps the stale `owner`. More readers build a
            // merged tree; evicting its root leaves zombie edges.
            do_write(&mut ctx, &mut p, 9, A);
            for n in [10, 11, 12, 13] {
                do_read(&mut ctx, &mut p, n, A);
            }
            assert_eq!(p.children_of(13, A), &[9, 10]);
            ctx.evict(&mut p, 13, A);
            assert_eq!(p.zombies_of(13, A), &[9, 10]);
            assert_eq!(p.entries[&A].owner, 9);
            let (forest, before) = (p.forest(A), edges(&p, P));
            p.flip(&mut ctx, A);
            assert!(p.is_update_for(A));
            assert_eq!(p.forest(A), forest, "roots stay");
            assert_eq!(edges(&p, P), before, "child and zombie edges stay");
            let e = &p.entries[&A];
            assert_eq!(e.owner, 0, "stale owner dropped");
            assert!(!e.dirty && e.pending.is_none() && e.wait_acks == 0);
            assert!(!e.wait_wb && !e.grant_self_root);
            p.check_invariants(&ctx, &[A], true).unwrap();
            // A block whose forest is empty loses its entry at the flip.
            p.flip(&mut ctx, A);
            do_write(&mut ctx, &mut p, 5, A);
            assert!(p.forest(A).iter().all(Option::is_none));
            ctx.evict(&mut p, 5, A);
            p.flip(&mut ctx, A);
            assert!(!p.entries.contains_key(&A), "root-less entry removed");
            p.check_invariants(&ctx, &[A], true).unwrap();
        }

        #[test]
        fn forced_mid_stream_mode_bit_is_what_the_mutant_tests_exploit() {
            let mut p = adaptive();
            assert!(!p.is_update_for(A));
            p.force_mode(A, true);
            assert!(p.is_update_for(A));
            p.force_mode(A, false);
            assert!(!p.is_update_for(A));
        }

        #[test]
        fn memory_formula_adds_the_detector() {
            // Tree directory (41 bits at n = 32) + 32-bit reader set +
            // 5-bit last writer + score and mode bit.
            assert_eq!(adaptive().dir_bits_per_mem_block(32), 41 + 32 + 5 + 5);
        }
    }
}
