//! Resumable state machines for the tree operations.
//!
//! The split-phase fabric (`sherman_sim`) lets one thread keep many verbs in
//! flight; to exploit it, the tree operations are expressed as explicit state
//! machines that **yield** whenever they would wait instead of blocking:
//!
//! * [`ReadNodeSM`] — the node-image consistency loop (post a node read,
//!   validate versions/checksum on completion, repost on a torn image),
//! * [`Locate`] — find the node covering a key at a level: the type-❶ cache,
//!   a type-❷ shortcut, a root-first descent, or (leaves only) the offload
//!   RPC; it owns the op's restart budget and the one mismatch rule,
//! * [`LookupSM`] — point lookup: locate the leaf, validate, retry,
//! * [`RangeSM`] — range scan: the cached parallel leaf batch plus the
//!   sibling-chain walk with tombstone re-location,
//! * [`WriteSM`] — insert, update and delete: locate the leaf (yielding
//!   freely, like a lookup), then take its lock, read it, commit and release
//!   with a yield at every verb, then run the structural tail, if any,
//! * [`OpSM`] — the tagged union the pipelined scheduler multiplexes.
//!
//! Every `step` call consumes at most one [`Completion`] (the result of the
//! verb the machine posted last) and runs until it parks ([`Step::Pending`]
//! with a [`Park`]: a posted verb, a busy local lock, or the tail gate) or
//! finishes ([`Step::Done`]).  The machines are the *only* implementation of
//! the operations: the blocking `TreeClient` entry points drive them one
//! verb at a time ([`drive_blocking`] and its write-path twin), so a
//! pipelined run at depth 1 and the classic blocking path execute
//! byte-for-byte the same verbs in the same order.
//!
//! ## One locate-and-restart discipline
//!
//! Every operation — lookups, writes, a scan's seek and the structural tails
//! (separator insertion, merge discovery) — finds its node through one
//! [`Locate`] and hands back any node that turns out not to cover the key
//! through [`Locate::reject`], the one mismatch rule:
//!
//! 1. scrub every cached route to a tombstone or to a cache-routed address
//!    (counting a *stale hit* when a cache route led to a tombstone; a root
//!    hint that led astray is re-read from the superblock next time) — only
//!    an internal node the descent reads on the way keeps its route when the
//!    chase below corrects it — then
//! 2. chase the B-link sibling when the key lies right of the node's fence at
//!    its level, and otherwise drain the coherence inbox and re-locate
//!    cache-first.
//!
//! Scrubbing before the retry is what keeps a stale route from being
//! followed until the budget runs out (the stale window, see
//! `docs/ARCHITECTURE.md`).  Every attempt after the first — a re-locate, a
//! sibling chase, a torn-image re-read — spends one [`Restarts`] budget,
//! which fails the op with the typed `RetriesExhausted` once spent.  A
//! re-locate or re-read is a *retry*: it backs off and is charged to the
//! op's restart count ([`OpMeta::restarts`], surfaced as
//! `OpStats::restarts`).  A sibling chase is not: it always moves right.
//!
//! ## Lock critical sections yield at every verb
//!
//! A write's critical section is a ladder of parks: wait for the leaf's
//! local lock (HOCL's FIFO ticket; a handover grant skips the remote step),
//! the posted CAS on the global lock word, the leaf read under the lock, and
//! the combined write-back + release, whose memory effect applies at post
//! time.  While one op waits on any of these, the scheduler steps the
//! others, so in-flight ops overlap their lock round trips, and an op queued
//! behind a same-context holder takes the lock by local handover the moment
//! the holder releases — no remote CAS (Sherman §4.3, Figure 6).  Critical
//! sections are tracked per op (`ClientCtx::begin_critical` with the lock
//! word), so the verb trace still tells whose verbs ran under which lock.
//!
//! Structural tails — separator insertion after a leaf split (and root
//! growth), merges and root collapse after an underfull delete — stay
//! atomic: each runs inside one `step`, with blocking acquires, and starts
//! holding no lock (the leaf was already released).  A delete's merge first
//! re-reads the leaf lock-free and is dropped when the leaf was refilled or
//! merged away meanwhile, or when another op of the context already queued
//! a merge of it.  Before it starts the
//! op parks on [`Park::Tail`] until no other op on its context holds a lock
//! or is acquiring one, and no new acquisition starts meanwhile.  A blocking
//! acquire inside the tail therefore never CPU-polls a lock held by an op
//! parked on its own thread, which could never release it.
//!
//! Rare control-path reads (the remote root pointer refresh after the root
//! hint routed astray) stay blocking inside a step: they occur only after a
//! lost race under structural churn, and a blocking sub-poll merely observes
//! other outstanding completions later — it never stalls the clock
//! (completion times are fixed at post time).

use crate::client::TreeClient;
use crate::cluster::Cluster;
use crate::config::{LeafFormat, OffloadPolicy};
use crate::error::TreeError;
use crate::node::{InternalNode, LeafNode, NodeHeader};
use crate::TreeResult;
use sherman_cache::{CachedInternal, ChildRef};
use sherman_locks::{cas_won, LocalTicket, LocalTry};
use sherman_memserver::ServerLayout;
use sherman_sim::{
    ClientCtx, Completion, Fabric, FabricBackend, FabricChannel, GlobalAddress, PendingVerb,
    RpcLeafReply, RpcLevel1Image, RpcNodeInfo, RpcRangeReply, RpcRequest, RpcResponse,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Book-keeping accumulated while executing one operation.
#[derive(Debug, Default)]
pub(crate) struct OpMeta {
    pub read_retries: u64,
    pub lock_retries: u64,
    /// Retries across every [`Restarts`] budget the op ran (re-locations
    /// and torn-image re-reads; B-link sibling chases are not retries),
    /// structural tail included.
    pub restarts: u64,
    pub handed_over: bool,
    pub cache_hit: bool,
}

/// Upper bound on consistency-check reads of a single node image before the
/// operation is reported as failed (guards against livelock bugs; the
/// paper's wraparound guard serves the same purpose).
const MAX_READ_RETRIES: u32 = 1_000;

/// Upper bound on one operation's location attempts: re-locations plus
/// B-link sibling chases.
const MAX_RESTARTS: u32 = 10_000;

/// One retry budget: counts attempts and fails with the typed
/// `RetriesExhausted` once `limit` were spent.  A *retry* — every
/// [`Restarts::attempt`] after the first — backs off first
/// (`contention_backoff`, a no-op on the virtual clock) and is charged to
/// [`OpMeta::restarts`].  A B-link sibling hop ([`Restarts::spend`]) spends
/// the budget but is neither: it always moves right, so it is progress
/// rather than contention.  The churn and scenario smokes gate the charged
/// count, so a long but finite chase behind a stale cache entry never trips
/// them; only re-locations and re-reads that fail to converge do.
struct Restarts {
    context: &'static str,
    limit: u32,
    spent: u32,
    retries: u32,
}

impl Restarts {
    fn new(context: &'static str, limit: u32) -> Self {
        Restarts {
            context,
            limit,
            spent: 0,
            retries: 0,
        }
    }

    /// Begin the next attempt, or fail when the budget is spent.
    fn attempt<C: FabricChannel>(
        &mut self,
        ctx: &ClientCtx<C>,
        meta: &mut OpMeta,
    ) -> TreeResult<()> {
        self.spend()?;
        if self.spent > 1 {
            self.retries += 1;
            ctx.contention_backoff(self.retries);
            meta.restarts += 1;
        }
        Ok(())
    }

    /// Spend one attempt with no backoff and no charge — a B-link sibling
    /// hop — or fail when the budget is spent.
    fn spend(&mut self) -> TreeResult<()> {
        if self.spent == self.limit {
            return Err(TreeError::RetriesExhausted {
                context: self.context,
                attempts: self.limit,
            });
        }
        self.spent += 1;
        Ok(())
    }
}

/// What a parked machine waits for before its next `step` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Park {
    /// A posted verb: resume with its [`Completion`].
    Verb(PendingVerb),
    /// A busy local lock (or the tail gate): resume with no completion once
    /// the lock may be free.
    Lock,
    /// The structural tail: resume with no completion once no other op on
    /// the context holds or is acquiring a lock.
    Tail,
}

/// What one `step` call produced: where the machine parked, or the
/// operation's result.
pub(crate) enum Step<T> {
    /// The machine parked; see [`Park`] for what resumes it.
    Pending(Park),
    /// The machine finished.
    Done(T),
}

/// The shared-state window a state machine steps against: the cluster plus
/// this logical thread's fabric context.  Multiple machines multiplexed on
/// one thread all step against the *same* `OpCx` (that is the point).
pub(crate) struct OpCx<'a, B: FabricBackend = Fabric> {
    pub cluster: &'a Arc<Cluster<B>>,
    pub ctx: &'a mut ClientCtx<B::Channel>,
    pub cs_id: u16,
}

impl<B: FabricBackend> OpCx<'_, B> {
    fn leaf_format(&self) -> LeafFormat {
        self.cluster.options().leaf_format
    }

    pub(crate) fn node_image_consistent(&self, buf: &[u8]) -> bool {
        self.cluster.node_image_ok(buf)
    }

    /// Current root address and level, from the local hint or the remote
    /// superblock.
    pub(crate) fn root(&mut self) -> TreeResult<(GlobalAddress, u8)> {
        if let Some(hint) = self.cluster.root_hint() {
            return Ok((hint.addr, hint.level));
        }
        self.root_remote()
    }

    /// Re-read the root pointer and level hint from the remote superblock,
    /// refreshing the local hint (used when a restart suggests the hint may be
    /// stale — e.g. after a racing root growth or root collapse).  Blocking:
    /// restarts are rare and never on the pipelined hot path.
    pub(crate) fn root_remote(&mut self) -> TreeResult<(GlobalAddress, u8)> {
        let packed = self.ctx.read_u64(self.cluster.root_ptr_addr())?;
        if packed == 0 {
            return Err(TreeError::NotInitialized);
        }
        let level = self.ctx.read_u64(ServerLayout::level_hint_addr())? as u8;
        let addr = GlobalAddress::unpack(packed);
        self.cluster.set_root_hint(addr, level);
        Ok((addr, level))
    }

    /// Drain this compute server's coherence inbox and apply every
    /// deliverable message — at op boundaries (`TreeClient::drain_coherence`)
    /// and mid-operation: before an offload placement decision, so it and
    /// the tombstone floor it validates replies against see the freshest
    /// cache state, and before every re-locate.  Costs no virtual time.
    pub(crate) fn drain_coherence(&mut self) {
        let msgs = self.ctx.drain_coherence();
        if !msgs.is_empty() {
            let now = self.ctx.now();
            crate::coherence::apply(self.cluster, self.cs_id, now, &msgs);
        }
    }
}

/// Build the cacheable image of a decoded internal node.
pub(crate) fn cached_from_internal(addr: GlobalAddress, node: &InternalNode) -> CachedInternal {
    CachedInternal {
        addr,
        fence_low: node.header.fence_low,
        fence_high: node.header.fence_high,
        level: node.header.level,
        version: node.header.front_version,
        leftmost: node.header.leftmost.unwrap_or_else(GlobalAddress::null),
        children: node
            .entries
            .iter()
            .map(|e| ChildRef {
                separator: e.key,
                child: e.child,
            })
            .collect(),
    }
}

/// Drive a state-machine step function to completion with one verb in flight
/// at a time: post, poll, resume.  This *is* the blocking path — and also
/// exactly what a pipelined run at depth 1 executes, which is why the two are
/// equivalent by construction.
pub(crate) fn drive_blocking<B: FabricBackend, T>(
    cx: &mut OpCx<'_, B>,
    meta: &mut OpMeta,
    mut step: impl FnMut(&mut OpCx<'_, B>, &mut OpMeta, Option<Completion>) -> TreeResult<Step<T>>,
) -> TreeResult<T> {
    let mut completion = None;
    loop {
        match step(cx, meta, completion.take())? {
            Step::Pending(Park::Verb(token)) => completion = Some(cx.ctx.poll_token(token)),
            Step::Pending(park) => unreachable!("lock-free machines never park on {park:?}"),
            Step::Done(value) => return Ok(value),
        }
    }
}

// ----------------------------------------------------------------------
// Server-side traversal offload
// ----------------------------------------------------------------------

/// The placement decision for a cache-missed descent toward `key`: where an
/// offloaded walk would start (the deepest covering type-❷ entry, or the
/// root) and how many dependent reads the local path would need from there.
/// Records the decision; returns `None` when the op should stay local.
fn offload_decision<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
) -> Option<(GlobalAddress, u8)> {
    let policy = cx.cluster.options().offload;
    if !policy.may_offload() {
        return None;
    }
    let (root_addr, root_level) = cx.root().ok()?;
    let (from_addr, remaining) = match cx.cluster.cache(cx.cs_id).search_top(key) {
        Some((child, child_level)) => (child, child_level.saturating_add(1)),
        None => (root_addr, root_level.saturating_add(1)),
    };
    let counters = cx.cluster.offload_counters(cx.cs_id);
    let offload = crate::offload::should_offload(
        policy,
        remaining,
        counters.ewma_read_ns(),
        counters.ewma_rpc_ns(),
        cx.cluster.fabric().config(),
    );
    counters.record_decision(offload);
    offload.then_some((from_addr, remaining))
}

/// The traverse RPC a cache-missed point op posts when the placement
/// decision says to offload.
fn offload_traverse_request<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    key: u64,
) -> Option<RpcRequest> {
    let (from_addr, remaining) = offload_decision(cx, key)?;
    Some(RpcRequest::TraverseStep {
        from_addr,
        key,
        // Headroom over the estimate: the walk may chase B-link siblings,
        // and the tree may have grown since the root hint was cached.
        max_levels: remaining.saturating_add(3).min(16),
    })
}

/// The range RPC a cache-missed scan posts when the placement decision says
/// to offload.
fn offload_range_request<B: FabricBackend>(
    cx: &mut OpCx<'_, B>,
    start_key: u64,
    max_entries: u32,
    max_leaves: u8,
) -> Option<RpcRequest> {
    let (from_addr, _) = offload_decision(cx, start_key)?;
    Some(RpcRequest::LeafRange {
        from_addr,
        start_key,
        max_entries,
        max_leaves,
    })
}

/// What an offloaded step resolved to.
pub(crate) enum OffloadOutcome {
    /// A validated leaf reply (traverse / leaf search).
    Leaf(RpcLeafReply),
    /// A validated range reply.
    Range(RpcRangeReply),
    /// Decline, unexpected payload, or a tombstone-floor rejection: the op
    /// falls back to its local one-sided path.
    Fallback,
}

/// One offloaded traversal step: post the typed RPC, yield, then validate
/// the reply against the local tombstone admission floor before anyone
/// trusts it.  The server's answer is a *hint* — a reply carrying a node
/// image at or below a recorded tombstone version is a freed/recycled node
/// and is rejected here, exactly the admission rule the index cache applies
/// to its own fills.  Validated level-1 images warm the type-❶ cache (the
/// insert re-checks the floor internally).
pub(crate) struct OffloadSM {
    req: RpcRequest,
    posted: bool,
}

impl OffloadSM {
    pub(crate) fn new(req: RpcRequest) -> Self {
        OffloadSM { req, posted: false }
    }

    /// Tombstone-floor admission for one server-returned node image.
    fn admit<B: FabricBackend>(cx: &mut OpCx<'_, B>, info: &RpcNodeInfo) -> bool {
        let cache = cx.cluster.cache(cx.cs_id);
        if let Some(floor) = cache.tombstoned(info.addr) {
            if !CachedInternal::version_newer(info.version, floor) {
                cx.cluster
                    .offload_counters(cx.cs_id)
                    .record_stale_reject();
                return false;
            }
        }
        true
    }

    /// Warm the type-❶ cache from a level-1 image the server's walk passed
    /// through, as a local traversal reading that node would have.
    fn warm_level1<B: FabricBackend>(cx: &mut OpCx<'_, B>, img: &RpcLevel1Image) {
        if img.info.level != 1 {
            return;
        }
        cx.cluster.cache(cx.cs_id).insert_level1(CachedInternal {
            addr: img.info.addr,
            fence_low: img.info.fence_low,
            fence_high: img.info.fence_high,
            level: img.info.level,
            version: img.info.version,
            leftmost: img.leftmost,
            children: img
                .children
                .iter()
                .map(|&(separator, child)| ChildRef { separator, child })
                .collect(),
        });
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        completion: Option<Completion>,
    ) -> TreeResult<Step<OffloadOutcome>> {
        let Some(c) = completion else {
            debug_assert!(!self.posted, "an offload attempt posts exactly one RPC");
            self.posted = true;
            let token = cx.ctx.post_index_rpc(&self.req)?;
            return Ok(Step::Pending(Park::Verb(token)));
        };
        // Feed the observed round trip — queueing at the home server's wimpy
        // core included — back into the placement estimator.
        cx.cluster
            .offload_counters(cx.cs_id)
            .observe_rpc_ns(c.completed_at.saturating_sub(c.posted_at));
        let outcome = match c.result.into_rpc() {
            RpcResponse::Leaf(reply) => {
                if !Self::admit(cx, &reply.leaf) {
                    // Scrub any cached route to the rejected address too:
                    // the server just proved something lives there that our
                    // floor says is stale.
                    cx.cluster.cache(cx.cs_id).invalidate_addr(reply.leaf.addr);
                    OffloadOutcome::Fallback
                } else {
                    if let Some(img) = &reply.level1 {
                        Self::warm_level1(cx, img);
                    }
                    OffloadOutcome::Leaf(reply)
                }
            }
            RpcResponse::Range(reply) => {
                // Every scanned leaf must pass the floor before any of the
                // collected entries are accepted.
                if reply.leaves.iter().any(|l| !Self::admit(cx, l)) {
                    OffloadOutcome::Fallback
                } else {
                    if let Some(img) = &reply.level1 {
                        Self::warm_level1(cx, img);
                    }
                    OffloadOutcome::Range(reply)
                }
            }
            RpcResponse::Declined { .. } => {
                cx.cluster.offload_counters(cx.cs_id).record_declined();
                OffloadOutcome::Fallback
            }
            RpcResponse::Ack => OffloadOutcome::Fallback,
        };
        Ok(Step::Done(outcome))
    }
}

// ----------------------------------------------------------------------
// Node-read consistency loop
// ----------------------------------------------------------------------

/// The lock-free node-image read: post `RDMA_READ`s of the node until an
/// image passes the node-level consistency check (version pair or checksum),
/// on a [`Restarts`] budget of [`MAX_READ_RETRIES`] reads.
pub(crate) struct ReadNodeSM {
    addr: GlobalAddress,
    reads: Restarts,
}

impl ReadNodeSM {
    pub(crate) fn new(addr: GlobalAddress) -> Self {
        ReadNodeSM {
            addr,
            reads: Restarts::new("node-level consistency check", MAX_READ_RETRIES),
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        completion: Option<Completion>,
    ) -> TreeResult<Step<Vec<u8>>> {
        let Some(c) = completion else {
            return Ok(Step::Pending(self.post(cx, meta)?));
        };
        if cx.cluster.options().offload.may_offload() {
            // Feed the adaptive placement policy's latency estimate from
            // real completions of the reads it is trying to replace.
            cx.cluster
                .offload_counters(cx.cs_id)
                .observe_read_ns(c.completed_at.saturating_sub(c.posted_at));
        }
        let buf = c.result.into_read();
        if cx.node_image_consistent(&buf) {
            cx.ctx.charge_scan(cx.cluster.layout().node_size());
            return Ok(Step::Done(buf));
        }
        Ok(Step::Pending(self.retry(cx, meta)?))
    }

    /// Re-read a torn image — torn at node level, or at entry level as the
    /// caller's two-level version check found — on the same budget.
    pub(crate) fn retry<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
    ) -> TreeResult<Park> {
        meta.read_retries += 1;
        cx.ctx.note_retries(1);
        self.post(cx, meta)
    }

    fn post<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
    ) -> TreeResult<Park> {
        self.reads.attempt(cx.ctx, meta)?;
        let node_size = cx.cluster.layout().node_size();
        let token = cx.ctx.post_read(self.addr, node_size)?;
        Ok(Park::Verb(token))
    }
}

// ----------------------------------------------------------------------
// Locate
// ----------------------------------------------------------------------

/// How an address handed out (or visited) by [`Locate`] was routed: decides
/// which cached route a mismatch scrubs.
#[derive(Clone, Copy)]
enum Route {
    /// The type-❶ index cache; holds the cached level-1 node's lower fence
    /// key (the cache's invalidation key).
    Cache { fence_low: u64 },
    /// A type-❷ always-cached top-level image (invalidated by address).
    TopCache,
    /// The local root hint.
    Root,
    /// A child pointer in a node image just read, or the offload RPC's walk.
    Traversal,
    /// A B-link sibling pointer (also a range scan's own leaf batch and
    /// chain walk).
    Sibling,
}

/// An address [`Locate`] visits, the level it expects there, and its route.
#[derive(Clone, Copy)]
struct Hop {
    addr: GlobalAddress,
    level: u8,
    route: Route,
}

/// Whether a locate for leaves may post the one-shot offload RPC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LeafRpc {
    /// Never (scans offload their own range RPC; internal levels never do).
    Off,
    /// A traverse RPC on a cache miss, when the placement policy says so.
    Traverse,
    /// As `Traverse`, and under `OffloadPolicy::Always` a leaf-search RPC
    /// even on a type-❶ hit (lookups).
    Search,
}

/// What a [`Locate`] attempt resolved to.
pub(crate) enum Located {
    /// The node that should cover the key at the level sought — not yet
    /// read at that level, so the caller validates it with
    /// [`Locate::accepts`] and hands a mismatch back via
    /// [`Locate::reject`].  `reply` is the offload RPC's validated leaf
    /// reply when the server walked there.
    Node {
        addr: GlobalAddress,
        reply: Option<RpcLeafReply>,
    },
    /// The tree has no level this high yet (root growth is the caller's).
    Shallow,
}

enum Cursor {
    /// Start a fresh attempt: type-❶ cache, offload RPC, type-❷ or root.
    Fresh,
    /// Chase a B-link sibling (spends the budget; not a retry).
    Chase(Hop),
    /// Visit `hop`: hand it out at the level sought, read it above.
    Visit { hop: Hop, read: Option<ReadNodeSM> },
    /// The offload RPC is in flight; `fallback` is the type-❶ route it
    /// replaced (`Always` on a warm cache).
    Offload {
        sm: OffloadSM,
        fallback: Option<Hop>,
    },
    /// Handed out to the caller.
    Found(Hop),
}

/// Find the node covering `key` at `level` — the resumable locate every
/// operation runs, yielding one posted node read (or RPC) at a time.  It
/// carries the op's location budget across every retry and applies the one
/// mismatch rule (see the module docs).
pub(crate) struct Locate {
    key: u64,
    level: u8,
    rpc: LeafRpc,
    restarts: Restarts,
    /// Set when the root hint routed to a node that did not check out: the
    /// next attempt re-reads the root pointer from the superblock.
    stale_root: bool,
    /// The root level, when this attempt repairs the type-❷ top set from
    /// the internal nodes it reads (set when the cache had no usable
    /// answer).
    repair_top: Option<u8>,
    cursor: Cursor,
}

/// Whether `header` is a live node at `level` (a leaf exactly at level 0).
fn at_level(header: &NodeHeader, level: u8) -> bool {
    !header.free && header.level == level && header.is_leaf == (level == 0)
}

impl Locate {
    /// `context` names the operation in a `RetriesExhausted` error.
    pub(crate) fn new(key: u64, level: u8, rpc: LeafRpc, context: &'static str) -> Self {
        Locate {
            key,
            level,
            rpc,
            restarts: Restarts::new(context, MAX_RESTARTS),
            stale_root: false,
            repair_top: None,
            cursor: Cursor::Fresh,
        }
    }

    /// Whether `header` is what this locate looks for: a live node at the
    /// level sought whose fences cover the key.
    pub(crate) fn accepts(&self, header: &NodeHeader) -> bool {
        at_level(header, self.level) && header.covers(self.key)
    }

    /// The one mismatch rule for a node the caller reached at `addr` — the
    /// answer handed out, or a node its own walk reached by sibling
    /// pointers — that [`Locate::accepts`] refused: scrub, then chase the
    /// sibling or re-locate (see the module docs).
    pub(crate) fn reject<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        addr: GlobalAddress,
        header: &NodeHeader,
    ) {
        let route = match self.cursor {
            Cursor::Found(hop) if hop.addr == addr => hop.route,
            _ => Route::Sibling,
        };
        let hop = Hop {
            addr,
            level: self.level,
            route,
        };
        self.turn(cx, hop, header);
    }

    /// Re-locate `key` from scratch with no node to blame (a lost
    /// root-growth race, a range scan's resume point), draining the
    /// coherence inbox first.
    pub(crate) fn relocate<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>, key: u64) {
        cx.drain_coherence();
        self.key = key;
        self.cursor = Cursor::Fresh;
    }

    fn turn<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>, hop: Hop, header: &NodeHeader) {
        let sibling = header
            .sibling
            .filter(|_| at_level(header, hop.level) && self.key >= header.fence_high);
        // A rejected answer always scrubs the route that led to it.  A node
        // the descent reads above the level sought keeps its route when the
        // B-link chase corrects it: a type-❷ image merely behind a split
        // still routes within one hop, and scrubbing it would send every
        // locate under it root-first until a walk repairs it.
        if hop.level == self.level || sibling.is_none() {
            let cache = cx.cluster.cache(cx.cs_id);
            match hop.route {
                Route::Cache { fence_low } => cache.invalidate(fence_low),
                Route::TopCache => cache.invalidate_addr(hop.addr),
                Route::Root => self.stale_root = true,
                Route::Traversal | Route::Sibling => {}
            }
        }
        if header.free {
            // Local self-heal: drop every cached route to the observed
            // tombstone (the fabric-delivered `Invalidate` may still be in
            // flight).
            cx.cluster.cache(cx.cs_id).invalidate_addr(hop.addr);
            if matches!(hop.route, Route::Cache { .. } | Route::TopCache) {
                // A cached route led to a retired node before its
                // invalidation was drained.
                cx.cluster.coherence_counters().record_stale_hit();
            }
        }
        match sibling {
            Some(addr) => {
                self.cursor = Cursor::Chase(Hop {
                    addr,
                    level: hop.level,
                    route: Route::Sibling,
                });
            }
            None => self.relocate(cx, self.key),
        }
    }

    /// Start a fresh attempt.
    fn start<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
    ) -> TreeResult<Option<Located>> {
        if self.rpc != LeafRpc::Off && cx.cluster.options().offload.may_offload() {
            // Apply in-flight invalidations before the cache consult and the
            // placement decision below.
            cx.drain_coherence();
        }
        if self.level == 0 {
            if let Some(cached) = cx.cluster.cache(cx.cs_id).lookup_covering(self.key) {
                meta.cache_hit = true;
                let hop = Hop {
                    addr: cached.child_for(self.key),
                    level: 0,
                    route: Route::Cache {
                        fence_low: cached.fence_low,
                    },
                };
                if self.rpc == LeafRpc::Search
                    && cx.cluster.options().offload == OffloadPolicy::Always
                {
                    // `Always` trades even the warm single read for an RPC
                    // (its loss region — the regime the adaptive policy
                    // exists to avoid).
                    self.rpc = LeafRpc::Off;
                    cx.cluster.offload_counters(cx.cs_id).record_decision(true);
                    let req = RpcRequest::LeafSearch {
                        leaf_addr: hop.addr,
                        key: self.key,
                    };
                    self.cursor = Cursor::Offload {
                        sm: OffloadSM::new(req),
                        fallback: Some(hop),
                    };
                } else {
                    self.cursor = Cursor::Visit { hop, read: None };
                }
                return Ok(None);
            }
            if self.rpc != LeafRpc::Off {
                if let Some(req) = offload_traverse_request(cx, self.key) {
                    self.rpc = LeafRpc::Off;
                    self.cursor = Cursor::Offload {
                        sm: OffloadSM::new(req),
                        fallback: None,
                    };
                    return Ok(None);
                }
            }
        }
        let (root_addr, root_level) = if std::mem::take(&mut self.stale_root) {
            cx.root_remote()?
        } else {
            cx.root()?
        };
        if root_level < self.level {
            return Ok(Some(Located::Shallow));
        }
        // Only an answer deep enough for this locate counts as a hit: an
        // entry above `level` still forces the root-first walk.
        let cache = cx.cluster.cache(cx.cs_id);
        let top = cache
            .search_top(self.key)
            .filter(|&(_, child_level)| child_level >= self.level);
        let hop = match top {
            Some((addr, level)) => {
                cache.stats().record_top_hit();
                Hop {
                    addr,
                    level,
                    route: Route::TopCache,
                }
            }
            None => {
                cache.stats().record_top_miss();
                Hop {
                    addr: root_addr,
                    level: root_level,
                    route: Route::Root,
                }
            }
        };
        // An unusable type-❷ answer means churn scrubbed the always-cached
        // top set (or the root moved): repair it lazily from the internal
        // nodes this root-first walk is about to read anyway.
        self.repair_top = top.is_none().then_some(root_level);
        self.cursor = Cursor::Visit { hop, read: None };
        Ok(None)
    }

    /// Descend from the internal node `hop` just read and accepted.
    fn descend<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>, hop: Hop, node: &InternalNode) {
        let cache = cx.cluster.cache(cx.cs_id);
        if let Some(root_level) = self.repair_top {
            if hop.level + 1 >= root_level.max(1) {
                cache.refresh_top(Arc::new(cached_from_internal(hop.addr, node)), root_level);
            }
        }
        if hop.level == 1 {
            cache.insert_level1(cached_from_internal(hop.addr, node));
        }
        let child = Hop {
            addr: node.child_for(self.key),
            level: hop.level - 1,
            route: Route::Traversal,
        };
        self.cursor = Cursor::Visit {
            hop: child,
            read: None,
        };
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<Located>> {
        loop {
            match &mut self.cursor {
                Cursor::Fresh => {
                    self.restarts.attempt(cx.ctx, meta)?;
                    if let Some(located) = self.start(cx, meta)? {
                        return Ok(Step::Done(located));
                    }
                }
                Cursor::Chase(hop) => {
                    let hop = *hop;
                    self.restarts.spend()?;
                    self.cursor = Cursor::Visit { hop, read: None };
                }
                Cursor::Visit { hop, read } => {
                    let hop = *hop;
                    if hop.level == self.level {
                        self.cursor = Cursor::Found(hop);
                        return Ok(Step::Done(Located::Node {
                            addr: hop.addr,
                            reply: None,
                        }));
                    }
                    let read = read.get_or_insert_with(|| ReadNodeSM::new(hop.addr));
                    let buf = match read.step(cx, meta, completion.take())? {
                        Step::Pending(park) => return Ok(Step::Pending(park)),
                        Step::Done(buf) => buf,
                    };
                    let node = cx.cluster.layout().decode_internal(&buf);
                    if at_level(&node.header, hop.level) && node.header.covers(self.key) {
                        self.descend(cx, hop, &node);
                    } else {
                        self.turn(cx, hop, &node.header);
                    }
                }
                Cursor::Offload { sm, fallback } => {
                    let fallback = *fallback;
                    let outcome = match sm.step(cx, completion.take())? {
                        Step::Pending(park) => return Ok(Step::Pending(park)),
                        Step::Done(outcome) => outcome,
                    };
                    let counters = cx.cluster.offload_counters(cx.cs_id);
                    match outcome {
                        OffloadOutcome::Leaf(reply) if reply.chase_sibling => {
                            // The RPC still collapsed the descent; chase the
                            // B-link locally like any other reader.
                            counters.record_win();
                            self.cursor = match reply.leaf.sibling {
                                Some(addr) => Cursor::Chase(Hop {
                                    addr,
                                    level: 0,
                                    route: Route::Sibling,
                                }),
                                None => Cursor::Fresh,
                            };
                        }
                        OffloadOutcome::Leaf(reply) => {
                            self.cursor = Cursor::Found(Hop {
                                addr: reply.leaf.addr,
                                level: 0,
                                route: Route::Traversal,
                            });
                            return Ok(Step::Done(Located::Node {
                                addr: reply.leaf.addr,
                                reply: Some(reply),
                            }));
                        }
                        _ => {
                            counters.record_loss();
                            self.cursor = match fallback {
                                Some(hop) => Cursor::Visit { hop, read: None },
                                None => Cursor::Fresh,
                            };
                        }
                    }
                }
                Cursor::Found(hop) => {
                    return Ok(Step::Done(Located::Node {
                        addr: hop.addr,
                        reply: None,
                    }))
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Lookup
// ----------------------------------------------------------------------

enum LookupPhase {
    Locate,
    /// The located leaf's read is in flight.
    Leaf(ReadNodeSM),
}

/// Point lookup as a resumable machine: locate the leaf → leaf read posted
/// → validate (node- and entry-level) / reject to the locate → done.
pub(crate) struct LookupSM {
    key: u64,
    locate: Locate,
    phase: LookupPhase,
}

impl LookupSM {
    pub(crate) fn new(key: u64) -> Self {
        LookupSM {
            key,
            locate: Locate::new(key, 0, LeafRpc::Search, "lookup"),
            phase: LookupPhase::Locate,
        }
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<Option<u64>>> {
        loop {
            match &mut self.phase {
                LookupPhase::Locate => match self.locate.step(cx, meta, completion.take())? {
                    Step::Pending(park) => return Ok(Step::Pending(park)),
                    Step::Done(Located::Node { addr, reply: None }) => {
                        self.phase = LookupPhase::Leaf(ReadNodeSM::new(addr));
                    }
                    Step::Done(Located::Node {
                        addr,
                        reply: Some(reply),
                    }) => {
                        let counters = cx.cluster.offload_counters(cx.cs_id);
                        if !reply.entry_conflict {
                            counters.record_win();
                            return Ok(Step::Done(reply.found));
                        }
                        // Entry-granular write mid-flight on the server's
                        // image: re-read the leaf locally.
                        counters.record_loss();
                        meta.read_retries += 1;
                        self.phase = LookupPhase::Leaf(ReadNodeSM::new(addr));
                    }
                    Step::Done(Located::Shallow) => unreachable!("the leaf level always exists"),
                },
                LookupPhase::Leaf(read) => {
                    let buf = match read.step(cx, meta, completion.take())? {
                        Step::Pending(park) => return Ok(Step::Pending(park)),
                        Step::Done(buf) => buf,
                    };
                    let leaf = cx.cluster.layout().decode_leaf(&buf);
                    if !self.locate.accepts(&leaf.header) {
                        self.locate.reject(cx, read.addr, &leaf.header);
                        self.phase = LookupPhase::Locate;
                        continue;
                    }
                    // Entry-level validation (two-level versions only).
                    let found = leaf
                        .entries
                        .iter()
                        .find(|e| e.present && e.key == self.key)
                        .copied();
                    match (cx.leaf_format(), found) {
                        (LeafFormat::UnsortedTwoLevel, Some(e)) if !e.versions_match() => {
                            return Ok(Step::Pending(read.retry(cx, meta)?));
                        }
                        (_, found) => return Ok(Step::Done(found.map(|e| e.value))),
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Range scan
// ----------------------------------------------------------------------

enum RangePhase {
    /// Decide between the cached parallel batch and the sequential fallback.
    Start,
    /// A server-side range RPC is in flight (cache-missed start only).
    Offload(OffloadSM),
    /// The parallel leaf batch is in flight.
    Batch { addrs: Vec<GlobalAddress> },
    /// Scanning the fetched batch; `repair` re-reads a torn leaf in place.
    BatchScan {
        addrs: Vec<GlobalAddress>,
        bufs: Vec<Vec<u8>>,
        idx: usize,
        repair: Option<ReadNodeSM>,
    },
    /// Decide where phase 2 (the sibling-chain walk) starts.
    SeekStart,
    /// Locating the next leaf to scan; on completion the address is removed
    /// from `visited` when `forget_visit` is set (tombstone resume).
    Locate { forget_visit: bool },
    /// Loop-condition check before reading the leaf at `addr`.
    ChainNext { addr: GlobalAddress },
    /// A chain leaf read is in flight.
    Chain { read: ReadNodeSM },
    /// Sort, de-duplicate, truncate.
    Finish,
}

/// Range scan as a resumable machine.
///
/// Like the paper (and FG), the scan is not atomic with respect to concurrent
/// writers; each leaf is individually validated.  Phase 1 uses the cached
/// level-1 node to read several target leaves with one parallel batch (§4.4);
/// phase 2 continues along sibling pointers, re-locating the resume point
/// when a concurrent merge tombstones a leaf mid-scan.
pub(crate) struct RangeSM {
    start_key: u64,
    count: usize,
    results: Vec<(u64, u64)>,
    visited: HashSet<u64>,
    /// Sibling pointer of the last successfully scanned batch leaf, and
    /// whether any batch leaf was scanned at all.
    last_sibling: Option<GlobalAddress>,
    last_seen: bool,
    /// Set when a tombstoned (merged-away) leaf was encountered: its live
    /// entries moved to its left neighbour, so the scan must re-locate its
    /// resume point instead of trusting the batch / sibling chain.
    tombstoned: bool,
    /// One-shot: a scan offloads at most once.
    offload_done: bool,
    /// The seek of the sibling-chain walk (its own offload is the range RPC
    /// above, so this locate never posts one).
    locate: Locate,
    phase: RangePhase,
}

impl RangeSM {
    pub(crate) fn new(start_key: u64, count: usize) -> Self {
        RangeSM {
            start_key,
            count,
            results: Vec::with_capacity(count),
            visited: HashSet::new(),
            last_sibling: None,
            last_seen: false,
            tombstoned: false,
            offload_done: false,
            locate: Locate::new(start_key, 0, LeafRpc::Off, "range scan"),
            phase: RangePhase::Start,
        }
    }

    /// The smallest key the scan still needs (everything below is already
    /// collected — possibly from a pre-merge image, which de-duplication
    /// reconciles).
    fn resume_key(&self) -> u64 {
        self.results
            .iter()
            .map(|&(k, _)| k)
            .max()
            .map_or(self.start_key, |k| k.saturating_add(1))
    }

    fn collect_leaf(&mut self, leaf: &LeafNode) {
        for e in &leaf.entries {
            if e.present && e.key >= self.start_key && e.versions_match() {
                self.results.push((e.key, e.value));
            }
        }
    }

    /// Consume one scanned batch leaf (already consistency-checked).
    /// Returns `false` when the leaf was tombstoned and phase 2 must
    /// re-locate.
    fn take_batch_leaf<B: FabricBackend>(&mut self, cx: &mut OpCx<'_, B>, addr: GlobalAddress, leaf: &LeafNode) -> bool {
        if leaf.header.free || !leaf.header.is_leaf {
            // A concurrent merge freed this cached child; its entries now
            // live in an earlier leaf whose pre-merge image we may already
            // have consumed.  Scrub the routes to it (without the scrub the
            // re-locate below could loop back here), then stop the batch and
            // re-locate.
            self.locate.reject(cx, addr, &leaf.header);
            self.tombstoned = true;
            return false;
        }
        self.collect_leaf(leaf);
        self.visited.insert(addr.pack());
        self.last_sibling = leaf.header.sibling;
        self.last_seen = true;
        true
    }

    /// Begin locating the leaf covering `key`; transitions the phase.
    fn start_locate<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        key: u64,
        forget_visit: bool,
    ) {
        self.locate.relocate(cx, key);
        self.phase = RangePhase::Locate { forget_visit };
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        cx: &mut OpCx<'_, B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<Vec<(u64, u64)>>> {
        let layout = *cx.cluster.layout();
        loop {
            match &mut self.phase {
                RangePhase::Start => {
                    if !self.offload_done && cx.cluster.options().offload.may_offload() {
                        // Apply in-flight invalidations before the cache
                        // consult and the placement decision below.
                        cx.drain_coherence();
                    }
                    let per_leaf = (layout.leaf_capacity() as f64
                        * cx.cluster.config().leaf_fill) as usize;
                    let wanted_leaves = self.count / per_leaf.max(1) + 1;
                    if let Some(cached) =
                        cx.cluster.cache(cx.cs_id).lookup_covering(self.start_key)
                    {
                        meta.cache_hit = true;
                        let addrs: Vec<GlobalAddress> = cached
                            .children_in_range(self.start_key, u64::MAX)
                            .into_iter()
                            .take(wanted_leaves)
                            .collect();
                        if !addrs.is_empty() {
                            let reqs: Vec<(GlobalAddress, usize)> = addrs
                                .iter()
                                .map(|&a| (a, layout.node_size()))
                                .collect();
                            let token = cx.ctx.post_read_batch(&reqs)?;
                            self.phase = RangePhase::Batch { addrs };
                            return Ok(Step::Pending(Park::Verb(token)));
                        }
                    }
                    if !self.offload_done {
                        let max_leaves = (wanted_leaves + 2).min(64) as u8;
                        let max_entries = self.count.min(u32::MAX as usize) as u32;
                        if let Some(req) = offload_range_request(
                            cx,
                            self.start_key,
                            max_entries.max(1),
                            max_leaves,
                        ) {
                            self.offload_done = true;
                            self.phase = RangePhase::Offload(OffloadSM::new(req));
                            continue;
                        }
                    }
                    self.phase = RangePhase::SeekStart;
                }
                RangePhase::Offload(sm) => match sm.step(cx, completion.take())? {
                    Step::Pending(park) => return Ok(Step::Pending(park)),
                    Step::Done(OffloadOutcome::Range(reply)) => {
                        cx.cluster.offload_counters(cx.cs_id).record_win();
                        // Every returned leaf passed the tombstone floor;
                        // adopt the scan frontier exactly as if the chain
                        // walk had covered those leaves itself.
                        for info in &reply.leaves {
                            self.visited.insert(info.addr.pack());
                        }
                        self.results.extend(reply.entries.iter().copied());
                        self.last_sibling = reply.next;
                        self.last_seen = true;
                        self.phase = RangePhase::SeekStart;
                    }
                    Step::Done(_) => {
                        cx.cluster.offload_counters(cx.cs_id).record_loss();
                        self.phase = RangePhase::SeekStart;
                    }
                },
                RangePhase::Batch { addrs } => {
                    let c = completion.take().expect("batch completion expected");
                    let bufs = c.result.into_read_batch();
                    let addrs = std::mem::take(addrs);
                    self.phase = RangePhase::BatchScan {
                        addrs,
                        bufs,
                        idx: 0,
                        repair: None,
                    };
                }
                RangePhase::BatchScan { .. } => {
                    // Take the scan state out of the phase so the `&mut self`
                    // helpers below can run; it is put back on every yield.
                    let RangePhase::BatchScan {
                        addrs,
                        bufs,
                        mut idx,
                        mut repair,
                    } = std::mem::replace(&mut self.phase, RangePhase::SeekStart)
                    else {
                        unreachable!("phase checked above");
                    };
                    if let Some(mut sm) = repair.take() {
                        // Torn image: this leaf is being re-read individually.
                        match sm.step(cx, meta, completion.take())? {
                            Step::Pending(park) => {
                                self.phase = RangePhase::BatchScan {
                                    addrs,
                                    bufs,
                                    idx,
                                    repair: Some(sm),
                                };
                                return Ok(Step::Pending(park));
                            }
                            Step::Done(fresh) => {
                                let addr = addrs[idx];
                                let leaf = layout.decode_leaf(&fresh);
                                idx += 1;
                                if !self.take_batch_leaf(cx, addr, &leaf) {
                                    // Tombstoned: fall to SeekStart (already set).
                                    continue;
                                }
                            }
                        }
                    }
                    loop {
                        if idx >= addrs.len() {
                            // Batch exhausted: phase is already SeekStart.
                            break;
                        }
                        let addr = addrs[idx];
                        let buf = &bufs[idx];
                        if !cx.node_image_consistent(buf) {
                            // Re-read this leaf individually: re-enter the arm
                            // with no completion so the repair machine posts.
                            self.phase = RangePhase::BatchScan {
                                addrs,
                                bufs,
                                idx,
                                repair: Some(ReadNodeSM::new(addr)),
                            };
                            break;
                        }
                        let leaf = layout.decode_leaf(buf);
                        idx += 1;
                        if !self.take_batch_leaf(cx, addr, &leaf) {
                            // Tombstoned: no scan CPU charged for a freed
                            // image (matching the blocking path), and phase
                            // is already SeekStart.
                            break;
                        }
                        cx.ctx.charge_scan(layout.node_size());
                    }
                }
                RangePhase::SeekStart => {
                    if self.tombstoned && self.results.len() < self.count {
                        self.tombstoned = false;
                        let key = self.resume_key();
                        self.start_locate(cx, key, true);
                    } else if self.tombstoned {
                        self.phase = RangePhase::Finish;
                    } else if self.last_seen {
                        if self.results.len() < self.count {
                            match self.last_sibling {
                                Some(sib) => self.phase = RangePhase::ChainNext { addr: sib },
                                None => self.phase = RangePhase::Finish,
                            }
                        } else {
                            self.phase = RangePhase::Finish;
                        }
                    } else {
                        let key = self.start_key;
                        self.start_locate(cx, key, false);
                    }
                }
                RangePhase::Locate { forget_visit } => {
                    let forget = *forget_visit;
                    match self.locate.step(cx, meta, completion.take())? {
                        Step::Pending(park) => return Ok(Step::Pending(park)),
                        Step::Done(Located::Node { addr, .. }) => {
                            if forget {
                                self.visited.remove(&addr.pack());
                            }
                            self.phase = RangePhase::ChainNext { addr };
                        }
                        Step::Done(Located::Shallow) => {
                            unreachable!("the leaf level always exists")
                        }
                    }
                }
                RangePhase::ChainNext { addr } => {
                    let addr = *addr;
                    if self.results.len() >= self.count {
                        self.phase = RangePhase::Finish;
                        continue;
                    }
                    if !self.visited.insert(addr.pack()) {
                        self.phase = RangePhase::Finish;
                        continue;
                    }
                    self.phase = RangePhase::Chain {
                        read: ReadNodeSM::new(addr),
                    };
                }
                RangePhase::Chain { read } => match read.step(cx, meta, completion.take())? {
                    Step::Pending(park) => return Ok(Step::Pending(park)),
                    Step::Done(buf) => {
                        let addr = read.addr;
                        let leaf = layout.decode_leaf(&buf);
                        if leaf.header.free || !leaf.header.is_leaf {
                            // Tombstoned by a concurrent merge: its entries
                            // moved into a left neighbour.  Scrub the routes
                            // to it (its fabric `Invalidate` may still be in
                            // flight), then re-locate the resume point and
                            // re-read that leaf even if a pre-merge image of
                            // it was already consumed (bounded by the
                            // locate's restart budget).
                            self.locate.reject(cx, addr, &leaf.header);
                            let key = self.resume_key();
                            self.start_locate(cx, key, true);
                            continue;
                        }
                        self.collect_leaf(&leaf);
                        match leaf.header.sibling {
                            Some(sib) => self.phase = RangePhase::ChainNext { addr: sib },
                            None => self.phase = RangePhase::Finish,
                        }
                    }
                },
                RangePhase::Finish => {
                    let mut results = std::mem::take(&mut self.results);
                    results.sort_unstable_by_key(|&(k, _)| k);
                    results.dedup_by_key(|&mut (k, _)| k);
                    results.truncate(self.count);
                    return Ok(Step::Done(results));
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Write paths: insert and delete
// ----------------------------------------------------------------------

/// Which write a [`WriteSM`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// Insert (or update) the key with `value`.
    Insert { value: u64 },
    /// Delete the key.
    Delete,
}

/// The structural follow-up of a committed leaf write.  It runs once the
/// leaf's release completed, holding no lock when it starts, as one atomic
/// segment (see the module docs).
pub(crate) enum Tail {
    /// A leaf split: insert `key → child` into level 1 (and grow upward).
    Separator { key: u64, child: GlobalAddress },
    /// A delete left the leaf at `addr` underfull: merge or rebalance it
    /// (re-read, since other ops may have changed it meanwhile).
    Merge { addr: GlobalAddress },
}

/// What a leaf commit decided, given the locked leaf image.  The leaf lock
/// is released either way; the release verb travels next to this value.
pub(crate) enum WriteCommit {
    /// The modification committed.  `found` reports whether the key was
    /// present (meaningful for deletes); `tail` is the structural follow-up,
    /// if any.
    Committed { found: bool, tail: Option<Tail> },
    /// The locked leaf did not cover the key; it was released untouched,
    /// handed back to the locate, and the operation locates again.
    Retry,
}

/// The phase ladder of the write machine.  Every phase that waits parks:
/// on a verb, on the leaf's local lock, or before the structural tail.
enum WritePhase {
    /// Locating the commit leaf.  Only this lock-free phase may offload (a
    /// traverse RPC) — the lock critical section always runs client-side
    /// under the usual HOCL rules.
    Locate,
    /// Waiting for the leaf's local lock (held by another op, or the tail
    /// gate is closed).
    LockWait {
        addr: GlobalAddress,
        ticket: LocalTicket,
    },
    /// The remote acquisition is in flight; the local lock is held.
    Acquire {
        addr: GlobalAddress,
        ticket: LocalTicket,
        cas: PendingVerb,
    },
    /// The leaf read under the lock is in flight.
    LockedRead {
        addr: GlobalAddress,
        read: PendingVerb,
    },
    /// The final write-back + release verb is in flight (its memory effect
    /// applied at post time); `commit` says what follows its completion.
    AwaitRelease {
        commit: WriteCommit,
    },
    /// A lock-free re-read of the underfull leaf is in flight: only a leaf
    /// still underfull is worth closing the tail gate for.
    MergeCheck {
        addr: GlobalAddress,
    },
    /// Waiting to run the structural tail atomically.
    TailWait(Tail),
}

/// Insert, update or delete as a resumable machine: locate the leaf (the
/// lock-free descent a lookup uses) → take its lock (local try, then a
/// posted CAS) → read it under the lock → commit and post the combined
/// write-back + release → park on the release → run the structural tail,
/// if any.  Every step that waits yields, so other ops on the context keep
/// moving — and take the lock by local handover — while this one holds it.
pub(crate) struct WriteSM {
    key: u64,
    kind: WriteKind,
    /// Whether the key was present, recorded at commit time (the machine
    /// may still park on the release or the tail afterwards).
    found: bool,
    locate: Locate,
    phase: WritePhase,
}

impl WriteSM {
    pub(crate) fn new(key: u64, kind: WriteKind) -> Self {
        let context = match kind {
            WriteKind::Insert { .. } => "insert",
            WriteKind::Delete => "delete",
        };
        WriteSM {
            key,
            kind,
            found: false,
            locate: Locate::new(key, 0, LeafRpc::Traverse, context),
            phase: WritePhase::Locate,
        }
    }

    /// The output this write reports (the key's presence for deletes).
    pub(crate) fn output(&self, found: bool) -> OpOutput {
        match self.kind {
            WriteKind::Insert { .. } => OpOutput::Insert,
            WriteKind::Delete => OpOutput::Delete(found),
        }
    }

    fn lock_wait(addr: GlobalAddress) -> WritePhase {
        WritePhase::LockWait {
            addr,
            ticket: LocalTicket::default(),
        }
    }

    /// Whether the op holds a lock or has started acquiring one (joined a
    /// local queue, holds the local lock, or has a CAS in flight).  A
    /// structural tail on the same context waits until no other op is.
    pub(crate) fn engaged(&self) -> bool {
        match &self.phase {
            WritePhase::LockWait { ticket, .. } => ticket.enqueued(),
            WritePhase::Acquire { .. } | WritePhase::LockedRead { .. } => true,
            _ => false,
        }
    }

    /// Whether the op waits on a local lock it cannot take yet (held, or
    /// another waiter is ahead), so stepping it now cannot succeed.
    pub(crate) fn lock_blocked(&self) -> bool {
        matches!(&self.phase, WritePhase::LockWait { ticket, .. } if ticket.blocked())
    }

    /// Finish a commit whose release completed (or needed no verb).
    fn after_release<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
        commit: WriteCommit,
    ) -> TreeResult<Option<Step<bool>>> {
        Ok(match commit {
            WriteCommit::Committed { found, tail: None } => Some(Step::Done(found)),
            // Another delete on this context already queued a merge of the
            // same leaf, which re-reads it under its locks: a second attempt
            // would only find the work done.
            WriteCommit::Committed {
                found,
                tail: Some(Tail::Merge { addr }),
            } if client.merge_tails.contains(&addr) => Some(Step::Done(found)),
            WriteCommit::Committed {
                found,
                tail: Some(Tail::Merge { addr }),
            } => {
                client.merge_tails.push(addr);
                self.found = found;
                let read = client
                    .ctx
                    .post_read(addr, client.cluster.layout().node_size())?;
                self.phase = WritePhase::MergeCheck { addr };
                Some(Step::Pending(Park::Verb(read)))
            }
            WriteCommit::Committed {
                found,
                tail: Some(tail),
            } => {
                self.found = found;
                self.phase = WritePhase::TailWait(tail);
                Some(Step::Pending(Park::Tail))
            }
            WriteCommit::Retry => {
                self.phase = WritePhase::Locate;
                None
            }
        })
    }

    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
        meta: &mut OpMeta,
        mut completion: Option<Completion>,
    ) -> TreeResult<Step<bool>> {
        loop {
            match &mut self.phase {
                WritePhase::Locate => {
                    let mut cx = client.op_cx();
                    match self.locate.step(&mut cx, meta, completion.take())? {
                        Step::Pending(park) => return Ok(Step::Pending(park)),
                        Step::Done(Located::Node { addr, reply }) => {
                            if reply.is_some() {
                                cx.cluster.offload_counters(cx.cs_id).record_win();
                            }
                            self.phase = Self::lock_wait(addr);
                        }
                        Step::Done(Located::Shallow) => {
                            unreachable!("the leaf level always exists")
                        }
                    }
                }
                WritePhase::LockWait { addr, ticket } => {
                    let addr = *addr;
                    if client.lock_gate && !ticket.enqueued() {
                        // A structural tail waits for this context's locks
                        // to drain: start no new acquisition meanwhile.
                        return Ok(Step::Pending(Park::Lock));
                    }
                    let local =
                        client
                            .cluster
                            .lock_manager()
                            .try_lock_local(client.cs_id, addr, ticket);
                    match local {
                        LocalTry::Wait => return Ok(Step::Pending(Park::Lock)),
                        LocalTry::Acquired { handed_over: true } => {
                            meta.handed_over = true;
                            let read = client.read_locked_leaf(addr)?;
                            self.phase = WritePhase::LockedRead { addr, read };
                            return Ok(Step::Pending(Park::Verb(read)));
                        }
                        LocalTry::Acquired { handed_over: false } => {
                            let ticket = std::mem::take(ticket);
                            let mgr = Arc::clone(client.cluster.lock_manager());
                            let cas = mgr.post_lock_remote(&mut client.ctx, addr)?;
                            self.phase = WritePhase::Acquire { addr, ticket, cas };
                            return Ok(Step::Pending(Park::Verb(cas)));
                        }
                    }
                }
                WritePhase::Acquire { addr, cas, .. } => {
                    let c = completion
                        .take()
                        .expect("Acquire resumes on the CAS completion");
                    let addr = *addr;
                    if cas_won(&c) {
                        let read = client.read_locked_leaf(addr)?;
                        self.phase = WritePhase::LockedRead { addr, read };
                        return Ok(Step::Pending(Park::Verb(read)));
                    }
                    // Lost the remote race (every failed attempt is a
                    // wasted round trip and NIC atomic): try again.
                    meta.lock_retries += 1;
                    client.ctx.note_retries(1);
                    let mgr = Arc::clone(client.cluster.lock_manager());
                    *cas = mgr.post_lock_remote(&mut client.ctx, addr)?;
                    return Ok(Step::Pending(Park::Verb(*cas)));
                }
                WritePhase::LockedRead { addr, .. } => {
                    let c = completion
                        .take()
                        .expect("LockedRead resumes on the read completion");
                    let addr = *addr;
                    let buf = c.result.into_read();
                    client.ctx.charge_scan(buf.len());
                    let header = client.cluster.layout().decode_header(&buf);
                    let (commit, release) = if !self.locate.accepts(&header) {
                        // Not the leaf for the key: release it untouched and
                        // hand it back to the locate.
                        let release = client.release_lock_deferred(addr, Vec::new())?;
                        self.locate.reject(&mut client.op_cx(), addr, &header);
                        (WriteCommit::Retry, release)
                    } else {
                        match self.kind {
                            WriteKind::Insert { value } => {
                                client.insert_commit(addr, self.key, value, &buf)?
                            }
                            WriteKind::Delete => client.delete_commit(addr, self.key, &buf)?,
                        }
                    };
                    match release {
                        Some(token) => {
                            self.phase = WritePhase::AwaitRelease { commit };
                            return Ok(Step::Pending(Park::Verb(token)));
                        }
                        None => {
                            if let Some(step) = self.after_release(client, commit)? {
                                return Ok(step);
                            }
                        }
                    }
                }
                WritePhase::AwaitRelease { .. } => {
                    // Consume the release completion: a retry must not hand
                    // it to the next phase's machine.
                    let release = completion.take();
                    debug_assert!(
                        release.is_some(),
                        "AwaitRelease resumes on the release completion"
                    );
                    let WritePhase::AwaitRelease { commit } =
                        std::mem::replace(&mut self.phase, WritePhase::Locate)
                    else {
                        unreachable!("phase checked above");
                    };
                    if let Some(step) = self.after_release(client, commit)? {
                        return Ok(step);
                    }
                }
                WritePhase::MergeCheck { addr } => {
                    let addr = *addr;
                    let c = completion
                        .take()
                        .expect("MergeCheck resumes on the read completion");
                    if !client.merge_wanted(&c.result.into_read()) {
                        // Merged away or refilled meanwhile: nothing to do.
                        client.merge_tails.retain(|&a| a != addr);
                        return Ok(Step::Done(self.found));
                    }
                    self.phase = WritePhase::TailWait(Tail::Merge { addr });
                    return Ok(Step::Pending(Park::Tail));
                }
                WritePhase::TailWait(_) => {
                    let WritePhase::TailWait(tail) =
                        std::mem::replace(&mut self.phase, WritePhase::Locate)
                    else {
                        unreachable!("phase checked above");
                    };
                    client.run_tail(tail, meta)?;
                    return Ok(Step::Done(self.found));
                }
            }
        }
    }

    /// Give back whatever lock this op holds or is acquiring, blocking —
    /// the error path of a pipelined run that failed in another op.
    pub(crate) fn abandon<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
    ) -> TreeResult<()> {
        let mgr = Arc::clone(client.cluster.lock_manager());
        let cs = client.cs_id;
        let held = match std::mem::replace(&mut self.phase, WritePhase::Locate) {
            WritePhase::LockWait {
                addr, mut ticket, ..
            } => mgr.cancel_local(cs, addr, &mut ticket).then_some(addr),
            WritePhase::Acquire {
                addr,
                mut ticket,
                cas,
                ..
            } => {
                if cas_won(&client.ctx.poll_token(cas)) {
                    Some(addr)
                } else {
                    mgr.cancel_local(cs, addr, &mut ticket);
                    None
                }
            }
            WritePhase::LockedRead { addr, read, .. } => {
                client.ctx.poll_token(read);
                Some(addr)
            }
            _ => None,
        };
        if let Some(addr) = held {
            let combine = client.cluster.options().combine_commands;
            mgr.release(&mut client.ctx, addr, Vec::new(), combine)?;
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// The union the scheduler multiplexes
// ----------------------------------------------------------------------

/// One operation's state machine.
pub(crate) enum OpSM {
    Lookup(LookupSM),
    Range(RangeSM),
    Write(WriteSM),
}

/// One operation's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutput {
    /// Result of a lookup: the value, if the key was present.
    Lookup(Option<u64>),
    /// Result of a range scan: the collected `(key, value)` pairs.
    Range(Vec<(u64, u64)>),
    /// An insert (or update) committed.
    Insert,
    /// Result of a delete: whether the key was present.
    Delete(bool),
}

impl OpSM {
    pub(crate) fn step<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
        meta: &mut OpMeta,
        completion: Option<Completion>,
    ) -> TreeResult<Step<OpOutput>> {
        Ok(match self {
            OpSM::Lookup(sm) => match sm.step(&mut client.op_cx(), meta, completion)? {
                Step::Pending(park) => Step::Pending(park),
                Step::Done(v) => Step::Done(OpOutput::Lookup(v)),
            },
            OpSM::Range(sm) => match sm.step(&mut client.op_cx(), meta, completion)? {
                Step::Pending(park) => Step::Pending(park),
                Step::Done(v) => Step::Done(OpOutput::Range(v)),
            },
            OpSM::Write(sm) => match sm.step(client, meta, completion)? {
                Step::Pending(park) => Step::Pending(park),
                Step::Done(found) => Step::Done(sm.output(found)),
            },
        })
    }

    /// Whether the op holds or is acquiring a lock (see [`WriteSM::engaged`]).
    pub(crate) fn engaged(&self) -> bool {
        matches!(self, OpSM::Write(sm) if sm.engaged())
    }

    /// Whether the op waits on a local lock it cannot take yet (see
    /// [`WriteSM::lock_blocked`]).
    pub(crate) fn lock_blocked(&self) -> bool {
        matches!(self, OpSM::Write(sm) if sm.lock_blocked())
    }

    /// Give back the op's lock state after its run failed elsewhere.
    pub(crate) fn abandon<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
    ) -> TreeResult<()> {
        match self {
            OpSM::Write(sm) => sm.abandon(client),
            _ => Ok(()),
        }
    }
}
