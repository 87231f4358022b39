//! HOCL — the hierarchical on-chip lock (§4.3, Figure 6).
//!
//! HOCL has two layers.  The *global lock tables* (GLT) live in the on-chip
//! memory of each memory server's NIC and are acquired with masked `RDMA_CAS`.
//! The *local lock tables* (LLT), one per compute server, coordinate the
//! threads of that server: a thread must hold the local lock before it may
//! attempt the remote acquisition, so conflicting threads of the same compute
//! server queue locally instead of hammering the NIC with failed `RDMA_CAS`
//! retries.  Each local lock carries a FIFO wait queue (first-come-first-served
//! fairness) and supports *handover*: on release, if local threads are
//! waiting, the global lock is passed to the head of the queue without a
//! remote round trip, bounded by [`MAX_HANDOVER_DEPTH`] consecutive handovers
//! so that other compute servers are not starved.

use crate::global::GlobalLockTable;
use crate::manager::{
    flush_writes_and_release, LocalTicket, LocalTry, NodeLockManager, ReleaseOutcome, ReleaseVerb,
    DEFAULT_POLL_INTERVAL_NS,
};
use parking_lot::Mutex;
use sherman_sim::{ClientCtx, FabricChannel, GlobalAddress, PendingVerb, SimResult, WriteCmd};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Maximum number of consecutive local handovers before the global lock must
/// be released so that other compute servers get a chance (the paper uses 4).
pub const MAX_HANDOVER_DEPTH: u32 = 4;

/// Tunable behaviour of the hierarchical lock, used to reproduce the Figure 16
/// ladder (hierarchical structure → wait queue → handover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HoclOptions {
    /// Queue local waiters FIFO instead of letting them race on the local lock.
    pub use_wait_queue: bool,
    /// Hand the global lock to the next local waiter on release.
    pub use_handover: bool,
    /// Maximum number of consecutive handovers.
    pub max_handover_depth: u32,
    /// Virtual time between local polls while waiting for the local lock.
    pub poll_interval_ns: u64,
}

impl Default for HoclOptions {
    fn default() -> Self {
        HoclOptions {
            use_wait_queue: true,
            use_handover: true,
            max_handover_depth: MAX_HANDOVER_DEPTH,
            poll_interval_ns: DEFAULT_POLL_INTERVAL_NS,
        }
    }
}

impl HoclOptions {
    /// Hierarchical structure only: local locks exist but waiters race
    /// (no FIFO queue) and no handover is performed.
    pub fn structure_only() -> Self {
        HoclOptions {
            use_wait_queue: false,
            use_handover: false,
            ..HoclOptions::default()
        }
    }

    /// Hierarchical structure with FIFO wait queues but no handover.
    pub fn with_wait_queue() -> Self {
        HoclOptions {
            use_wait_queue: true,
            use_handover: false,
            ..HoclOptions::default()
        }
    }
}

#[derive(Debug, Default)]
struct LocalLockState {
    held: bool,
    queue: VecDeque<u64>,
    /// Ticket that has been handed the still-held global lock.
    grant: Option<u64>,
    handover_depth: u32,
}

#[derive(Debug)]
pub(crate) struct LocalLock {
    state: Mutex<LocalLockState>,
    /// Who may take the lock right now, mirrored from `state` after every
    /// change: [`LocalLock::HELD`], [`LocalLock::FREE`] (free, nobody
    /// queued) or the ticket at the head of the queue.  Lets a waiter see
    /// that a try would fail without taking the mutex.
    admits: AtomicU64,
}

impl Default for LocalLock {
    fn default() -> Self {
        LocalLock {
            state: Mutex::default(),
            admits: AtomicU64::new(Self::FREE),
        }
    }
}

impl LocalLock {
    const HELD: u64 = u64::MAX;
    const FREE: u64 = u64::MAX - 1;

    /// Mirror `st` into `admits`; called with the state mutex held.
    fn publish(&self, st: &LocalLockState) {
        let admits = if st.held {
            Self::HELD
        } else {
            st.queue.front().copied().unwrap_or(Self::FREE)
        };
        self.admits.store(admits, Ordering::Release);
    }

    /// Whether a try by `ticket` would fail now.
    pub(crate) fn blocks(&self, ticket: &LocalTicket) -> bool {
        match self.admits.load(Ordering::Acquire) {
            Self::HELD => true,
            Self::FREE => false,
            head => !ticket.enqueued || ticket.id != Some(head),
        }
    }
}

/// One shard of the local lock table: `(ms, slot) -> lock record`.
type LockShard = Mutex<HashMap<(u16, u64), Arc<LocalLock>>>;

/// The per-compute-server local lock table.
///
/// One instance is shared by all client threads of a compute server.  Lock
/// records are created lazily: the paper sizes the LLT at 8 bytes per GLT slot
/// (a few MB); here the table grows with the working set instead, which keeps
/// tests light while preserving behaviour.
#[derive(Debug)]
pub struct LocalLockTable {
    shards: Vec<LockShard>,
    tickets: AtomicU64,
}

impl Default for LocalLockTable {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalLockTable {
    /// Create an empty local lock table.
    pub fn new() -> Self {
        const SHARDS: usize = 64;
        let mut shards = Vec::with_capacity(SHARDS);
        shards.resize_with(SHARDS, || Mutex::new(HashMap::new()));
        LocalLockTable {
            shards,
            tickets: AtomicU64::new(0),
        }
    }

    fn new_ticket(&self) -> u64 {
        self.tickets.fetch_add(1, Ordering::Relaxed)
    }

    fn lock_for(&self, ms: u16, slot: u64) -> Arc<LocalLock> {
        let shard = &self.shards[(slot as usize ^ ms as usize) % self.shards.len()];
        let mut map = shard.lock();
        Arc::clone(map.entry((ms, slot)).or_default())
    }

    /// Number of threads currently queued on the local lock for `(ms, slot)`
    /// (observability/tests).  Does not materialize a lock record.
    pub fn queued_waiters(&self, ms: u16, slot: u64) -> usize {
        let shard = &self.shards[(slot as usize ^ ms as usize) % self.shards.len()];
        let map = shard.lock();
        map.get(&(ms, slot))
            .map_or(0, |lock| lock.state.lock().queue.len())
    }
}

/// The hierarchical on-chip lock manager.
#[derive(Debug)]
pub struct HoclManager {
    glt: GlobalLockTable,
    llts: Vec<LocalLockTable>,
    options: HoclOptions,
}

impl HoclManager {
    /// Build a HOCL manager over `glt` for a cluster with `compute_servers`
    /// compute servers.
    pub fn new(glt: GlobalLockTable, compute_servers: usize, options: HoclOptions) -> Self {
        let mut llts = Vec::with_capacity(compute_servers);
        llts.resize_with(compute_servers, LocalLockTable::new);
        HoclManager { glt, llts, options }
    }

    /// The underlying global lock table.
    pub fn table(&self) -> &GlobalLockTable {
        &self.glt
    }

    /// The options this manager was built with.
    pub fn options(&self) -> &HoclOptions {
        &self.options
    }

    /// The local lock table of compute server `cs`.
    pub fn local_table(&self, cs: u16) -> &LocalLockTable {
        &self.llts[cs as usize % self.llts.len()]
    }

    /// Number of compute-server-`cs` threads queued locally on the lock that
    /// guards `node` (observability/tests).
    pub fn queued_waiters(&self, cs: u16, node: GlobalAddress) -> usize {
        let slot = self.glt.slot_of(node);
        self.local_table(cs).queued_waiters(node.ms, slot)
    }

    /// The local half of an acquisition: take the local lock for
    /// `(ms, slot)` if it is free and `ticket` is at the head of the FIFO
    /// queue (joining the queue on the first failed try).  The ticket that a
    /// release granted the global lock to acquires with `handed_over`.
    fn try_lock_slot(&self, cs: u16, ms: u16, slot: u64, ticket: &mut LocalTicket) -> LocalTry {
        if ticket.blocked() {
            return LocalTry::Wait;
        }
        let llt = self.local_table(cs);
        let local = Arc::clone(ticket.lock.get_or_insert_with(|| llt.lock_for(ms, slot)));
        let id = *ticket.id.get_or_insert_with(|| llt.new_ticket());
        let mut st = local.state.lock();
        let at_head = if self.options.use_wait_queue {
            if ticket.enqueued {
                st.queue.front() == Some(&id)
            } else {
                st.queue.is_empty()
            }
        } else {
            true
        };
        if !st.held && at_head {
            st.held = true;
            if ticket.enqueued {
                st.queue.pop_front();
                ticket.enqueued = false;
            }
            ticket.held = true;
            let handed_over = self.options.use_handover && st.grant.take() == Some(id);
            local.publish(&st);
            return LocalTry::Acquired { handed_over };
        }
        if self.options.use_wait_queue && !ticket.enqueued {
            st.queue.push_back(id);
            ticket.enqueued = true;
            local.publish(&st);
        }
        LocalTry::Wait
    }

    /// Withdraw `ticket` from the local lock for `(ms, slot)`: leave the
    /// queue, or drop a held local lock whose remote attempt never won.
    /// Returns `true` when the ticket had been granted the global lock by a
    /// handover; it then holds the local lock and must release normally.
    fn cancel_slot(&self, cs: u16, ms: u16, slot: u64, ticket: &mut LocalTicket) -> bool {
        let Some(id) = ticket.id else {
            return false;
        };
        let local = self.local_table(cs).lock_for(ms, slot);
        let mut st = local.state.lock();
        let mut must_release = false;
        if ticket.held {
            ticket.held = false;
            st.held = false;
        } else if ticket.enqueued {
            ticket.enqueued = false;
            st.queue.retain(|&t| t != id);
            if st.grant == Some(id) {
                st.grant = None;
                st.held = true;
                ticket.held = true;
                must_release = true;
            }
        }
        local.publish(&st);
        must_release
    }

    fn post_lock_slot<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        ms: u16,
        slot: u64,
    ) -> SimResult<PendingVerb> {
        let owner = client.cs_id();
        self.glt
            .post_try_acquire_at(client, self.glt.location_of_slot(ms, slot), owner)
    }

    fn release_slot<C: FabricChannel>(
        &self,
        client: &mut ClientCtx<C>,
        ms: u16,
        slot: u64,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let llt = self.local_table(client.cs_id());
        let local = llt.lock_for(ms, slot);

        // Decide whether to hand the (still-held) global lock to a local
        // waiter.  The decision is made before flushing writes so that the
        // release command can be dropped from the combined batch.
        let handover = {
            let mut st = local.state.lock();
            if self.options.use_handover
                && !st.queue.is_empty()
                && st.handover_depth < self.options.max_handover_depth
            {
                st.handover_depth += 1;
                st.grant = Some(*st.queue.front().expect("queue checked non-empty"));
                true
            } else {
                st.handover_depth = 0;
                false
            }
        };

        let loc = self.glt.location_of_slot(ms, slot);
        let release = if handover {
            ReleaseVerb::Keep
        } else if self.glt.kind().release_is_write() {
            ReleaseVerb::Write(self.glt.release_write_cmd(loc))
        } else {
            ReleaseVerb::Standalone(&self.glt, loc, client.cs_id())
        };
        let deferred = flush_writes_and_release(client, writes, combine, release, ms, defer)?;

        // Finally release the local lock; the handed-over waiter (if any) will
        // find the grant when it takes the local lock.  A deferred release is
        // safe here: its memory effect (freeing the global word, or the
        // write-back a handed-over waiter will read) applied at the post
        // instant, so the next owner — local or remote — already observes it.
        {
            let mut st = local.state.lock();
            st.held = false;
            local.publish(&st);
        }
        Ok((
            ReleaseOutcome {
                released_global: !handover,
            },
            deferred,
        ))
    }

    /// Whether `a` and `b` are guarded by the same lock word (inherent
    /// mirror of [`NodeLockManager::same_lock`], callable without fixing the
    /// channel type).
    pub fn same_lock(&self, a: GlobalAddress, b: GlobalAddress) -> bool {
        self.glt.location_of(a) == self.glt.location_of(b)
    }

    /// Total order on lock words (inherent mirror of
    /// [`NodeLockManager::lock_rank`]).
    pub fn lock_rank(&self, node: GlobalAddress) -> u128 {
        crate::manager::location_rank(&self.glt.location_of(node))
    }

    /// Deadlock-safe multi-node acquisition plan (inherent mirror of
    /// [`NodeLockManager::lock_plan`]).
    pub fn lock_plan(&self, nodes: &[GlobalAddress]) -> Vec<GlobalAddress> {
        crate::manager::plan_locks(nodes, |a, b| self.same_lock(a, b), |n| self.lock_rank(n))
    }
}

impl<C: FabricChannel> NodeLockManager<C> for HoclManager {
    fn same_lock(&self, a: GlobalAddress, b: GlobalAddress) -> bool {
        HoclManager::same_lock(self, a, b)
    }

    fn lock_rank(&self, node: GlobalAddress) -> u128 {
        HoclManager::lock_rank(self, node)
    }

    fn lock_plan(&self, nodes: &[GlobalAddress]) -> Vec<GlobalAddress> {
        HoclManager::lock_plan(self, nodes)
    }

    fn try_lock_local(&self, cs: u16, node: GlobalAddress, ticket: &mut LocalTicket) -> LocalTry {
        self.try_lock_slot(cs, node.ms, self.glt.slot_of(node), ticket)
    }

    fn post_lock_remote(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
    ) -> SimResult<PendingVerb> {
        self.post_lock_slot(client, node.ms, self.glt.slot_of(node))
    }

    fn cancel_local(&self, cs: u16, node: GlobalAddress, ticket: &mut LocalTicket) -> bool {
        self.cancel_slot(cs, node.ms, self.glt.slot_of(node), ticket)
    }

    fn poll_interval_ns(&self) -> u64 {
        self.options.poll_interval_ns
    }

    fn release_deferred(
        &self,
        client: &mut ClientCtx<C>,
        node: GlobalAddress,
        writes: Vec<WriteCmd>,
        combine: bool,
        defer: bool,
    ) -> SimResult<(ReleaseOutcome, Option<PendingVerb>)> {
        let slot = self.glt.slot_of(node);
        self.release_slot(client, node.ms, slot, writes, combine, defer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sherman_memserver::MemoryPool;
    use sherman_sim::{Fabric, FabricConfig};
    use std::sync::Arc;
    use std::thread;

    fn setup(options: HoclOptions) -> (Arc<MemoryPool>, Arc<HoclManager>) {
        let fabric = Fabric::new(FabricConfig::small_test());
        let pool = MemoryPool::new(Arc::clone(&fabric), 64 << 10);
        let glt = GlobalLockTable::new_on_chip(&pool);
        let mgr = Arc::new(HoclManager::new(glt, 2, options));
        (pool, mgr)
    }

    #[test]
    fn single_thread_acquire_release() {
        let (pool, mgr) = setup(HoclOptions::default());
        let mut client = pool.fabric().client(0);
        let node = GlobalAddress::host(0, 10 << 10);
        let a = mgr.acquire(&mut client, node).unwrap();
        assert!(!a.handed_over);
        assert_eq!(a.remote_retries, 0);
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(r.released_global);
        // Reacquirable afterwards.
        assert!(!mgr.acquire(&mut client, node).unwrap().handed_over);
        mgr.release(&mut client, node, Vec::new(), true).unwrap();
    }

    #[test]
    fn provides_mutual_exclusion_across_threads() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 20 << 10);
        let counter = Arc::new(Mutex::new(0u64));
        let iterations = 40;
        let mut handles = Vec::new();
        for t in 0..4u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let counter = Arc::clone(&counter);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(t % 2);
                for _ in 0..iterations {
                    mgr.acquire(&mut client, node).unwrap();
                    {
                        // Check exclusion: nobody else is inside the section.
                        let mut guard = counter.try_lock().expect("exclusion violated");
                        *guard += 1;
                    }
                    // Spend some virtual time inside the critical section.
                    client.charge_cpu(100);
                    mgr.release(&mut client, node, Vec::new(), true).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 4 * iterations);
    }

    #[test]
    fn handover_skips_remote_acquisition() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 30 << 10);
        let handed = Arc::new(Mutex::new(0u64));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        // All threads run on the same compute server, so handover applies.
        for _ in 0..4u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let handed = Arc::clone(&handed);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                // Ensure every worker has registered before contending, so the
                // critical sections genuinely overlap.
                barrier.wait();
                for _ in 0..25 {
                    let a = mgr.acquire(&mut client, node).unwrap();
                    if a.handed_over {
                        *handed.lock() += 1;
                    }
                    client.charge_cpu(500);
                    mgr.release(&mut client, node, Vec::new(), true).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            *handed.lock() > 0,
            "contended same-CS workload should trigger handovers"
        );
    }

    #[test]
    fn handover_depth_is_bounded() {
        let (pool, mgr) = setup(HoclOptions {
            max_handover_depth: 2,
            ..HoclOptions::default()
        });
        let node = GlobalAddress::host(1, 40 << 10);
        let outcomes = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..3u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let outcomes = Arc::clone(&outcomes);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                for _ in 0..30 {
                    mgr.acquire(&mut client, node).unwrap();
                    client.charge_cpu(300);
                    let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
                    outcomes.lock().push(r.released_global);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let outcomes = outcomes.lock();
        // With depth 2 the lock must be released remotely at least every third
        // release; in particular there must be some remote releases.
        assert!(outcomes.iter().filter(|&&g| g).count() >= outcomes.len() / 4);
        // And the run must end with the global lock actually free: a fresh
        // client can acquire it remotely.
        let mut client = pool.fabric().client(1);
        let a = mgr.acquire(&mut client, node).unwrap();
        assert!(!a.handed_over);
    }

    #[test]
    fn structure_only_options_disable_handover() {
        let (pool, mgr) = setup(HoclOptions::structure_only());
        let node = GlobalAddress::host(0, 50 << 10);
        let mut client = pool.fabric().client(0);
        mgr.acquire(&mut client, node).unwrap();
        let r = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(r.released_global, "handover disabled: always release");
        assert!(!mgr.options().use_wait_queue);
    }

    /// Pump virtual time from `client` until `n` waiters are queued on the
    /// lock guarding `node`, panicking (rather than hanging) if they never show.
    fn pump_until_queued(mgr: &HoclManager, client: &mut ClientCtx, node: GlobalAddress, n: usize) {
        for _ in 0..100_000 {
            if mgr.queued_waiters(0, node) >= n {
                return;
            }
            client.charge_cpu(100);
        }
        panic!("expected {n} queued waiter(s), they never arrived");
    }

    #[test]
    fn queued_waiter_acquires_before_later_arrival() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 70 << 10);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut main_client = pool.fabric().client(0);
        mgr.acquire(&mut main_client, node).unwrap();

        // First waiter arrives and queues behind the held lock.
        let h1 = {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let a = mgr.acquire(&mut client, node).unwrap();
                order.lock().push(1u32);
                client.charge_cpu(500);
                mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            })
        };
        // Pump virtual time (the waiter polls on the virtual clock) until the
        // first waiter is visibly queued, so the arrival order is fixed.
        pump_until_queued(&mgr, &mut main_client, node, 1);

        // Second waiter arrives strictly later.
        let h2 = {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let order = Arc::clone(&order);
            thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                let a = mgr.acquire(&mut client, node).unwrap();
                order.lock().push(2u32);
                mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            })
        };
        pump_until_queued(&mgr, &mut main_client, node, 2);

        mgr.release(&mut main_client, node, Vec::new(), true).unwrap();
        drop(main_client); // deregister so the waiters can drive the clock alone
        let a1 = h1.join().unwrap();
        let a2 = h2.join().unwrap();
        // FIFO fairness: the earlier waiter entered the critical section first.
        assert_eq!(*order.lock(), vec![1, 2]);
        // Both acquisitions were served by handover (no remote round trip).
        assert!(a1.handed_over && a2.handed_over);
        assert_eq!(a1.remote_retries + a2.remote_retries, 0);
    }

    #[test]
    fn release_wakes_exactly_one_handover_candidate() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 80 << 10);
        let mut main_client = pool.fabric().client(0);
        mgr.acquire(&mut main_client, node).unwrap();

        let queued_during_cs = Arc::new(Mutex::new(None));
        let mut handles = Vec::new();
        for id in 1..=2u32 {
            let worker_pool = Arc::clone(&pool);
            let worker_mgr = Arc::clone(&mgr);
            let worker_seen = Arc::clone(&queued_during_cs);
            handles.push(thread::spawn(move || {
                let mut client = worker_pool.fabric().client(0);
                let a = worker_mgr.acquire(&mut client, node).unwrap();
                // The first waiter to get the lock records how many candidates
                // are still queued: a correct handover wakes exactly one.
                let mut seen = worker_seen.lock();
                if seen.is_none() {
                    *seen = Some((id, worker_mgr.queued_waiters(0, node)));
                }
                drop(seen);
                client.charge_cpu(300);
                worker_mgr.release(&mut client, node, Vec::new(), true).unwrap();
                a
            }));
            // Admit waiters one at a time so both are queued before release.
            pump_until_queued(&mgr, &mut main_client, node, id as usize);
        }

        // One release with two queued waiters: the global lock is handed over
        // (not released) ...
        let r = mgr.release(&mut main_client, node, Vec::new(), true).unwrap();
        assert!(!r.released_global, "release with waiters should hand over");
        drop(main_client);
        for h in handles {
            assert!(h.join().unwrap().handed_over);
        }
        // ... and exactly one candidate woke: the other was still queued while
        // the first ran its critical section.
        assert_eq!(*queued_during_cs.lock(), Some((1, 1)));
        // After the last release the global lock really is free: a client on
        // another compute server acquires it remotely without handover.
        let mut other_cs = pool.fabric().client(1);
        let a = mgr.acquire(&mut other_cs, node).unwrap();
        assert!(!a.handed_over);
    }

    #[test]
    fn split_acquire_queues_and_hands_over_without_a_cas() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 90 << 10);
        let mut client = pool.fabric().client(0);
        let mgr: &dyn NodeLockManager = mgr.as_ref();

        // First waiter takes the local lock, then wins the remote CAS.
        let mut first = LocalTicket::default();
        assert_eq!(
            mgr.try_lock_local(0, node, &mut first),
            LocalTry::Acquired { handed_over: false }
        );
        let token = mgr.post_lock_remote(&mut client, node).unwrap();
        assert!(crate::cas_won(&client.poll_token(token)));

        // Second waiter queues; a retry before anything moved is skipped.
        let mut second = LocalTicket::default();
        assert_eq!(mgr.try_lock_local(0, node, &mut second), LocalTry::Wait);
        assert!(second.enqueued() && second.blocked());
        assert_eq!(mgr.try_lock_local(0, node, &mut second), LocalTry::Wait);

        // The release hands the still-held global lock to the queue head:
        // it acquires without posting a CAS.
        let before = client.stats().round_trips;
        let out = mgr.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(!out.released_global);
        assert!(!second.blocked());
        assert_eq!(
            mgr.try_lock_local(0, node, &mut second),
            LocalTry::Acquired { handed_over: true }
        );
        assert_eq!(client.stats().round_trips, before, "handover posts no verb");
        assert!(
            mgr.release(&mut client, node, Vec::new(), true)
                .unwrap()
                .released_global
        );
    }

    #[test]
    fn cancelled_waiters_leave_the_lock_usable() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(1, 90 << 10);
        let mut client = pool.fabric().client(0);
        let locks: &dyn NodeLockManager = mgr.as_ref();

        let mut holder = LocalTicket::default();
        assert!(matches!(
            locks.try_lock_local(0, node, &mut holder),
            LocalTry::Acquired { .. }
        ));
        let token = locks.post_lock_remote(&mut client, node).unwrap();
        assert!(crate::cas_won(&client.poll_token(token)));
        let (mut granted, mut queued) = (LocalTicket::default(), LocalTicket::default());
        assert_eq!(locks.try_lock_local(0, node, &mut granted), LocalTry::Wait);
        assert_eq!(locks.try_lock_local(0, node, &mut queued), LocalTry::Wait);

        // The holder hands over to `granted`, which then withdraws: it owns
        // the global lock and must release it; `queued` withdraws plainly.
        locks.release(&mut client, node, Vec::new(), true).unwrap();
        assert!(locks.cancel_local(0, node, &mut granted));
        assert!(!locks.cancel_local(0, node, &mut queued));
        locks.release(&mut client, node, Vec::new(), true).unwrap();
        assert_eq!(mgr.queued_waiters(0, node), 0);

        // A local holder whose remote attempt never won just drops the
        // local lock.
        let mut loser = LocalTicket::default();
        assert!(matches!(
            locks.try_lock_local(0, node, &mut loser),
            LocalTry::Acquired { .. }
        ));
        assert!(!locks.cancel_local(0, node, &mut loser));

        // Nothing is left held: another compute server acquires remotely.
        let mut other = pool.fabric().client(1);
        let a = locks.acquire(&mut other, node).unwrap();
        assert!(!a.handed_over);
        assert_eq!(a.remote_retries, 0);
    }

    #[test]
    fn local_waiters_do_not_issue_remote_retries() {
        let (pool, mgr) = setup(HoclOptions::default());
        let node = GlobalAddress::host(0, 60 << 10);
        let barrier = Arc::new(std::sync::Barrier::new(3));
        let mut handles = Vec::new();
        for _ in 0..3u16 {
            let pool = Arc::clone(&pool);
            let mgr = Arc::clone(&mgr);
            let barrier = Arc::clone(&barrier);
            handles.push(thread::spawn(move || {
                let mut client = pool.fabric().client(0);
                barrier.wait();
                let mut retries = 0;
                for _ in 0..20 {
                    let a = mgr.acquire(&mut client, node).unwrap();
                    retries += a.remote_retries;
                    client.charge_cpu(1_000);
                    mgr.release(&mut client, node, Vec::new(), true).unwrap();
                }
                retries
            }));
        }
        let total_retries: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        // Same-CS threads queue locally; the remote lock is observed free (or
        // handed over), so remote CAS retries stay negligible.
        assert!(
            total_retries <= 3,
            "expected almost no remote retries, got {total_retries}"
        );
    }
}
