//! The pipelined tree-operation scheduler: N logical operations multiplexed
//! round-robin over **one** fabric context.
//!
//! The split-phase fabric fixes a verb's completion time at post time and
//! lets the poster keep going, but a single tree operation is inherently
//! sequential — it cannot post its next read before the previous one
//! resolves.  Throughput therefore comes from *operation-level* parallelism:
//! the scheduler keeps up to `depth` independent operations (each a resumable
//! state machine from the `ops` module) in flight on one `ClientCtx`, stepping
//! whichever operation's verb completes first.  One thread then overlaps up
//! to `depth` network round trips, which is how Sherman's evaluation (and
//! DEX, more aggressively) hides RDMA latency with multiple coroutines per
//! client thread.
//!
//! Scheduling is completion-driven round-robin: the earliest completion on
//! the shared completion queue decides which operation runs next, a finished
//! operation's slot immediately pulls the next operation from the feed, and
//! a `depth` of 1 degenerates to exactly the blocking path (post one verb,
//! poll it) — the equivalence the `pipelined_equivalence` and
//! `write_pipelining` suites pin down.
//!
//! ## Writes pipeline too — critical sections yield at every verb
//!
//! Inserts and deletes join the pipeline end to end.  Their location phase
//! is the same lock-free descent a lookup uses; their lock critical section
//! parks at every wait (see `ops`): on the leaf's local lock, on the posted
//! CAS, on the locked read and on the combined write-back + release.  So
//! while one op waits for its lock round trip the others keep posting, and
//! ops queued on a lock held by another op of this context get it by HOCL
//! handover instead of a fresh remote CAS.
//!
//! A slot therefore parks on one of three things (`ops::Park`):
//!
//! * a posted verb — resumed by its completion, the earliest first;
//! * a local lock — resumed without a completion.  Between two polls the
//!   scheduler retries every lock-parked slot that may now take its lock
//!   (free, and first in its FIFO queue), so a release steps the waiter it
//!   granted the lock to before the next poll.  When every live slot
//!   waits on a lock whose holder runs on another thread (no verb is
//!   outstanding), the scheduler charges the lock manager's poll interval,
//!   as HOCL's blocking acquire does;
//! * the structural tail — resumed once no other slot holds or is acquiring
//!   a lock.  While a tail waits, the scheduler closes the lock gate
//!   (`TreeClient::lock_gate`) so no new acquisition starts; the tail then
//!   runs atomically inside one step and can never spin on a lock held by
//!   an op parked on this very thread.
//!
//! If a run fails, every other in-flight op gives back the lock it holds or
//! is acquiring before the error surfaces, so the next run (or another
//! thread) never waits on an orphaned lock.
//!
//! ## Attributing completions to operations
//!
//! All in-flight operations share one completion queue.  Every posted verb
//! is tagged with its operation's id (`ClientCtx::set_current_op`), so the
//! fabric can attribute each completion's round trip and wait to the op that
//! posted it.  A [`PipelinedResult::latency_ns`] is the sum of the op's own
//! verb waits and CPU charges — its serial service demand — which at depth 1
//! equals wall-clock latency exactly and at depth > 1 excludes time spent
//! advancing *other* operations (the bug the untagged wall-clock measurement
//! had).
//!
//! The driver is single-threaded and deterministic: two single-client runs
//! over the same cluster state, operation feed and depth execute the same
//! verbs in the same order and report identical virtual-time totals.

use crate::client::TreeClient;
use crate::ops::{LookupSM, OpMeta, OpOutput, OpSM, Park, RangeSM, Step, WriteKind, WriteSM};
use crate::TreeResult;
use sherman_memserver::EpochPin;
use sherman_metrics::OverlapGauges;
use sherman_sim::{ClientStats, Completion, FabricBackend};

/// One operation for the pipelined driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineOp {
    /// Point lookup of `key`.
    Lookup {
        /// Target key.
        key: u64,
    },
    /// Scan `count` entries starting from the smallest key `>= start_key`.
    Range {
        /// First key of the scan.
        start_key: u64,
        /// Number of entries requested.
        count: usize,
    },
    /// Insert (or update) `key → value`.
    Insert {
        /// Target key.
        key: u64,
        /// Value to install.
        value: u64,
    },
    /// Delete `key`.
    Delete {
        /// Target key.
        key: u64,
    },
}

/// One completed pipelined operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelinedResult {
    /// The operation that ran.
    pub op: PipelineOp,
    /// Its result.
    pub output: OpOutput,
    /// This operation's own service time: the verb waits and CPU charges
    /// attributed to it through its op-id-tagged completions.  At depth 1
    /// this equals the wall-clock latency of the blocking path; at depth > 1
    /// it deliberately excludes time spent advancing other in-flight
    /// operations (which the old wall-clock measurement wrongly included).
    pub latency_ns: u64,
    /// Round trips this operation's tagged verbs completed.
    pub round_trips: u64,
    /// Bytes this operation's tagged verbs wrote to remote memory.
    pub bytes_written: u64,
    /// Consistency-check retries this operation performed.
    pub read_retries: u64,
    /// Retries its restart budgets granted (see `OpStats::restarts`).
    pub restarts: u64,
    /// Whether a write operation obtained its lock via local handover.
    pub handed_over: bool,
    /// Whether the operation's leaf address came from the index cache.
    pub cache_hit: bool,
}

/// What one pipelined run produced.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Per-operation results, in completion order.
    pub results: Vec<PipelinedResult>,
    /// Elapsed virtual time of the whole run.
    pub elapsed_ns: u64,
    /// Fabric counters accumulated by the run (delta over the client).
    pub stats: ClientStats,
    /// Overlap gauges derived from `stats` and `elapsed_ns`.
    pub overlap: OverlapGauges,
}

impl PipelineReport {
    /// Operations completed per virtual second.
    pub fn throughput_ops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            0.0
        } else {
            self.results.len() as f64 * 1e9 / self.elapsed_ns as f64
        }
    }
}

/// Build the overlap gauges for one run from its fabric-stats delta and
/// elapsed virtual time — the single place the `ClientStats` counters map
/// onto [`OverlapGauges`], shared by the scheduler and the blocking
/// reference driver in the bench harness.
pub fn overlap_from_stats(stats: &ClientStats, elapsed_ns: u64) -> OverlapGauges {
    OverlapGauges {
        round_trips: stats.round_trips,
        overlapped_round_trips: stats.overlapped_round_trips,
        max_in_flight: stats.max_in_flight,
        in_flight_posts: stats.in_flight_posts,
        serial_verb_ns: stats.verb_ns,
        elapsed_ns,
    }
}

/// One in-flight operation: its machine, bookkeeping, and what it is parked
/// on.
struct Slot {
    /// Scheduler-assigned operation id; every verb the op posts carries it,
    /// which is how the shared completion queue attributes completions.
    id: u64,
    op: PipelineOp,
    sm: OpSM,
    meta: OpMeta,
    /// What the operation waits for (`None` only while it is being stepped).
    park: Option<Park>,
    /// Pins the reclamation epoch for this operation's whole lifetime, like
    /// the blocking entry points do.  Pins on one reader handle nest, so N
    /// concurrent operations hold the oldest epoch — conservative and safe.
    _pin: EpochPin,
}

/// The state of one `run_pipelined` call: the feed, the slots and the
/// results so far.
struct Run<F> {
    feed: F,
    slots: Vec<Option<Slot>>,
    results: Vec<PipelinedResult>,
    next_id: u64,
}

/// A failure inside a run: the slot whose step failed, and the error.
type Failure = (usize, crate::TreeError);

impl<F: Iterator<Item = PipelineOp>> Run<F> {
    fn parked(&self, idx: usize) -> Option<Park> {
        self.slots[idx].as_ref().and_then(|s| s.park)
    }

    /// Whether a slot other than `idx` satisfies `pred`.
    fn others(&self, idx: usize, pred: impl Fn(&Slot) -> bool) -> bool {
        self.slots
            .iter()
            .enumerate()
            .any(|(j, s)| j != idx && s.as_ref().is_some_and(&pred))
    }

    /// Drive slot `idx` until it parks or the feed runs dry: a completed
    /// slot immediately pulls the next operation from the feed.
    fn advance<B: FabricBackend>(
        &mut self,
        client: &mut TreeClient<B>,
        idx: usize,
        mut completion: Option<Completion>,
    ) -> Result<(), Failure> {
        // A tail parked in another slot closes the gate for this one.
        client.lock_gate = self.others(idx, |s| s.park == Some(Park::Tail));
        loop {
            let Some(active) = self.slots[idx].as_mut() else {
                // Park an empty slot on the next operation of the feed.
                let Some(op) = self.feed.next() else {
                    return Ok(());
                };
                let id = self.next_id;
                self.next_id += 1;
                // Operation boundary: apply any delivered coherence
                // messages before the op routes through the cache — the
                // same drain point the blocking entry points use, so
                // depth 1 stays byte-for-byte identical to blocking.
                client.drain_coherence();
                let pin = client.reader.pin();
                let sm = match op {
                    PipelineOp::Lookup { key } => OpSM::Lookup(LookupSM::new(key)),
                    PipelineOp::Range { start_key, count } => {
                        OpSM::Range(RangeSM::new(start_key, count))
                    }
                    PipelineOp::Insert { key, value } => {
                        OpSM::Write(WriteSM::new(key, WriteKind::Insert { value }))
                    }
                    PipelineOp::Delete { key } => OpSM::Write(WriteSM::new(key, WriteKind::Delete)),
                };
                self.slots[idx] = Some(Slot {
                    id,
                    op,
                    sm,
                    meta: OpMeta::default(),
                    park: None,
                    _pin: pin,
                });
                completion = None;
                continue;
            };
            // Tag every verb (and CPU charge) of this step with the op's
            // id so the shared completion queue can attribute it.
            active.park = None;
            client.ctx.set_current_op(Some(active.id));
            let step = active.sm.step(client, &mut active.meta, completion.take());
            client.ctx.set_current_op(None);
            match step.map_err(|e| (idx, e))? {
                Step::Pending(park) => {
                    active.park = Some(park);
                    return Ok(());
                }
                Step::Done(output) => {
                    let finished = self.slots[idx].take().expect("active slot");
                    let op_stats = client.ctx.take_op_stats(finished.id);
                    self.results.push(PipelinedResult {
                        op: finished.op,
                        output,
                        latency_ns: op_stats.latency_ns(),
                        round_trips: op_stats.round_trips,
                        bytes_written: op_stats.bytes_written,
                        read_retries: finished.meta.read_retries,
                        restarts: finished.meta.restarts,
                        handed_over: finished.meta.handed_over,
                        cache_hit: finished.meta.cache_hit,
                    });
                    // The slot is free: pull the next operation.
                }
            }
        }
    }

    /// Make every local move before the next poll: retry the slots parked
    /// on a local lock (a release just now may have handed one of them the
    /// lock), and run a waiting structural tail once no other slot holds or
    /// is acquiring a lock.  Repeats until nothing moves.
    fn settle<B: FabricBackend>(&mut self, client: &mut TreeClient<B>) -> Result<(), Failure> {
        loop {
            let mut moved = false;
            for idx in 0..self.slots.len() {
                let runnable = match &self.slots[idx] {
                    // Retry a lock waiter only once it may take its lock
                    // (free, and it is first in line), and a not-yet-queued
                    // one only while the tail gate is open.
                    Some(slot) if slot.park == Some(Park::Lock) => {
                        !slot.sm.lock_blocked()
                            && (slot.sm.engaged()
                                || !self.others(idx, |s| s.park == Some(Park::Tail)))
                    }
                    Some(slot) if slot.park == Some(Park::Tail) => {
                        !self.others(idx, |s| s.sm.engaged())
                    }
                    _ => false,
                };
                if !runnable {
                    continue;
                }
                let id = self.slots[idx].as_ref().map(|s| s.id);
                self.advance(client, idx, None)?;
                let same_op = self.slots[idx].as_ref().map(|s| s.id) == id;
                moved |= !same_op || self.parked(idx) != Some(Park::Lock);
            }
            if !moved {
                return Ok(());
            }
        }
    }

    fn drive<B: FabricBackend>(&mut self, client: &mut TreeClient<B>) -> Result<(), Failure> {
        // Fill every slot.
        for idx in 0..self.slots.len() {
            self.advance(client, idx, None)?;
        }
        let poll_ns = client.cluster.lock_manager().poll_interval_ns();
        loop {
            self.settle(client)?;
            if self.slots.iter().all(Option::is_none) {
                return Ok(());
            }
            match client.ctx.poll(None) {
                // Completion-driven: the earliest outstanding verb decides
                // which operation advances.
                Some(completion) => {
                    let idx = (0..self.slots.len())
                        .find(|&i| self.parked(i) == Some(Park::Verb(completion.token)))
                        .expect("completion token belongs to an in-flight operation");
                    self.advance(client, idx, Some(completion))?;
                }
                // Nothing is outstanding, so every live slot waits on a lock
                // held by another thread: spin on CPU time like HOCL's
                // blocking acquire, charged to the oldest waiter.
                None => {
                    let waiter = self
                        .slots
                        .iter()
                        .flatten()
                        .filter(|s| s.park == Some(Park::Lock))
                        .map(|s| s.id)
                        .min();
                    client.ctx.set_current_op(waiter);
                    client.ctx.charge_cpu(poll_ns);
                    client.ctx.set_current_op(None);
                }
            }
        }
    }

    /// Error cleanup: every op but the failed one gives back the lock it
    /// holds or is acquiring (the failed op released its own on the way
    /// out, as the blocking paths do).
    fn abandon<B: FabricBackend>(&mut self, client: &mut TreeClient<B>, failed: usize) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            if idx == failed {
                continue;
            }
            if let Some(slot) = slot.as_mut() {
                client.ctx.set_current_op(Some(slot.id));
                // Best effort: the run already failed with the first error.
                let _ = slot.sm.abandon(client);
                client.ctx.set_current_op(None);
            }
        }
    }
}

impl<B: FabricBackend> TreeClient<B> {
    /// Run `ops` with up to `depth` operations in flight on this client's
    /// single fabric context, returning every result plus the run's overlap
    /// gauges.  `depth == 1` executes exactly the blocking path.
    ///
    /// All four operation kinds pipeline, writes through their lock
    /// critical sections too: every wait parks the op and lets the others
    /// run (see the module docs).
    pub fn run_pipelined(
        &mut self,
        ops: impl IntoIterator<Item = PipelineOp>,
        depth: usize,
    ) -> TreeResult<PipelineReport> {
        let depth = depth.max(1);
        // The in-flight high-water mark is a lifetime gauge on the client;
        // make it per-run so a reused client reports this run's depth.
        self.ctx.reset_max_in_flight();
        let before = self.ctx.stats();
        let t0 = self.ctx.now();
        let mut run = Run {
            feed: ops.into_iter(),
            slots: (0..depth).map(|_| None).collect(),
            results: Vec::new(),
            next_id: 0,
        };
        let outcome = run.drive(self);
        self.lock_gate = false;
        self.merge_tails.clear();
        if let Err((failed, e)) = outcome {
            // Leave the context clean: give back every lock, then observe
            // every outstanding completion before surfacing the failure.
            run.abandon(self, failed);
            self.ctx.reset_critical();
            self.ctx.drain();
            return Err(e);
        }

        let elapsed_ns = self.ctx.now().saturating_sub(t0);
        let stats = self.ctx.stats().delta_since(&before);
        // The overlap window ends at the run's *last completion*, not at the
        // current clock: the tail between the final completion and the
        // driver's return (result bookkeeping, trailing CPU charges) has no
        // verbs in flight by definition and used to dilute the gauges.
        let window_ns = stats
            .last_completion_at
            .clamp(t0, self.ctx.now())
            .saturating_sub(t0);
        let overlap = overlap_from_stats(&stats, window_ns);
        Ok(PipelineReport {
            results: run.results,
            elapsed_ns,
            stats,
            overlap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::config::TreeOptions;
    use std::sync::Arc;

    fn loaded_cluster(n: u64) -> Arc<Cluster> {
        let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
        cluster.bulkload((0..n).map(|k| (k, k * 2 + 1))).unwrap();
        cluster
    }

    fn lookups(keys: impl IntoIterator<Item = u64>) -> Vec<PipelineOp> {
        keys.into_iter().map(|key| PipelineOp::Lookup { key }).collect()
    }

    #[test]
    fn pipelined_lookups_return_correct_values_at_every_depth() {
        let cluster = loaded_cluster(2_000);
        for depth in [1usize, 2, 4, 8] {
            let mut client = cluster.client(0);
            let keys: Vec<u64> = (0..200u64).map(|i| (i * 37) % 2_500).collect();
            let report = client.run_pipelined(lookups(keys.clone()), depth).unwrap();
            assert_eq!(report.results.len(), keys.len());
            for r in &report.results {
                let PipelineOp::Lookup { key } = r.op else { panic!() };
                let expect = (key < 2_000).then_some(key * 2 + 1);
                assert_eq!(r.output, OpOutput::Lookup(expect), "depth {depth} key {key}");
            }
        }
    }

    #[test]
    fn depth_one_matches_the_blocking_path_exactly() {
        let keys: Vec<u64> = (0..150u64).map(|i| (i * 101) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let mut blocking = cluster.client(0);
        let tb0 = blocking.now();
        for &k in &keys {
            blocking.lookup(k).unwrap();
        }
        let blocking_elapsed = blocking.now() - tb0;
        drop(blocking);

        let cluster = loaded_cluster(2_000);
        let mut pipelined = cluster.client(0);
        let report = pipelined.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(
            report.elapsed_ns, blocking_elapsed,
            "depth 1 must execute the same verbs at the same virtual times"
        );
        assert_eq!(report.overlap.max_in_flight, 1);
        assert_eq!(report.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn deeper_pipelines_overlap_and_speed_up_uniform_lookups() {
        let keys: Vec<u64> = (0..400u64).map(|i| (i * 997) % 2_000).collect();

        let cluster = loaded_cluster(2_000);
        let d1 = cluster.client(0).run_pipelined(lookups(keys.clone()), 1).unwrap();

        let cluster = loaded_cluster(2_000);
        let d4 = cluster.client(0).run_pipelined(lookups(keys), 4).unwrap();

        assert!(
            d4.elapsed_ns * 3 < d1.elapsed_ns * 2,
            "depth 4 ({}) should be at least 1.5x faster than depth 1 ({})",
            d4.elapsed_ns,
            d1.elapsed_ns
        );
        assert!(d4.overlap.mean_in_flight() > 1.5, "mean in-flight {}", d4.overlap.mean_in_flight());
        assert!(d4.overlap.max_in_flight >= 3);
        assert!(d4.overlap.overlap_factor() > 1.5);
        assert!(d4.stats.overlapped_round_trips > 0);
    }

    #[test]
    fn pipelined_range_scans_work_alongside_lookups() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(PipelineOp::Lookup { key: i * 40 });
            ops.push(PipelineOp::Range {
                start_key: i * 40,
                count: 10,
            });
        }
        let report = client.run_pipelined(ops, 4).unwrap();
        assert_eq!(report.results.len(), 80);
        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    assert_eq!(*v, Some(key * 2 + 1));
                }
                (PipelineOp::Range { start_key, count }, OpOutput::Range(scan)) => {
                    assert_eq!(scan.len(), *count);
                    assert_eq!(scan[0].0, *start_key);
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
                }
                other => panic!("mismatched op/output {other:?}"),
            }
        }
    }

    #[test]
    fn scheduler_is_deterministic() {
        let keys: Vec<u64> = (0..300u64).map(|i| (i * 31) % 2_000).collect();
        let run = || {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let report = client.run_pipelined(lookups(keys.clone()), 4).unwrap();
            (report.elapsed_ns, report.stats, report.results)
        };
        let (e1, s1, r1) = run();
        let (e2, s2, r2) = run();
        assert_eq!(e1, e2, "virtual-time totals must be identical");
        assert_eq!(s1, s2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn reused_client_reports_per_run_in_flight_highwater() {
        let cluster = loaded_cluster(2_000);
        let mut client = cluster.client(0);
        let keys: Vec<u64> = (0..100u64).map(|i| i * 17 % 2_000).collect();
        let deep = client.run_pipelined(lookups(keys.clone()), 8).unwrap();
        assert!(deep.overlap.max_in_flight >= 4);
        // A later depth-1 run on the *same* client must not inherit the
        // earlier run's high-water mark.
        let shallow = client.run_pipelined(lookups(keys), 1).unwrap();
        assert_eq!(shallow.overlap.max_in_flight, 1);
        assert_eq!(shallow.overlap.overlapped_round_trips, 0);
    }

    #[test]
    fn pipelined_writes_commit_at_every_depth() {
        for depth in [1usize, 4, 8] {
            let cluster = loaded_cluster(2_000);
            let mut client = cluster.client(0);
            let mut ops = Vec::new();
            for i in 0..120u64 {
                ops.push(PipelineOp::Insert {
                    key: 10_000 + i,
                    value: i + 1,
                });
                ops.push(PipelineOp::Delete { key: i * 3 });
                ops.push(PipelineOp::Lookup { key: i * 5 + 1 });
            }
            let report = client.run_pipelined(ops, depth).unwrap();
            assert_eq!(report.results.len(), 360);
            for r in &report.results {
                match (&r.op, &r.output) {
                    (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
                    (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                        assert!(*found, "depth {depth}: delete {key} missed its key");
                    }
                    (PipelineOp::Lookup { .. }, OpOutput::Lookup(_)) => {}
                    other => panic!("mismatched op/output {other:?}"),
                }
                assert!(r.round_trips > 0, "depth {depth}: untagged op {:?}", r.op);
            }
            // Every tagged round trip is attributed to exactly one result.
            let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
            assert_eq!(attributed, report.stats.round_trips, "depth {depth}");
            // Post-state: inserts visible, deleted keys gone.
            for i in 0..120u64 {
                assert_eq!(client.lookup(10_000 + i).unwrap().0, Some(i + 1), "depth {depth}");
                assert_eq!(client.lookup(i * 3).unwrap().0, None, "depth {depth}");
            }
        }
    }

    #[test]
    fn empty_feed_returns_an_empty_report() {
        let cluster = loaded_cluster(100);
        let mut client = cluster.client(0);
        let report = client.run_pipelined(std::iter::empty(), 8).unwrap();
        assert!(report.results.is_empty());
        assert_eq!(report.stats.round_trips, 0);
    }
}
