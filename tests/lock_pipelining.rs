//! The pipelined write path's lock behaviour: ops of one context queue FIFO
//! on a shared leaf lock and hand it to each other (bounded by
//! `MAX_HANDOVER_DEPTH`), every HOCL ladder setting and the FG+ manager stay
//! model-exact at depth 8 on both backends, and a lock table so small that
//! leaves and internal nodes share lock words still finishes splits and
//! merges — the case where a structural tail could otherwise spin on a lock
//! held by an op parked on its own thread.

use sherman_repro::prelude::*;
use sherman_repro::sherman_locks::MAX_HANDOVER_DEPTH;
use sherman_sim::{Fabric, FabricBackend, ThreadedFabric};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Bulkloaded keys are `k * 3` for `k < n`, valued `k * 7 + 1`.
fn loaded<B: FabricBackend>(
    config: ClusterConfig,
    options: TreeOptions,
    n: u64,
) -> Arc<Cluster<B>> {
    let cluster = Cluster::<B>::new_on(config, options);
    cluster
        .bulkload((0..n).map(|k| (k * 3, k * 7 + 1)))
        .expect("bulkload");
    cluster
}

/// Depth-8 updates of three keys of the first leaf: every op wants the same
/// lock word.  The trace shows the order in which ops took it; the results
/// say which ones got it by handover.
#[test]
fn same_leaf_inserts_hand_over_fifo_and_bounded() {
    let cluster = loaded::<Fabric>(ClusterConfig::small(), TreeOptions::sherman(), 1_200);
    let mut client = cluster.client(0);
    client.enable_verb_trace();
    let n = 120u64;
    // The value is the op's feed index, which is also its scheduler op id.
    let ops: Vec<PipelineOp> = (0..n)
        .map(|i| PipelineOp::Insert {
            key: (i % 3) * 3,
            value: i,
        })
        .collect();
    let report = client.run_pipelined(ops, 8).unwrap();
    assert_eq!(report.results.len(), n as usize);
    let handed: HashMap<u64, bool> = report
        .results
        .iter()
        .map(|r| match r.op {
            PipelineOp::Insert { value, .. } => (value, r.handed_over),
            other => panic!("unexpected op {other:?}"),
        })
        .collect();

    let order: Vec<u64> = client
        .take_verb_trace()
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::CriticalBegin { op, .. } => op,
            _ => None,
        })
        .collect();
    assert_eq!(order.len(), n as usize, "one critical section per insert");
    // FIFO: the ops took the lock in the order they queued for it, which
    // is their admission order.
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "lock taken out of queue order: {order:?}"
    );
    let handovers = order.iter().filter(|op| handed[op]).count();
    assert!(
        handovers * 2 >= n as usize,
        "a queue of same-context waiters should mostly hand over, got {handovers}/{n}"
    );
    // Bounded: after MAX_HANDOVER_DEPTH consecutive handovers the lock goes
    // back through the global table.
    let mut run = 0u32;
    for op in &order {
        run = if handed[op] { run + 1 } else { 0 };
        assert!(
            run <= MAX_HANDOVER_DEPTH,
            "{run} consecutive handovers at op {op}"
        );
    }
    for k in 0..3u64 {
        let last = (0..n).filter(|i| i % 3 == k).max().unwrap();
        assert_eq!(client.lookup(k * 3).unwrap().0, Some(last), "key {}", k * 3);
    }
}

/// A contended mix whose final state does not depend on completion order:
/// every op touches its own key, but the keys crowd a few leaves — updates
/// of existing keys, inserts of fresh ones (which split those leaves) and
/// deletes (which can empty them), with lookups of untouched keys.
fn hot_leaf_ops(loaded: u64) -> Vec<PipelineOp> {
    (0..240u64)
        .map(|i| match i % 4 {
            0 => PipelineOp::Insert {
                key: (i / 4) * 3,
                value: 1_000_000 + i,
            },
            1 => PipelineOp::Insert {
                key: (i / 4) * 3 + 1,
                value: 2_000_000 + i,
            },
            2 => PipelineOp::Delete {
                key: (60 + i / 4) * 3,
            },
            _ => PipelineOp::Lookup {
                key: (loaded - 1 - i) * 3,
            },
        })
        .collect()
}

fn check_against_model<B: FabricBackend>(
    cluster: &Arc<Cluster<B>>,
    report: &PipelineReport,
    ops: &[PipelineOp],
    mut model: BTreeMap<u64, u64>,
    label: &str,
) {
    assert_eq!(report.results.len(), ops.len(), "{label}");
    for r in &report.results {
        match (&r.op, &r.output) {
            (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
            (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                assert!(found, "{label}: delete of preloaded key {key} missed");
            }
            (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                assert_eq!(*v, model.get(key).copied(), "{label}: lookup({key})");
            }
            other => panic!("{label}: mismatched op/output {other:?}"),
        }
    }
    for op in ops {
        match *op {
            PipelineOp::Insert { key, value } => {
                model.insert(key, value);
            }
            PipelineOp::Delete { key } => {
                model.remove(&key);
            }
            _ => {}
        }
    }
    let mut check = cluster.client(1);
    let (scan, _) = check.range(0, model.len() + 10).unwrap();
    let expect: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(scan, expect, "{label}: final tree differs from the model");
}

fn ladder() -> Vec<(&'static str, TreeOptions)> {
    let hocl = |wait_queue, handover| TreeOptions {
        lock_strategy: LockStrategy::Hocl {
            wait_queue,
            handover,
        },
        ..TreeOptions::sherman()
    };
    vec![
        ("HOCL structure only", hocl(false, false)),
        ("HOCL + wait queue", hocl(true, false)),
        ("HOCL (default)", TreeOptions::sherman()),
        ("FG+", TreeOptions::fg_plus()),
    ]
}

fn ladder_matches_model_on<B: FabricBackend>(backend: &str) {
    let n = 1_200u64;
    let ops = hot_leaf_ops(n);
    for (name, options) in ladder() {
        let cluster = loaded::<B>(ClusterConfig::small(), options, n);
        let model: BTreeMap<u64, u64> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();
        let report = cluster
            .client(0)
            .run_pipelined(ops.iter().copied(), 8)
            .unwrap();
        check_against_model(&cluster, &report, &ops, model, &format!("{backend} {name}"));
    }
}

#[test]
fn every_lock_setting_matches_the_model_at_depth_eight_on_the_simulator() {
    ladder_matches_model_on::<Fabric>("sim");
}

#[test]
fn every_lock_setting_matches_the_model_at_depth_eight_on_threads() {
    ladder_matches_model_on::<ThreadedFabric>("threaded");
}

/// Two threads of one compute server pipeline writes on the same hot
/// leaves: a slot may wait on a local lock held by the other thread, which
/// only that thread can release (the scheduler polls on CPU time then).
/// Each thread owns every other key, so the final tree is known.
fn same_server_threads_share_local_locks_on<B: FabricBackend>(backend: &str) {
    let n = 1_200u64;
    let cluster = loaded::<B>(ClusterConfig::small(), TreeOptions::sherman(), n);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let cluster = Arc::clone(&cluster);
            scope.spawn(move || {
                let ops = (0..400u64).map(|i| PipelineOp::Insert {
                    key: ((i * 2 + t) % 60) * 3,
                    value: (t << 32) | i,
                });
                let report = cluster.client(0).run_pipelined(ops, 8).unwrap();
                assert_eq!(report.results.len(), 400, "{backend} thread {t}");
            });
        }
    });
    let mut check = cluster.client(1);
    for k in 0..60u64 {
        let t = k % 2;
        let last = (0..400u64).filter(|i| (i * 2 + t) % 60 == k).max().unwrap();
        assert_eq!(
            check.lookup(k * 3).unwrap().0,
            Some((t << 32) | last),
            "{backend}: key {}",
            k * 3
        );
    }
}

#[test]
fn same_server_threads_share_local_locks_on_both_backends() {
    same_server_threads_share_local_locks_on::<Fabric>("sim");
    same_server_threads_share_local_locks_on::<ThreadedFabric>("threaded");
}

/// 32 lock words per memory server: leaves and internal nodes alias.  A
/// depth-8 run grows the tree through leaf and internal splits, then drains
/// it through merges; each structural tail must wait for its own context's
/// locks instead of spinning on one, and the tree must match the model.
#[test]
fn aliased_lock_words_survive_splits_and_merges_at_depth_eight() {
    let mut config = ClusterConfig::small();
    config.fabric.onchip_bytes_per_ms = 64;
    let n = 300u64;
    let cluster = loaded::<Fabric>(config, TreeOptions::sherman(), n);
    let before = cluster.node_census().unwrap().internals;
    let mut model: BTreeMap<u64, u64> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();

    let grow: Vec<PipelineOp> = (0..1_500u64)
        .map(|i| PipelineOp::Insert {
            key: (i * 7_919) % 5_000 * 3 + 1,
            value: i,
        })
        .collect();
    let report = cluster
        .client(0)
        .run_pipelined(grow.iter().copied(), 8)
        .unwrap();
    assert_eq!(report.results.len(), grow.len());
    for op in &grow {
        if let PipelineOp::Insert { key, value } = *op {
            model.insert(key, value);
        }
    }
    assert!(
        cluster.node_census().unwrap().internals > before,
        "the inserts must split internal nodes too"
    );

    let drain: Vec<PipelineOp> = model
        .keys()
        .copied()
        .filter(|k| k % 10 != 0)
        .map(|key| PipelineOp::Delete { key })
        .collect();
    let report = cluster
        .client(0)
        .run_pipelined(drain.iter().copied(), 8)
        .unwrap();
    assert_eq!(report.results.len(), drain.len());
    for r in &report.results {
        assert_eq!(r.output, OpOutput::Delete(true), "{:?}", r.op);
    }
    model.retain(|k, _| k % 10 == 0);
    assert!(
        cluster.space_stats().leaf_merges > 0,
        "the drain must merge leaves"
    );

    let mut check = cluster.client(1);
    let (scan, _) = check.range(0, model.len() + 10).unwrap();
    assert_eq!(scan, model.into_iter().collect::<Vec<_>>());
    assert_eq!(
        cluster.nodes_outstanding(),
        cluster.node_census().unwrap().total()
    );
}
