//! Write-path pipelining: inserts and deletes through the split-phase
//! scheduler yield inside their lock critical sections, yet per lock word
//! the sections of different ops never overlap (within a client and across
//! clients), every verb flagged critical belongs to an op holding a lock,
//! and structural tails still run without a foreign verb.  Depth 1
//! reproduces the blocking path verb-for-verb, mixed workloads agree with an
//! in-memory model at every depth, and every tagged completion is
//! attributed back to the operation that posted it.

use sherman_repro::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

fn loaded_cluster(n: u64) -> (Arc<Cluster>, BTreeMap<u64, u64>) {
    let cluster = Cluster::new(ClusterConfig::small(), TreeOptions::sherman());
    let pairs: Vec<(u64, u64)> = (0..n).map(|k| (k * 3, k * 7 + 1)).collect();
    cluster.bulkload(pairs.iter().copied()).unwrap();
    (cluster, pairs.into_iter().collect())
}

/// A 50/50 read/write mix whose final state is order-independent: inserts
/// land on fresh keys, deletes hit preloaded keys once each, and lookups
/// only touch keys no concurrent write can race.
fn mixed_ops(count: u64, loaded: u64) -> Vec<PipelineOp> {
    (0..count)
        .map(|i| match i % 4 {
            0 => PipelineOp::Insert {
                key: 1_000_000 + i * 5 + 1,
                value: i * 11 + 3,
            },
            1 => PipelineOp::Lookup {
                key: ((i * 97) % loaded) * 3,
            },
            2 => PipelineOp::Delete {
                key: ((i / 4) % loaded) * 3,
            },
            _ => PipelineOp::Range {
                start_key: 1_000_000 + (i * 131) % (count * 5),
                count: 8,
            },
        })
        .collect()
}

/// Apply the workload to a model map, assuming deletes only target keys the
/// lookups and ranges of the same run never observe mid-flight (the
/// generator above guarantees it: deletes hit residue-0 preloaded keys,
/// lookups hit them too but only *before* their delete index — so instead
/// we check lookups against "present in either image" below).
fn final_model(ops: &[PipelineOp], mut model: BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
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
    model
}

/// Check one client's verb trace: per lock word at most one op holds a
/// section at a time, every post flagged critical comes from an op holding
/// a section (and only those), and from its first to its last post inside a
/// structural tail an op shares the context with no other op's post.
/// Returns `(sections, tail posts)`.
fn check_trace(trace: &[TraceEvent], label: &str) -> (u64, u64) {
    let mut holder: HashMap<u128, Option<u64>> = HashMap::new();
    let mut held: HashMap<Option<u64>, u32> = HashMap::new();
    let mut sections = 0u64;
    let mut posts: Vec<Option<u64>> = Vec::new();
    let mut tail_span: HashMap<Option<u64>, (usize, usize)> = HashMap::new();
    for event in trace {
        match *event {
            TraceEvent::CriticalBegin { op, lock, .. } => {
                if let Some(other) = holder.insert(lock, op) {
                    panic!("{label}: op {op:?} took lock {lock:#x} still held by op {other:?}");
                }
                *held.entry(op).or_default() += 1;
                sections += 1;
            }
            TraceEvent::CriticalEnd { op, lock, .. } => {
                assert_eq!(
                    holder.remove(&lock),
                    Some(op),
                    "{label}: op {op:?} released lock {lock:#x} it did not hold"
                );
                *held.get_mut(&op).expect("a holder") -= 1;
            }
            TraceEvent::Post {
                op,
                critical,
                atomic,
                ..
            } => {
                let holds = held.get(&op).is_some_and(|&n| n > 0);
                assert_eq!(
                    critical, holds,
                    "{label}: post by op {op:?} flagged critical={critical}, holds a lock={holds}"
                );
                if atomic {
                    let span = tail_span.entry(op).or_insert((posts.len(), posts.len()));
                    span.1 = posts.len();
                }
                posts.push(op);
            }
        }
    }
    assert!(holder.is_empty(), "{label}: sections left open: {holder:?}");
    let mut tail_posts = 0u64;
    for (op, (first, last)) in tail_span {
        for (i, other) in posts[first..=last].iter().enumerate() {
            assert_eq!(
                *other,
                op,
                "{label}: op {other:?} posted (post #{}) inside op {op:?}'s structural tail",
                first + i
            );
        }
        tail_posts += (last - first + 1) as u64;
    }
    (sections, tail_posts)
}

/// Tentpole invariant, checked from the verb trace at depths 1, 4 and 8 on
/// the mixed workload: critical sections yield, but never overlap on one
/// lock word, critical posts belong to lock holders, and the structural
/// tails (the workload's inserts split leaves) see no foreign post.
#[test]
fn lock_sections_are_exclusive_per_word_and_tails_stay_atomic() {
    for depth in [1usize, 4, 8] {
        let (cluster, _) = loaded_cluster(1_200);
        let mut client = cluster.client(0);
        client.enable_verb_trace();
        let report = client
            .run_pipelined(mixed_ops(240, 1_200), depth)
            .unwrap();
        assert_eq!(report.results.len(), 240, "depth {depth}");

        let trace = client.take_verb_trace();
        let (sections, tail_posts) = check_trace(&trace, &format!("depth {depth}"));
        assert!(
            sections >= 120,
            "depth {depth}: expected a critical section per write, saw {sections}"
        );
        assert!(
            tail_posts > 0,
            "depth {depth}: the workload must split leaves"
        );
    }
}

/// Across clients: two compute servers pipeline writes on the same hot
/// leaves at depth 8; in virtual time no two ops ever hold one lock word at
/// once.
#[test]
fn lock_sections_never_overlap_across_clients() {
    let (cluster, _) = loaded_cluster(1_200);
    let traces: Vec<Vec<TraceEvent>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2u16)
            .map(|cs| {
                let cluster = Arc::clone(&cluster);
                scope.spawn(move || {
                    let mut client = cluster.client(cs);
                    client.enable_verb_trace();
                    let ops = (0..300u64).map(|i| PipelineOp::Insert {
                        key: (i % 40) * 3,
                        value: u64::from(cs) << 32 | i,
                    });
                    client.run_pipelined(ops, 8).unwrap();
                    client.take_verb_trace()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let mut spans: HashMap<u128, Vec<(u64, u64, usize)>> = HashMap::new();
    for (client, trace) in traces.iter().enumerate() {
        check_trace(trace, &format!("client {client}"));
        let mut open: HashMap<(u128, Option<u64>), u64> = HashMap::new();
        for event in trace {
            match *event {
                TraceEvent::CriticalBegin { op, lock, at } => {
                    open.insert((lock, op), at);
                }
                TraceEvent::CriticalEnd { op, lock, at } => {
                    let begin = open.remove(&(lock, op)).expect("begin before end");
                    spans.entry(lock).or_default().push((begin, at, client));
                }
                TraceEvent::Post { .. } => {}
            }
        }
    }
    let mut contended = 0;
    for (lock, mut list) in spans {
        list.sort_unstable();
        contended += usize::from(list.iter().any(|s| s.2 == 0) && list.iter().any(|s| s.2 == 1));
        for pair in list.windows(2) {
            assert!(
                pair[1].0 >= pair[0].1,
                "lock {lock:#x}: section {:?} overlaps {:?}",
                pair[1],
                pair[0]
            );
        }
    }
    assert!(contended > 0, "both clients must take the same lock words");
}

/// Depth 1 *is* the blocking write path: same posts (count and
/// critical-section shape), same virtual-time total, same fabric counters.
#[test]
fn depth_one_writes_reproduce_blocking_verb_for_verb() {
    let ops = mixed_ops(200, 1_200);

    let (cluster, _) = loaded_cluster(1_200);
    let mut blocking = cluster.client(0);
    blocking.enable_verb_trace();
    let t0 = blocking.now();
    for op in &ops {
        match *op {
            PipelineOp::Lookup { key } => {
                blocking.lookup(key).unwrap();
            }
            PipelineOp::Range { start_key, count } => {
                blocking.range(start_key, count).unwrap();
            }
            PipelineOp::Insert { key, value } => {
                blocking.insert(key, value).unwrap();
            }
            PipelineOp::Delete { key } => {
                blocking.delete(key).unwrap();
            }
        }
    }
    let blocking_elapsed = blocking.now() - t0;
    let blocking_stats = blocking.fabric_stats();
    let blocking_trace = blocking.take_verb_trace();
    drop(blocking);

    let (cluster, _) = loaded_cluster(1_200);
    let mut pipelined = cluster.client(0);
    pipelined.enable_verb_trace();
    let report = pipelined.run_pipelined(ops.iter().copied(), 1).unwrap();
    let pipelined_trace = pipelined.take_verb_trace();

    assert_eq!(
        report.elapsed_ns, blocking_elapsed,
        "depth 1 must execute the same verbs at the same virtual times"
    );
    assert_eq!(report.stats.round_trips, blocking_stats.round_trips);
    assert_eq!(report.stats.bytes_read, blocking_stats.bytes_read);
    assert_eq!(report.stats.bytes_written, blocking_stats.bytes_written);
    assert_eq!(report.overlap.max_in_flight, 1);
    assert_eq!(report.overlap.overlapped_round_trips, 0);

    // Verb-for-verb: the post sequences agree in count and in where the
    // critical sections fall (op ids differ — the blocking drivers do not
    // tag — so compare the shape, not the tags).
    let shape = |trace: &[TraceEvent]| -> Vec<u8> {
        trace
            .iter()
            .map(|e| match e {
                TraceEvent::Post { critical: false, .. } => 0u8,
                TraceEvent::Post { critical: true, .. } => 1,
                TraceEvent::CriticalBegin { .. } => 2,
                TraceEvent::CriticalEnd { .. } => 3,
            })
            .collect()
    };
    assert_eq!(
        shape(&pipelined_trace),
        shape(&blocking_trace),
        "depth 1 posted a different verb sequence than the blocking path"
    );

    // Per-op attribution at depth 1 equals wall clock: summed attributed
    // latencies account for the whole run.
    let attributed: u64 = report.results.iter().map(|r| r.latency_ns).sum();
    assert_eq!(
        attributed, report.elapsed_ns,
        "depth-1 attributed service time must equal elapsed virtual time"
    );
}

/// Mixed 50/50 workloads agree with the in-memory model at depths 1, 4 and
/// 8, and at depth 8 the per-op round-trip attribution sums exactly to the
/// fabric's tagged-completion total.
#[test]
fn mixed_writes_match_model_at_every_depth() {
    let ops = mixed_ops(320, 1_500);

    for depth in [1usize, 4, 8] {
        let (cluster, model) = loaded_cluster(1_500);
        let expect = final_model(&ops, model.clone());

        let mut client = cluster.client(0);
        let report = client.run_pipelined(ops.iter().copied(), depth).unwrap();
        assert_eq!(report.results.len(), ops.len(), "depth {depth}");

        for r in &report.results {
            match (&r.op, &r.output) {
                (PipelineOp::Insert { .. }, OpOutput::Insert) => {}
                (PipelineOp::Delete { key }, OpOutput::Delete(found)) => {
                    assert!(found, "depth {depth}: preloaded key {key} must be found");
                }
                (PipelineOp::Lookup { key }, OpOutput::Lookup(v)) => {
                    // Deletes only target residue-0 keys that lookups may
                    // also read; accept the before- or after-image but
                    // never a foreign value.
                    match *v {
                        Some(v) => assert_eq!(
                            Some(v),
                            model.get(key).copied(),
                            "depth {depth} lookup({key})"
                        ),
                        None => assert!(
                            !expect.contains_key(key),
                            "depth {depth} lookup({key}) lost a surviving key"
                        ),
                    }
                }
                (PipelineOp::Range { .. }, OpOutput::Range(scan)) => {
                    assert!(scan.windows(2).all(|w| w[0].0 < w[1].0), "depth {depth}");
                }
                other => panic!("depth {depth}: mismatched op/output {other:?}"),
            }
            assert!(r.round_trips > 0, "depth {depth}: untracked op {:?}", r.op);
        }

        // Per-op round-trip attribution is lossless: the tagged completions
        // handed to each op sum to the fabric's total (acceptance criterion
        // pinned at depth 8, asserted at every depth).
        let attributed: u64 = report.results.iter().map(|r| r.round_trips).sum();
        assert_eq!(
            attributed, report.stats.round_trips,
            "depth {depth}: per-op round trips must sum to the fabric total"
        );

        // Post-state: the tree equals the model after the run.
        let mut check = cluster.client(1);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                PipelineOp::Insert { key, value } => {
                    assert_eq!(
                        check.lookup(key).unwrap().0,
                        Some(value),
                        "depth {depth}: inserted key {key} (op {i}) missing"
                    );
                }
                PipelineOp::Delete { key } => {
                    assert_eq!(
                        check.lookup(key).unwrap().0,
                        None,
                        "depth {depth}: deleted key {key} (op {i}) still present"
                    );
                }
                _ => {}
            }
        }
    }
}
