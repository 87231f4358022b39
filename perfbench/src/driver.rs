//! The closed-loop driver: one client thread per compute server, each
//! feeding `TreeClient::run_pipelined` batches from its deterministic stream
//! and timing every operation from outside, admission → completion.
//!
//! ## Timing from outside
//!
//! The feed handed to `run_pipelined` stamps the virtual clock on every pull.
//! The scheduler pulls once per slot when it fills and once after every
//! completion, and returns results in completion order, so in one call op
//! `i` is admitted at stamp `i` and the `k`-th result completed at stamp
//! `depth + k`.  Results carry their operation but not its position, so a
//! result is matched to the earliest-admitted in-flight operation equal to
//! it; only identical operations in flight together (the same lookup key)
//! can be swapped, and they are interchangeable for every check.
//!
//! ## Failures
//!
//! An operation error aborts the whole `run_pipelined` call and its results.
//! The driver counts the operations in flight at the abort as failed, keeps
//! every operation of the call as "outcome unknown" for the checks, and
//! resumes the stream with the first operation the call never admitted.

use crate::check;
use crate::clock::{host_ns, HostMark};
use crate::trace::Tracer;
use crate::workload::{bulk_value, OpSource, Scale, Workload};
use sherman::{Cluster, OpOutput, PipelineOp};
use sherman_sim::{ClientStats, Fabric};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Operations handed to one `run_pipelined` call.
const BATCH: usize = 1_000;

/// What an admitted operation returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A lookup's value.
    Lookup(Option<u64>),
    /// Whether a scan's entries checked out.
    Range {
        /// See [`check::range_ok`].
        ok: bool,
    },
    /// An insert committed.
    Insert,
    /// A delete and whether the key was present.
    Delete(bool),
    /// Admitted by a call that aborted: it may or may not have taken effect.
    Unknown,
}

/// One admitted operation.  Times are virtual ns; sequence numbers count the
/// feed pulls of the operation's thread, so on one thread `a` finished
/// before `b` started exactly when `a.done_seq <= b.admit_seq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// The operation.
    pub op: PipelineOp,
    /// Virtual time of admission.
    pub admit_v: u64,
    /// Virtual time of completion (`u64::MAX` when unknown).
    pub done_v: u64,
    /// Pull number of admission.
    pub admit_seq: u64,
    /// Pull number of completion (`u64::MAX` when unknown).
    pub done_seq: u64,
    /// The scheduler's attributed service time (`PipelinedResult::latency_ns`).
    pub attributed_ns: u64,
    /// Round trips the operation's own verbs completed.
    pub round_trips: u32,
    /// Bytes the operation wrote to remote memory.
    pub bytes_written: u32,
    /// Consistency-check re-reads the operation performed.
    pub read_retries: u32,
    /// Whether a write got its lock through a local handover.
    pub handed_over: bool,
    /// What it returned.
    pub outcome: Outcome,
}

impl OpRecord {
    /// Whether the operation's result is known.
    pub fn completed(&self) -> bool {
        self.outcome != Outcome::Unknown
    }

    /// Admission → completion latency, virtual ns.
    pub fn latency_ns(&self) -> u64 {
        self.done_v - self.admit_v
    }
}

/// A stamp taken at every feed pull.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    v: u64,
    h: u64,
}

/// The feed given to `run_pipelined`: hands out `ops` in order and stamps
/// every pull, including the pulls after it ran dry.
struct Feed<'a> {
    ops: &'a [PipelineOp],
    next: usize,
    stamps: &'a mut Vec<Stamp>,
    fabric: &'a Fabric,
    host: bool,
}

impl Iterator for Feed<'_> {
    type Item = PipelineOp;

    fn next(&mut self) -> Option<PipelineOp> {
        self.stamps.push(Stamp {
            v: self.fabric.now(),
            h: if self.host { host_ns() } else { 0 },
        });
        let op = self.ops.get(self.next).copied();
        self.next += usize::from(op.is_some());
        op
    }
}

/// Fabric counters summed over a thread's `run_pipelined` reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineTotals {
    /// Round trips.
    pub round_trips: u64,
    /// Round trips posted while another verb was in flight.
    pub overlapped_round_trips: u64,
    /// Serial verb time (sum of post → completion windows), ns.
    pub verb_ns: u64,
    /// Retries recorded by the index layer (failed lock CAS, …).
    pub retries: u64,
}

impl PipelineTotals {
    fn add(&mut self, s: &ClientStats) {
        self.round_trips += s.round_trips;
        self.overlapped_round_trips += s.overlapped_round_trips;
        self.verb_ns += s.verb_ns;
        self.retries += s.retries;
    }

    /// Element-wise sum.
    pub fn merged(mut self, other: &PipelineTotals) -> Self {
        self.round_trips += other.round_trips;
        self.overlapped_round_trips += other.overlapped_round_trips;
        self.verb_ns += other.verb_ns;
        self.retries += other.retries;
        self
    }
}

/// One thread's state across the run: its stream and everything it admitted.
#[derive(Debug)]
pub struct Lane {
    /// The thread (and compute server) index.
    pub thread: usize,
    /// The thread's stream.
    pub source: OpSource,
    /// Every admitted operation, in stream order (record `i` is stream op `i`).
    pub records: Vec<OpRecord>,
    /// Operations in flight when a call aborted.
    pub failed: u64,
    /// The errors that aborted calls.
    pub errors: Vec<String>,
    /// Feed pulls so far (the next pull's sequence number).
    seq: u64,
    /// Operations generated but not yet admitted (the tail of an aborted batch).
    leftover: Vec<PipelineOp>,
}

impl Lane {
    fn new(workload: Workload, scale: Scale, seed: u64, thread: usize) -> Self {
        Lane {
            thread,
            source: OpSource::new(workload, scale, seed, thread),
            records: Vec::new(),
            failed: 0,
            errors: Vec::new(),
            seq: 0,
            leftover: Vec::new(),
        }
    }
}

/// When a segment's threads stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this much host wall time.
    After(Duration),
    /// Once each thread admitted this many more operations.
    Ops(u64),
}

/// What one thread did in one segment.
#[derive(Debug)]
pub struct LaneSegment {
    /// First record index of the segment.
    pub first: usize,
    /// One past the last record index.
    pub end: usize,
    /// Virtual time the segment started.
    pub v_start: u64,
    /// Virtual time the thread's last call returned.
    pub v_end: u64,
    /// Summed `run_pipelined` counters.
    pub totals: PipelineTotals,
}

/// Host cost of one window of a segment.
#[derive(Debug, Clone, Copy)]
pub struct HostWindow {
    /// Wall ns.
    pub wall_ns: u64,
    /// Process CPU ns.
    pub cpu_ns: u64,
    /// Operations the threads completed in the window.
    pub ops: u64,
}

/// Length of a host-cost window.
const WINDOW: Duration = Duration::from_secs(1);

/// What one segment did: each lane's share, and the host cost of every
/// whole window while the threads ran.
#[derive(Debug)]
pub struct SegmentRun {
    /// Per-lane summaries.
    pub parts: Vec<LaneSegment>,
    /// Host cost per window (a partial last window is dropped).
    pub windows: Vec<HostWindow>,
}

/// Run one segment: every lane's thread drives its client until `stop`,
/// while this thread samples the host clocks once per window.  The spans the
/// threads recorded move into `tracer`.
pub fn run_segment(
    cluster: &Arc<Cluster>,
    lanes: &mut [Lane],
    depth: usize,
    stop: Stop,
    tracer: &mut Tracer,
    parent: Option<u64>,
) -> SegmentRun {
    let barrier = Barrier::new(lanes.len());
    let deadline = match stop {
        Stop::After(d) => Some(Instant::now() + d),
        Stop::Ops(_) => None,
    };
    let tracing = tracer.enabled();
    // Completed operations across threads; a statistic, so `Relaxed`.
    let progress = AtomicU64::new(0);
    let (results, windows): (Vec<(LaneSegment, Tracer)>, Vec<HostWindow>) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = lanes
                .iter_mut()
                .map(|lane| {
                    let (barrier, progress) = (&barrier, &progress);
                    scope.spawn(move || {
                        let mut spans = Tracer::new(tracing, (lane.thread as u64 + 1) << 48);
                        let seg = drive(
                            cluster,
                            lane,
                            (depth, stop, deadline),
                            (barrier, progress),
                            &mut spans,
                            parent,
                        );
                        (seg, spans)
                    })
                })
                .collect();
            let mut windows = Vec::new();
            let (mut mark, mut ops) = (HostMark::now(), 0);
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(Duration::from_millis(20));
                let now = HostMark::now();
                let (wall_ns, cpu_ns) = now.since(&mark);
                if wall_ns >= WINDOW.as_nanos() as u64 {
                    let done = progress.load(Ordering::Relaxed);
                    windows.push(HostWindow {
                        wall_ns,
                        cpu_ns,
                        ops: done - ops,
                    });
                    (mark, ops) = (now, done);
                }
            }
            let results = handles
                .into_iter()
                .map(|h| h.join().expect("benchmark client thread panicked"))
                .collect();
            (results, windows)
        });
    let parts = results
        .into_iter()
        .map(|(seg, spans)| {
            tracer.absorb(spans);
            seg
        })
        .collect();
    SegmentRun { parts, windows }
}

/// One thread's closed loop.
fn drive(
    cluster: &Arc<Cluster>,
    lane: &mut Lane,
    (depth, stop, deadline): (usize, Stop, Option<Instant>),
    (barrier, progress): (&Barrier, &AtomicU64),
    spans: &mut Tracer,
    parent: Option<u64>,
) -> LaneSegment {
    let fabric = cluster.fabric().as_ref();
    // The client registers this thread with the virtual clock; it must be
    // created here and dropped before the thread ends.
    let mut client = cluster.client(lane.thread as u16);
    barrier.wait();
    let first = lane.records.len();
    let v_start = fabric.now();
    let thread_span = spans.open("measure.thread", parent, v_start);
    let mut totals = PipelineTotals::default();
    let mut stamps = Vec::with_capacity(BATCH + depth);
    let mut batch = Vec::with_capacity(BATCH);
    loop {
        let want = match stop {
            Stop::After(_) if Instant::now() >= deadline.expect("timed stop has a deadline") => 0,
            Stop::After(_) => BATCH,
            Stop::Ops(n) => (n as usize + first)
                .saturating_sub(lane.records.len())
                .min(BATCH),
        };
        if want == 0 {
            break;
        }
        batch.clear();
        let carried = lane.leftover.len().min(want);
        batch.extend(lane.leftover.drain(..carried));
        while batch.len() < want {
            batch.push(lane.source.next_op());
        }
        stamps.clear();
        let call_span = spans.open("run_pipelined", thread_span, fabric.now());
        let feed = Feed {
            ops: &batch,
            next: 0,
            stamps: &mut stamps,
            fabric,
            host: spans.enabled(),
        };
        let result = client.run_pipelined(feed, depth);
        spans.close(call_span, fabric.now());

        let base = lane.records.len();
        let admitted = stamps.len().min(batch.len());
        for (i, op) in batch[..admitted].iter().enumerate() {
            lane.records.push(OpRecord {
                op: *op,
                admit_v: stamps[i].v,
                done_v: u64::MAX,
                admit_seq: lane.seq + i as u64,
                done_seq: u64::MAX,
                attributed_ns: 0,
                round_trips: 0,
                bytes_written: 0,
                read_retries: 0,
                handed_over: false,
                outcome: Outcome::Unknown,
            });
        }
        match result {
            Ok(report) => {
                assert_eq!(
                    stamps.len(),
                    depth + report.results.len(),
                    "the scheduler pulls once per slot and once per completion"
                );
                totals.add(&report.stats);
                progress.fetch_add(report.results.len() as u64, Ordering::Relaxed);
                let mut in_flight: Vec<usize> = Vec::with_capacity(depth);
                let mut next_admit = 0;
                for (k, res) in report.results.iter().enumerate() {
                    let pull = depth + k;
                    while next_admit < admitted.min(pull) {
                        in_flight.push(next_admit);
                        next_admit += 1;
                    }
                    let slot = in_flight
                        .iter()
                        .position(|&i| batch[i] == res.op)
                        .expect("every result belongs to an admitted operation");
                    let i = in_flight.remove(slot);
                    let rec = &mut lane.records[base + i];
                    rec.done_v = stamps[pull].v;
                    rec.done_seq = lane.seq + pull as u64;
                    rec.attributed_ns = res.latency_ns;
                    rec.round_trips = res.round_trips as u32;
                    rec.bytes_written = res.bytes_written as u32;
                    rec.read_retries = res.read_retries as u32;
                    rec.handed_over = res.handed_over;
                    rec.outcome = match &res.output {
                        OpOutput::Lookup(v) => Outcome::Lookup(*v),
                        OpOutput::Range(entries) => Outcome::Range {
                            ok: check::range_ok(&res.op, entries),
                        },
                        OpOutput::Insert => Outcome::Insert,
                        OpOutput::Delete(found) => Outcome::Delete(*found),
                    };
                    spans.record_op(
                        op_span_name(&res.op),
                        call_span,
                        ((lane.thread as u64) << 40) | (base + i) as u64,
                        (rec.admit_v, rec.done_v),
                        (stamps[i].h, stamps[pull].h),
                    );
                }
            }
            Err(e) => {
                let completions = stamps.len().saturating_sub(depth).min(admitted);
                lane.failed += (admitted - completions).max(1) as u64;
                lane.errors.push(e.to_string());
                lane.leftover = batch[admitted..].to_vec();
            }
        }
        lane.seq += stamps.len() as u64;
    }
    let v_end = fabric.now();
    spans.close(thread_span, v_end);
    drop(client);
    LaneSegment {
        first,
        end: lane.records.len(),
        v_start,
        v_end,
        totals,
    }
}

fn op_span_name(op: &PipelineOp) -> &'static str {
    match op {
        PipelineOp::Lookup { .. } => "op.lookup",
        PipelineOp::Range { .. } => "op.range",
        PipelineOp::Insert { .. } => "op.insert",
        PipelineOp::Delete { .. } => "op.delete",
    }
}

/// Host cost of one set-up repetition.
#[derive(Debug, Clone, Copy)]
pub struct SetupCost {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

/// A set-up deployment ready for the measured phase.
pub struct Prepared {
    /// The cluster.
    pub cluster: Arc<Cluster>,
    /// One lane per client thread, with the set-up operations recorded.
    pub lanes: Vec<Lane>,
    /// Host cost of every set-up repetition.
    pub setup: Vec<SetupCost>,
}

/// Build the deployment `reps` times from scratch (cluster, bulkload or
/// window fill, cache clear), timing each, and keep the last one.
pub fn prepare(
    workload: Workload,
    scale: Scale,
    seed: u64,
    (threads, depth): (usize, usize),
    reps: usize,
    tracer: &mut Tracer,
) -> Prepared {
    let reps = reps.max(1);
    let mut setup = Vec::with_capacity(reps);
    let mut last = None;
    let mut untraced = Tracer::new(false, 0);
    for rep in 0..reps {
        // Release the previous deployment before timing the next one.
        drop(last.take());
        // Only the kept deployment's set-up is traced.
        let tracer = if rep + 1 == reps {
            &mut *tracer
        } else {
            &mut untraced
        };
        let mark = HostMark::now();
        let span = tracer.open("setup", None, 0);
        let built = build(workload, scale, seed, (threads, depth), tracer, span);
        tracer.close(span, built.0.fabric().now());
        let (wall, cpu) = mark.elapsed();
        setup.push(SetupCost {
            wall_s: wall as f64 / 1e9,
            cpu_s: cpu as f64 / 1e9,
        });
        last = Some(built);
    }
    let (cluster, lanes) = last.expect("at least one set-up repetition");
    Prepared {
        cluster,
        lanes,
        setup,
    }
}

fn build(
    workload: Workload,
    scale: Scale,
    seed: u64,
    (threads, depth): (usize, usize),
    tracer: &mut Tracer,
    parent: Option<u64>,
) -> (Arc<Cluster>, Vec<Lane>) {
    let span = tracer.open("setup.cluster_build", parent, 0);
    let cluster = Cluster::new(workload.cluster_config(), Workload::options());
    tracer.close(span, cluster.fabric().now());

    let span = tracer.open("setup.bulkload", parent, cluster.fabric().now());
    let result = match workload.ycsb_spec(scale, seed) {
        Some(spec) => cluster.bulkload(spec.bulkload_iter().map(|k| (k, bulk_value(k)))),
        // Churn starts from an empty tree; its window fill is below.
        None => cluster.bulkload(std::iter::empty()),
    };
    result.expect("bulkload of a fresh cluster");
    tracer.close(span, cluster.fabric().now());

    let mut lanes: Vec<Lane> = (0..threads)
        .map(|t| Lane::new(workload, scale, seed, t))
        .collect();
    if let Some(spec) = workload.churn_spec(scale, seed) {
        let span = tracer.open("setup.window_fill", parent, cluster.fabric().now());
        // Each lane fills its share of the window alone on the virtual
        // clock: without cross-thread clock hand-offs the set-up's host cost
        // is far steadier, and the filled window is the same.
        let fill = spec.window_per_thread();
        for lane in lanes.chunks_mut(1) {
            run_segment(&cluster, lane, depth, Stop::Ops(fill), tracer, span);
        }
        tracer.close(span, cluster.fabric().now());
    }
    if workload.clears_cache() {
        let span = tracer.open("setup.cache_clear", parent, cluster.fabric().now());
        for cs in 0..cluster.fabric().compute_servers() as u16 {
            cluster.cache(cs).clear();
        }
        tracer.close(span, cluster.fabric().now());
    }
    (cluster, lanes)
}
