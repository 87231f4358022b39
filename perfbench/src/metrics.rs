//! The benchmark's metrics: their names, units, directions and bounds (the
//! registry `BENCHMARK.json` mirrors), and how each is computed from the
//! driver's records and the layers' public counters.

use crate::driver::{Lane, OpRecord, Outcome, PipelineTotals, SegmentRun};
use sherman::{Cluster, PipelineOp};
use sherman_memserver::FreeListStats;
use sherman_metrics::{CoherenceGauges, OffloadGauges, SpaceSnapshot};
use sherman_sim::metrics::MetricsSnapshot;

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name in the result line.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may worsen.
    pub bound: Option<f64>,
    /// Which end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
    }
}

/// End-to-end metrics, reported by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    e2e("throughput_mops", "Mops", "higher", 0.05),
    e2e("lookup_mid_us", "us", "lower", 0.05),
    e2e("lookup_tail_us", "us", "lower", 0.1),
    e2e("write_mid_us", "us", "lower", 0.05),
    e2e("write_tail_us", "us", "lower", 0.1),
    e2e("success_ratio", "ratio", "higher", 0.01),
    e2e("space_amp", "ratio", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    layer(
        "sim.round_trips_per_write",
        "rt/write",
        "lower",
        "write_mid_us on write-hot",
    ),
    layer(
        "sim.bytes_written_per_write",
        "B/write",
        "lower",
        "write_mid_us on write-hot",
    ),
    layer(
        "sim.atomics_per_write",
        "atomics/write",
        "lower",
        "write_mid_us on write-hot",
    ),
    layer(
        "sim.onchip_atomic_share",
        "ratio",
        "higher",
        "write_mid_us on write-hot",
    ),
    layer(
        "sim.round_trips_per_lookup",
        "rt/lookup",
        "lower",
        "lookup_mid_us on lookup-cold; about 1 on write-hot",
    ),
    layer(
        "sim.bytes_read_per_op",
        "B/op",
        "lower",
        "lookup_mid_us on lookup-cold",
    ),
    layer(
        "sim.rpcs_per_op",
        "rpcs/op",
        "lower",
        "lookup_mid_us on lookup-cold",
    ),
    layer(
        "sim.overlapped_rt_share",
        "ratio",
        "higher",
        "throughput_mops everywhere",
    ),
    layer(
        "sim.mean_in_flight",
        "verbs",
        "higher",
        "throughput_mops everywhere",
    ),
    layer(
        "scheduler.queue_mean_us",
        "us",
        "lower",
        "write_tail_us and throughput_mops on write-hot and churn",
    ),
    layer(
        "scheduler.queue_tail_us",
        "us",
        "lower",
        "write_tail_us and throughput_mops on write-hot and churn",
    ),
    layer(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "lookup_mid_us on lookup-cold; flat on write-hot",
    ),
    layer(
        "cache.top_hit_ratio",
        "ratio",
        "higher",
        "lookup_mid_us on lookup-cold; flat on write-hot",
    ),
    layer(
        "cache.evictions_per_op",
        "evictions/op",
        "lower",
        "lookup_mid_us on lookup-cold; flat on write-hot",
    ),
    layer(
        "cache.invalidations",
        "count",
        "lower",
        "lookup_tail_us on churn",
    ),
    layer(
        "cache.stale_rejections",
        "count",
        "lower",
        "lookup_tail_us on churn",
    ),
    layer(
        "offload.offload_share",
        "ratio",
        "higher",
        "lookup_tail_us on lookup-cold; about 0 on write-hot",
    ),
    layer(
        "offload.win_ratio",
        "ratio",
        "higher",
        "lookup_tail_us on lookup-cold; about 0 on write-hot",
    ),
    layer(
        "offload.declined",
        "count",
        "lower",
        "lookup_tail_us on lookup-cold; about 0 on write-hot",
    ),
    layer(
        "offload.ewma_read_ns",
        "ns",
        "lower",
        "lookup_tail_us on lookup-cold",
    ),
    layer(
        "offload.ewma_rpc_ns",
        "ns",
        "lower",
        "lookup_tail_us on lookup-cold",
    ),
    layer(
        "locks.handover_share",
        "ratio",
        "higher",
        "write_tail_us on write-hot",
    ),
    layer(
        "locks.retries_per_op",
        "retries/op",
        "lower",
        "write_tail_us on write-hot",
    ),
    layer(
        "core.read_retries_per_read",
        "ratio",
        "lower",
        "lookup_tail_us on write-hot and churn",
    ),
    layer(
        "coherence.posted",
        "count",
        "lower",
        "success_ratio and write_tail_us on churn",
    ),
    layer(
        "coherence.mean_apply_lag_ns",
        "ns",
        "lower",
        "success_ratio and write_tail_us on churn",
    ),
    layer(
        "coherence.stale_hits",
        "count",
        "lower",
        "success_ratio and write_tail_us on churn",
    ),
    layer(
        "memserver.leaf_merges",
        "count",
        "higher",
        "space_amp on churn",
    ),
    layer("memserver.retired", "count", "higher", "space_amp on churn"),
    layer("memserver.reused", "count", "higher", "space_amp on churn"),
    layer(
        "memserver.nodes_outstanding",
        "count",
        "lower",
        "space_amp on churn",
    ),
    layer(
        "host.cpu_us_per_op",
        "us",
        "lower",
        "no virtual metric: it is the simulator's own host cost",
    ),
    layer(
        "host.wall_us_per_op",
        "us",
        "lower",
        "host.cpu_us_per_op everywhere",
    ),
    layer(
        "host.cpu_ns_per_verb",
        "ns",
        "lower",
        "host.cpu_us_per_op everywhere",
    ),
    layer(
        "host.traced_cpu_us_per_op",
        "us",
        "lower",
        "host.cpu_us_per_op everywhere (with spans on)",
    ),
    layer(
        "host.tracing_overhead",
        "ratio",
        "lower",
        "the gap between traced and untraced host.cpu_us_per_op",
    ),
    layer(
        "trace.spans",
        "count",
        "higher",
        "nothing: spans written by the traced run",
    ),
];

/// The layers' public counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    fabric: MetricsSnapshot,
    cache: CacheTotals,
    offload: OffloadGauges,
    coherence: CoherenceGauges,
    space: SpaceSnapshot,
    reclaim: FreeListStats,
    nodes_outstanding: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct CacheTotals {
    hits: u64,
    misses: u64,
    top_hits: u64,
    top_misses: u64,
    evictions: u64,
    invalidations: u64,
    stale_rejections: u64,
}

impl Counters {
    /// Read every layer's counters.
    pub fn read(cluster: &Cluster) -> Self {
        let mut cache = CacheTotals::default();
        for cs in 0..cluster.fabric().compute_servers() as u16 {
            let s = cluster.cache(cs).stats();
            cache.hits += s.hits();
            cache.misses += s.misses();
            cache.top_hits += s.top_hits();
            cache.top_misses += s.top_misses();
            cache.evictions += s.evictions() + s.pressure_evictions();
            cache.invalidations += s.invalidations();
            cache.stale_rejections += s.stale_rejections();
        }
        Counters {
            fabric: cluster.fabric().metrics().snapshot(),
            cache,
            offload: cluster.offload_stats(),
            coherence: cluster.coherence_stats(),
            space: cluster.space_stats(),
            reclaim: cluster.reclaim_stats(),
            nodes_outstanding: cluster.nodes_outstanding(),
        }
    }
}

/// What measuring one segment recorded: the driver's per-lane summaries and
/// host windows, the layers' counters before and after, and the host cost.
#[derive(Debug)]
pub struct Measured {
    /// The driver's account of the segment.
    pub run: SegmentRun,
    /// Counters when the segment started.
    pub before: Counters,
    /// Counters when it ended.
    pub after: Counters,
    /// Host wall ns.
    pub wall_ns: u64,
    /// Process CPU ns.
    pub cpu_ns: u64,
}

/// A measured segment together with the records it admitted.
pub struct Segment<'a> {
    /// Every lane.
    pub lanes: &'a [Lane],
    /// The measurement.
    pub m: Measured,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean of the samples of an ascending slice ranked in `[lo, hi)` (as
/// fractions), in µs.  Virtual latencies are sums of fixed verb costs, so the
/// distribution is a set of spikes: a plain percentile is either pinned to
/// one spike (and reads identically on every seed) or jumps between two.  A
/// band mean moves smoothly with the mass under it.  `[0.25, 0.75)` is the
/// interquartile mean (the "mid" latency); `[0.98, 0.995)` a smoothed p99
/// (the "tail").
pub fn band_mean_us(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let a = ((lo * n as f64) as usize).min(n - 1);
    let b = ((hi * n as f64) as usize).clamp(a + 1, n);
    sorted[a..b].iter().sum::<u64>() as f64 / (b - a) as f64 / 1e3
}

/// The mid band (interquartile mean).
pub const MID: (f64, f64) = (0.25, 0.75);
/// The tail band (a smoothed p99).
pub const TAIL: (f64, f64) = (0.98, 0.995);

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn is_write(op: &PipelineOp) -> bool {
    matches!(op, PipelineOp::Insert { .. } | PipelineOp::Delete { .. })
}

impl Segment<'_> {
    fn records(&self) -> impl Iterator<Item = &OpRecord> + '_ {
        self.m
            .run
            .parts
            .iter()
            .zip(self.lanes)
            .flat_map(|(p, lane)| lane.records[p.first..p.end].iter())
    }

    fn completed(&self) -> impl Iterator<Item = &OpRecord> + '_ {
        self.records().filter(|r| r.completed())
    }

    /// Operations the segment completed.
    pub fn ops(&self) -> u64 {
        self.completed().count() as u64
    }

    fn totals(&self) -> PipelineTotals {
        self.m
            .run
            .parts
            .iter()
            .fold(PipelineTotals::default(), |acc, p| acc.merged(&p.totals))
    }

    /// Sorted admission → completion latencies (virtual ns) of lookups and
    /// of writes.
    pub fn latencies(&self) -> (Vec<u64>, Vec<u64>) {
        let (mut lookups, mut writes) = (Vec::new(), Vec::new());
        for r in self.completed() {
            match r.op {
                PipelineOp::Lookup { .. } => lookups.push(r.latency_ns()),
                ref op if is_write(op) => writes.push(r.latency_ns()),
                _ => {}
            }
        }
        lookups.sort_unstable();
        writes.sort_unstable();
        (lookups, writes)
    }

    /// Completed operations per virtual microsecond, summed over threads.
    pub fn throughput_mops(&self) -> f64 {
        self.m
            .run
            .parts
            .iter()
            .zip(self.lanes)
            .map(|(p, lane)| {
                let done = lane.records[p.first..p.end]
                    .iter()
                    .filter(|r| r.completed())
                    .count();
                ratio(done as f64 * 1e3, (p.v_end - p.v_start) as f64)
            })
            .sum()
    }

    /// Process CPU µs per completed operation: the median over the
    /// segment's one-second windows, so a burst of load from elsewhere on the
    /// host moves one window rather than the figure (the whole segment's
    /// ratio when it was too short for a window).
    pub fn cpu_us_per_op(&self) -> f64 {
        let per_window: Vec<f64> = self
            .m
            .run
            .windows
            .iter()
            .filter(|w| w.ops > 0)
            .map(|w| w.cpu_ns as f64 / 1e3 / w.ops as f64)
            .collect();
        if per_window.is_empty() {
            ratio(self.m.cpu_ns as f64 / 1e3, self.ops() as f64)
        } else {
            median(&per_window)
        }
    }

    /// Every per-layer metric except the host and trace ones, in registry order.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let (b, a) = (&self.m.before, &self.m.after);
        let fabric = a.fabric.delta_since(&b.fabric);
        let ops = self.ops() as f64;
        let (mut writes, mut lookups) = (0u64, 0u64);
        let (mut write_rt, mut write_bytes, mut handovers, mut lookup_rt, mut read_retries) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut queue: Vec<u64> = Vec::new();
        for r in self.completed() {
            queue.push(r.latency_ns().saturating_sub(r.attributed_ns));
            read_retries += r.read_retries as u64;
            if is_write(&r.op) {
                writes += 1;
                write_rt += r.round_trips as u64;
                write_bytes += r.bytes_written as u64;
                handovers += r.handed_over as u64;
            } else if let Outcome::Lookup(_) = r.outcome {
                lookups += 1;
                lookup_rt += r.round_trips as u64;
            }
        }
        queue.sort_unstable();
        let totals = self.totals();
        let elapsed: u64 = self.m.run.parts.iter().map(|p| p.v_end - p.v_start).sum();
        let cache_hits = (a.cache.hits - b.cache.hits) as f64;
        let cache_misses = (a.cache.misses - b.cache.misses) as f64;
        let top_hits = (a.cache.top_hits - b.cache.top_hits) as f64;
        let top_misses = (a.cache.top_misses - b.cache.top_misses) as f64;
        let wins = (a.offload.wins - b.offload.wins) as f64;
        let losses = (a.offload.losses - b.offload.losses) as f64;
        let applied = (a.coherence.applied - b.coherence.applied) as f64;
        let lag = (a.coherence.apply_lag_ns_total - b.coherence.apply_lag_ns_total) as f64;
        vec![
            (
                "sim.round_trips_per_write",
                ratio(write_rt as f64, writes as f64),
            ),
            (
                "sim.bytes_written_per_write",
                ratio(write_bytes as f64, writes as f64),
            ),
            (
                "sim.atomics_per_write",
                ratio(fabric.atomics as f64, writes as f64),
            ),
            (
                "sim.onchip_atomic_share",
                ratio(fabric.onchip_atomics as f64, fabric.atomics as f64),
            ),
            (
                "sim.round_trips_per_lookup",
                ratio(lookup_rt as f64, lookups as f64),
            ),
            (
                "sim.bytes_read_per_op",
                ratio(fabric.bytes_read as f64, ops),
            ),
            ("sim.rpcs_per_op", ratio(fabric.rpcs as f64, ops)),
            (
                "sim.overlapped_rt_share",
                ratio(
                    totals.overlapped_round_trips as f64,
                    totals.round_trips as f64,
                ),
            ),
            (
                "sim.mean_in_flight",
                ratio(totals.verb_ns as f64, elapsed as f64),
            ),
            ("scheduler.queue_mean_us", band_mean_us(&queue, 0.0, 1.0)),
            (
                "scheduler.queue_tail_us",
                band_mean_us(&queue, TAIL.0, TAIL.1),
            ),
            (
                "cache.hit_ratio",
                ratio(cache_hits, cache_hits + cache_misses),
            ),
            (
                "cache.top_hit_ratio",
                ratio(top_hits, top_hits + top_misses),
            ),
            (
                "cache.evictions_per_op",
                ratio((a.cache.evictions - b.cache.evictions) as f64, ops),
            ),
            (
                "cache.invalidations",
                (a.cache.invalidations - b.cache.invalidations) as f64,
            ),
            (
                "cache.stale_rejections",
                (a.cache.stale_rejections - b.cache.stale_rejections) as f64,
            ),
            (
                "offload.offload_share",
                ratio((a.offload.offloaded - b.offload.offloaded) as f64, ops),
            ),
            ("offload.win_ratio", ratio(wins, wins + losses)),
            (
                "offload.declined",
                (a.offload.declined - b.offload.declined) as f64,
            ),
            ("offload.ewma_read_ns", a.offload.ewma_read_ns as f64),
            ("offload.ewma_rpc_ns", a.offload.ewma_rpc_ns as f64),
            (
                "locks.handover_share",
                ratio(handovers as f64, writes as f64),
            ),
            ("locks.retries_per_op", ratio(totals.retries as f64, ops)),
            (
                "core.read_retries_per_read",
                ratio(read_retries as f64, fabric.reads as f64),
            ),
            (
                "coherence.posted",
                (a.coherence.posted() - b.coherence.posted()) as f64,
            ),
            ("coherence.mean_apply_lag_ns", ratio(lag, applied)),
            (
                "coherence.stale_hits",
                (a.coherence.stale_hits - b.coherence.stale_hits) as f64,
            ),
            (
                "memserver.leaf_merges",
                (a.space.leaf_merges - b.space.leaf_merges) as f64,
            ),
            (
                "memserver.retired",
                (a.reclaim.retired - b.reclaim.retired) as f64,
            ),
            (
                "memserver.reused",
                (a.reclaim.reused - b.reclaim.reused) as f64,
            ),
            ("memserver.nodes_outstanding", a.nodes_outstanding as f64),
        ]
    }

    /// Host metrics of this segment: wall µs per op and CPU ns per verb.
    pub fn host_metrics(&self) -> Vec<(&'static str, f64)> {
        let fabric = self.m.after.fabric.delta_since(&self.m.before.fabric);
        vec![
            (
                "host.wall_us_per_op",
                ratio(self.m.wall_ns as f64 / 1e3, self.ops() as f64),
            ),
            (
                "host.cpu_ns_per_verb",
                ratio(self.m.cpu_ns as f64, fabric.total_verbs() as f64),
            ),
        ]
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn band_means() {
        let v: Vec<u64> = (1..=100).map(|x| x * 1000).collect();
        assert_eq!(band_mean_us(&v, 0.25, 0.75), 50.5);
        assert_eq!(band_mean_us(&v, 0.98, 0.995), 99.0);
        assert_eq!(band_mean_us(&[4000], 0.98, 0.995), 4.0);
        assert_eq!(band_mean_us(&[], 0.25, 0.75), 0.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(m.name.len() <= 64 && m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25));
        }
    }
}
