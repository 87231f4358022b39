//! The three benchmark workloads: their shapes, their cluster configuration
//! and their per-thread operation streams.
//!
//! Every workload runs on the same deployment (4 memory servers, 2 compute
//! servers, `TreeOptions::sherman()` with adaptive offload and pipeline depth
//! 8, default fabric); only the tree geometry, the cache budget and the
//! operation stream differ.  Streams are deterministic in the seed.

use sherman::{ClusterConfig, OffloadPolicy, PipelineOp, TreeConfig, TreeOptions};
use sherman_sim::FabricConfig;
use sherman_workload::{
    ChurnGenerator, ChurnSpec, KeyDistribution, Mix, Op, WorkloadGenerator, WorkloadSpec,
};

/// Client threads, one per compute server.
pub const THREADS: usize = 2;
/// Operations in flight per client thread.
pub const DEPTH: usize = 8;
/// Memory servers of the benchmark deployment.
pub const MEMORY_SERVERS: usize = 4;

/// Bit 20 is set in every value a YCSB-style stream writes, so no value is 0;
/// the key sits in bits 0..20 and the writer's tag above bit 21.
const KEY_BITS: u32 = 20;
const MARK: u64 = 1 << KEY_BITS;
const TAG_SHIFT: u32 = KEY_BITS + 1;
/// Per-thread op index bits inside a writer tag.
const INDEX_BITS: u32 = 36;

/// One of the benchmark's workloads (the names are part of the benchmark's
/// interface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 50 % insert (2/3 updates) / 50 % lookup, scrambled Zipfian θ=0.99.
    WriteHot,
    /// 95 % lookup / 5 % insert, uniform keys, 256 B nodes, 64 KiB cache.
    LookupCold,
    /// Sliding-window insert/delete waves with lookups and scans.
    Churn,
}

/// How big a run's data set is: the benchmark uses `Full`; the self-tests use
/// `Tiny` to exercise the same code paths in a fraction of a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's data set.
    Full,
    /// A small data set for tests.
    Tiny,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::WriteHot, Workload::LookupCold, Workload::Churn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteHot => "write-hot",
            Workload::LookupCold => "lookup-cold",
            Workload::Churn => "churn",
        }
    }

    /// Why the benchmark runs this workload (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::WriteHot => "the paper's headline skewed write mix (Zipf 0.99, 50% writes): load lands on locks, write combining, two-level versions and the scheduler's atomic sections",
            Workload::LookupCold => "95% uniform lookups on a 5-level tree with a 64 KiB cache: time goes to cache misses, dependent traversal reads and the offload decision; locks sit idle",
            Workload::Churn => "sliding-window insert/delete waves with lookups and scans: the only shape where the tree shrinks (merges, node reuse, coherence invalidations); no skew",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tree options shared by every workload.
    pub fn options() -> TreeOptions {
        TreeOptions::sherman()
            .with_offload(OffloadPolicy::Adaptive)
            .with_pipeline_depth(DEPTH)
    }

    /// Cluster configuration: one deployment for all workloads, differing
    /// only in node size and cache budget.
    pub fn cluster_config(self) -> ClusterConfig {
        let (node_size, cache_bytes) = match self {
            Workload::WriteHot | Workload::Churn => (1024, 16 << 20),
            Workload::LookupCold => (256, 64 << 10),
        };
        ClusterConfig {
            fabric: FabricConfig {
                memory_servers: MEMORY_SERVERS,
                compute_servers: THREADS,
                ..FabricConfig::default()
            },
            tree: TreeConfig {
                node_size,
                cache_bytes,
                ..TreeConfig::default()
            },
        }
    }

    /// Whether the index caches are emptied after bulkload.
    pub fn clears_cache(self) -> bool {
        self == Workload::LookupCold
    }

    /// The YCSB-style specification (`None` for churn).
    pub fn ycsb_spec(self, scale: Scale, seed: u64) -> Option<WorkloadSpec> {
        let key_space: u64 = match scale {
            Scale::Full => 1 << 20,
            Scale::Tiny => 1 << 14,
        };
        let (mix, distribution) = match self {
            Workload::WriteHot => (
                Mix::WRITE_INTENSIVE,
                KeyDistribution::ScrambledZipfian { theta: 0.99 },
            ),
            Workload::LookupCold => (Mix::READ_INTENSIVE, KeyDistribution::Uniform),
            Workload::Churn => return None,
        };
        Some(WorkloadSpec {
            key_space,
            bulkload_keys: key_space / 5 * 4,
            mix,
            distribution,
            range_size: 100,
            seed,
            update_fraction: 2.0 / 3.0,
        })
    }

    /// The churn specification (`None` for the YCSB-style workloads).
    pub fn churn_spec(self, scale: Scale, seed: u64) -> Option<ChurnSpec> {
        (self == Workload::Churn).then_some(ChurnSpec {
            window: match scale {
                Scale::Full => 40_000,
                Scale::Tiny => 2_000,
            },
            threads: THREADS as u64,
            lookup_pct: 20,
            range_pct: 5,
            range_size: 50,
            bidirectional: true,
            seed,
        })
    }
}

/// The value a YCSB-style stream bulkloads for `key`.
pub fn bulk_value(key: u64) -> u64 {
    MARK | key
}

/// The value op `index` of `thread`'s YCSB-style stream writes for `key`.
fn write_value(key: u64, thread: usize, index: u64) -> u64 {
    let tag = ((thread as u64) << INDEX_BITS) + index + 1;
    (tag << TAG_SHIFT) | MARK | key
}

/// Who wrote a YCSB-style value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Writer {
    /// The bulkload.
    Bulkload,
    /// Op `index` of `thread`'s stream.
    Op {
        /// Writing thread.
        thread: usize,
        /// Index of the write in that thread's stream.
        index: u64,
    },
}

/// Decode a YCSB-style value into the key it was written for and its writer;
/// `None` if the value is not one any stream could have produced.
pub fn decode_value(value: u64) -> Option<(u64, Writer)> {
    if value & MARK == 0 {
        return None;
    }
    let key = value & (MARK - 1);
    let tag = value >> TAG_SHIFT;
    if tag == 0 {
        return Some((key, Writer::Bulkload));
    }
    let tag = tag - 1;
    Some((
        key,
        Writer::Op {
            thread: (tag >> INDEX_BITS) as usize,
            index: tag & ((1 << INDEX_BITS) - 1),
        },
    ))
}

/// The value a churn stream writes for `key` (`ChurnGenerator::value_at`
/// of the key's window index on its owning thread).
pub fn churn_value(key: u64) -> u64 {
    let threads = THREADS as u64;
    (key / threads).wrapping_mul(31).wrapping_add(key % threads)
}

/// One client thread's deterministic operation stream.
#[derive(Debug)]
pub struct OpSource {
    thread: usize,
    next_index: u64,
    gen: Generator,
}

#[derive(Debug)]
enum Generator {
    Ycsb(WorkloadGenerator),
    Churn(ChurnGenerator),
}

impl OpSource {
    /// The stream of `thread` for `workload` at `scale` from `seed`.
    pub fn new(workload: Workload, scale: Scale, seed: u64, thread: usize) -> Self {
        let gen = match (
            workload.ycsb_spec(scale, seed),
            workload.churn_spec(scale, seed),
        ) {
            (Some(spec), _) => Generator::Ycsb(spec.generator(thread as u64)),
            (None, Some(spec)) => Generator::Churn(spec.generator(thread as u64)),
            (None, None) => unreachable!("every workload has a spec"),
        };
        OpSource {
            thread,
            next_index: 0,
            gen,
        }
    }

    /// The next operation.  YCSB-style writes are re-valued so the value
    /// names its key and its writer (see [`decode_value`]).
    pub fn next_op(&mut self) -> PipelineOp {
        let index = self.next_index;
        self.next_index += 1;
        let op = match &mut self.gen {
            Generator::Ycsb(g) => match g.next_op() {
                Op::Insert { key, .. } => Op::Insert {
                    key,
                    value: write_value(key, self.thread, index),
                },
                other => other,
            },
            Generator::Churn(g) => g.next_op(),
        };
        match op {
            Op::Lookup { key } => PipelineOp::Lookup { key },
            Op::Insert { key, value } => PipelineOp::Insert { key, value },
            Op::Delete { key } => PipelineOp::Delete { key },
            Op::Range { start_key, count } => PipelineOp::Range {
                start_key,
                count: count as usize,
            },
        }
    }
}

/// Whether `key` is bulkloaded by `spec` (the keys of
/// `WorkloadSpec::bulkload_iter`, as a bitmap over the key space).
pub fn bulkload_bitmap(spec: &WorkloadSpec) -> Vec<bool> {
    let mut present = vec![false; spec.key_space as usize];
    for key in spec.bulkload_iter() {
        present[key as usize] = true;
    }
    present
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        assert_eq!(decode_value(bulk_value(7)), Some((7, Writer::Bulkload)));
        let v = write_value((1 << 20) - 1, 1, 123_456);
        assert_eq!(
            decode_value(v),
            Some((
                (1 << 20) - 1,
                Writer::Op {
                    thread: 1,
                    index: 123_456
                }
            ))
        );
        assert_eq!(decode_value(5), None);
    }

    #[test]
    fn churn_values_match_the_generator() {
        let spec = Workload::Churn.churn_spec(Scale::Tiny, 1).unwrap();
        for t in 0..THREADS as u64 {
            let gen = spec.generator(t);
            for i in [0, 1, 999] {
                assert_eq!(churn_value(gen.key_at(i)), gen.value_at(i));
            }
        }
    }

    #[test]
    fn streams_repeat_from_the_seed() {
        for w in Workload::ALL {
            let mut a = OpSource::new(w, Scale::Tiny, 9, 1);
            let mut b = OpSource::new(w, Scale::Tiny, 9, 1);
            for _ in 0..500 {
                assert_eq!(a.next_op(), b.next_op());
            }
        }
    }
}
