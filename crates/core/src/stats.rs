//! Per-operation statistics.
//!
//! Figure 14 of the paper analyses Sherman through internal metrics: round
//! trips per write operation, bytes written per write operation, and read
//! retries.  Every [`crate::TreeClient`] operation returns an [`OpStats`] so
//! that the benchmark harness can build those distributions without touching
//! the index internals.

use sherman_sim::ClientStats;

/// What one index operation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Network round trips (doorbell batches and parallel read batches count
    /// once).
    pub round_trips: u64,
    /// One-sided reads issued.
    pub reads: u64,
    /// One-sided writes issued.
    pub writes: u64,
    /// Atomic verbs issued.
    pub atomics: u64,
    /// Typed RPCs issued (server-side traversal offload).
    pub rpcs: u64,
    /// Payload bytes written to memory servers.
    pub bytes_written: u64,
    /// Payload bytes read from memory servers.
    pub bytes_read: u64,
    /// Failed remote lock acquisitions.
    pub lock_retries: u64,
    /// Re-reads forced by version / checksum mismatches.
    pub read_retries: u64,
    /// Retries granted by the operation's restart budgets: re-locations and
    /// torn-image re-reads, structural tail included.  B-link sibling
    /// chases spend the budget but are not retries (they always move
    /// right).  A livelock shows up here long before `RetriesExhausted`.
    pub restarts: u64,
    /// Whether the node lock was obtained through a local handover.
    pub handed_over: bool,
    /// Whether the leaf address came from the index cache.
    pub cache_hit: bool,
    /// Virtual time the operation took, in nanoseconds.
    pub latency_ns: u64,
}

impl OpStats {
    /// Build the fabric-side portion of the stats from a before/after pair of
    /// client counters and the operation's elapsed virtual time.
    pub fn from_delta(before: &ClientStats, after: &ClientStats, latency_ns: u64) -> Self {
        let d = after.delta_since(before);
        OpStats {
            round_trips: d.round_trips,
            reads: d.reads,
            writes: d.writes,
            atomics: d.atomics,
            rpcs: d.rpcs,
            bytes_written: d.bytes_written,
            bytes_read: d.bytes_read,
            lock_retries: 0,
            read_retries: 0,
            restarts: 0,
            handed_over: false,
            cache_hit: false,
            latency_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_delta_subtracts_counters() {
        let before = ClientStats {
            reads: 10,
            writes: 5,
            atomics: 2,
            rpcs: 0,
            round_trips: 17,
            bytes_written: 100,
            bytes_read: 900,
            retries: 1,
            ..ClientStats::default()
        };
        let after = ClientStats {
            reads: 12,
            writes: 8,
            atomics: 3,
            rpcs: 2,
            round_trips: 21,
            bytes_written: 190,
            bytes_read: 1_900,
            retries: 1,
            ..ClientStats::default()
        };
        let s = OpStats::from_delta(&before, &after, 5_000);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 3);
        assert_eq!(s.atomics, 1);
        assert_eq!(s.rpcs, 2);
        assert_eq!(s.round_trips, 4);
        assert_eq!(s.bytes_written, 90);
        assert_eq!(s.bytes_read, 1_000);
        assert_eq!(s.latency_ns, 5_000);
        assert!(!s.handed_over);
    }
}
