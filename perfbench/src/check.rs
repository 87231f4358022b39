//! Output checks.  The benchmark knows every operation in advance, so each
//! result is checked against the values the streams could have written and
//! the real-time order the driver stamped.  A YCSB-style lookup must return
//! a value written for its key by a write that had begun before the lookup
//! ended (values name their writer), or find the key absent only if nothing
//! had put it there before the lookup began.  Churn lookups and deletes, and
//! the final read-back, must observe the state of a write that was not
//! overwritten by a completed write before they began.
//!
//! "Strictly before" is exact on one thread (feed pull numbers) and uses
//! virtual time across threads, where two events at the same virtual instant
//! count as concurrent.

use crate::driver::{Lane, OpRecord, Outcome};
use crate::workload::{
    bulk_value, bulkload_bitmap, churn_value, decode_value, Scale, Workload, Writer,
};
use sherman::{Cluster, PipelineOp};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Failures kept verbatim (the rest are only counted).
const KEPT_FAILURES: usize = 20;

/// Whether a scan's entries are ascending, start at or after the start key,
/// fit the requested count, and each hold their key's churn value (scans
/// only occur in the churn workload).
pub fn range_ok(op: &PipelineOp, entries: &[(u64, u64)]) -> bool {
    let PipelineOp::Range { start_key, count } = *op else {
        return false;
    };
    entries.windows(2).all(|w| w[0].0 < w[1].0)
        && entries.len() <= count
        && entries.first().is_none_or(|&(k, _)| k >= start_key)
        && entries.iter().all(|&(k, v)| v == churn_value(k))
}

/// Findings of every check.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Number of failed checks.
    pub failures: u64,
    /// The first few failures, described.
    pub examples: Vec<String>,
    /// Lookups and scans checked.
    pub results_checked: u64,
    /// Keys read back after the run.
    pub keys_read_back: u64,
    /// Read-back keys whose final state two overlapping or aborted writes
    /// left open (either state is accepted).
    pub open_keys: u64,
}

impl CheckReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        self.failures += 1;
        if self.examples.len() < KEPT_FAILURES {
            self.examples.push(what);
        }
    }
}

/// A write's effect on its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Absent,
    Present(u64),
}

type Ref = (usize, usize);

/// Every write of every lane, indexed by key.
struct History<'a> {
    lanes: &'a [Lane],
    writes: HashMap<u64, Vec<Ref>>,
}

impl<'a> History<'a> {
    fn new(lanes: &'a [Lane]) -> Self {
        let mut writes: HashMap<u64, Vec<Ref>> = HashMap::new();
        for (t, lane) in lanes.iter().enumerate() {
            for (i, rec) in lane.records.iter().enumerate() {
                if let PipelineOp::Insert { key, .. } | PipelineOp::Delete { key } = rec.op {
                    writes.entry(key).or_default().push((t, i));
                }
            }
        }
        History { lanes, writes }
    }

    fn rec(&self, r: Ref) -> &OpRecord {
        &self.lanes[r.0].records[r.1]
    }

    /// Whether `a` finished before `b` began.
    fn before(&self, a: Ref, b: Ref) -> bool {
        let (ra, rb) = (self.rec(a), self.rec(b));
        if !ra.completed() {
            return false;
        }
        if a.0 == b.0 {
            ra.done_seq <= rb.admit_seq
        } else {
            ra.done_v < rb.admit_v
        }
    }

    fn writes_of(&self, key: u64) -> &[Ref] {
        self.writes.get(&key).map_or(&[], Vec::as_slice)
    }

    fn state_of(&self, w: Ref) -> State {
        match self.rec(w).op {
            PipelineOp::Insert { value, .. } => State::Present(value),
            _ => State::Absent,
        }
    }

    /// Whether read `r` of `key` may observe write `w`: `w` did not begin
    /// after the read ended, and no completed write of the key ran wholly
    /// between them.
    fn visible(&self, key: u64, w: Ref, r: Ref) -> bool {
        !self.before(r, w)
            && !self
                .writes_of(key)
                .iter()
                .any(|&w2| self.before(w, w2) && self.before(w2, r))
    }

    /// The states the final read-back may observe: those of the writes of
    /// `key` that no completed write began after.  Linear in the key's writes
    /// (hot keys of a skewed run carry thousands).
    fn final_candidates(&self, key: u64) -> Vec<State> {
        let writes = self.writes_of(key);
        // Latest admission of a completed write, per thread.
        let mut last_seq = vec![None; self.lanes.len()];
        let mut last_v = vec![None; self.lanes.len()];
        for &(t, i) in writes {
            let rec = &self.lanes[t].records[i];
            if rec.completed() {
                last_seq[t] = last_seq[t].max(Some(rec.admit_seq));
                last_v[t] = last_v[t].max(Some(rec.admit_v));
            }
        }
        writes
            .iter()
            .filter(|&&(t, i)| {
                let rec = &self.lanes[t].records[i];
                !rec.completed()
                    || (0..self.lanes.len()).all(|t2| {
                        if t2 == t {
                            last_seq[t2].is_none_or(|s| rec.done_seq > s)
                        } else {
                            last_v[t2].is_none_or(|v| rec.done_v >= v)
                        }
                    })
            })
            .map(|&w| self.state_of(w))
            .collect()
    }

    /// Whether the pre-run state of `key` is still visible to read `r`.
    fn initial_visible(&self, key: u64, r: Option<Ref>) -> bool {
        !self.writes_of(key).iter().any(|&w| match r {
            Some(r) => self.before(w, r),
            None => self.rec(w).completed(),
        })
    }

    /// The states read `r` (or the final read-back) may observe.
    fn allowed(&self, key: u64, initial: State, r: Option<Ref>) -> Vec<State> {
        let mut states: Vec<State> = match r {
            Some(r) => self
                .writes_of(key)
                .iter()
                .filter(|&&w| w != r && self.visible(key, w, r))
                .map(|&w| self.state_of(w))
                .collect(),
            None => self.final_candidates(key),
        };
        if self.initial_visible(key, r) {
            states.push(initial);
        }
        states.sort_by_key(|s| match s {
            State::Absent => (0, 0),
            State::Present(v) => (1, *v),
        });
        states.dedup();
        states
    }
}

/// The expected-state model of one run.
pub struct Model<'a> {
    workload: Workload,
    history: History<'a>,
    /// Bulkloaded keys (YCSB-style workloads).
    bulk: Vec<bool>,
}

impl<'a> Model<'a> {
    /// Build the model from the lanes' records.
    pub fn new(workload: Workload, scale: Scale, seed: u64, lanes: &'a [Lane]) -> Self {
        let bulk = workload
            .ycsb_spec(scale, seed)
            .map(|spec| bulkload_bitmap(&spec))
            .unwrap_or_default();
        Model {
            workload,
            history: History::new(lanes),
            bulk,
        }
    }

    fn initial(&self, key: u64) -> State {
        match self.bulk.get(key as usize) {
            Some(true) => State::Present(bulk_value(key)),
            _ => State::Absent,
        }
    }

    /// Check every lookup, scan and delete the lanes completed.
    pub fn check_results(&self, report: &mut CheckReport) {
        for (t, lane) in self.history.lanes.iter().enumerate() {
            for (i, rec) in lane.records.iter().enumerate() {
                match (rec.op, rec.outcome) {
                    (PipelineOp::Lookup { key }, Outcome::Lookup(value)) => {
                        report.results_checked += 1;
                        if !self.lookup_ok(key, value, (t, i)) {
                            report.fail(format!(
                                "thread {t} op {i}: lookup({key}) returned {value:?}"
                            ));
                        }
                    }
                    (PipelineOp::Range { start_key, .. }, Outcome::Range { ok }) => {
                        report.results_checked += 1;
                        if !ok {
                            report.fail(format!(
                                "thread {t} op {i}: scan from {start_key} returned bad entries"
                            ));
                        }
                    }
                    (PipelineOp::Delete { key }, Outcome::Delete(found)) => {
                        // A delete reads its key's state: it must find the
                        // key exactly when the history allows it to.  Deletes
                        // occur only in churn, whose inserts all write
                        // `churn_value`.
                        let seen = match found {
                            true => State::Present(churn_value(key)),
                            false => State::Absent,
                        };
                        report.results_checked += 1;
                        if !self
                            .history
                            .allowed(key, self.initial(key), Some((t, i)))
                            .contains(&seen)
                        {
                            report.fail(format!(
                                "thread {t} op {i}: delete({key}) returned found = {found}"
                            ));
                        }
                    }
                    (PipelineOp::Insert { .. }, Outcome::Insert) | (_, Outcome::Unknown) => {}
                    (op, outcome) => report.fail(format!(
                        "thread {t} op {i}: {op:?} returned a {outcome:?} result"
                    )),
                }
            }
        }
    }

    fn lookup_ok(&self, key: u64, value: Option<u64>, r: Ref) -> bool {
        match self.workload {
            Workload::Churn => {
                let seen = match value {
                    Some(v) if v == churn_value(key) => State::Present(v),
                    Some(_) => return false,
                    None => State::Absent,
                };
                self.history
                    .allowed(key, self.initial(key), Some(r))
                    .contains(&seen)
            }
            // Values name their writer, so only that write needs checking.
            Workload::WriteHot | Workload::LookupCold => match value {
                None => {
                    self.initial(key) == State::Absent && self.history.initial_visible(key, Some(r))
                }
                Some(v) => match decode_value(v) {
                    Some((k, Writer::Bulkload)) => k == key && self.bulk[key as usize],
                    Some((k, Writer::Op { thread, index })) => {
                        let Some(w) = self
                            .history
                            .lanes
                            .get(thread)
                            .and_then(|l| l.records.get(index as usize))
                        else {
                            return false;
                        };
                        k == key
                            && w.op == (PipelineOp::Insert { key, value: v })
                            && !self.history.before(r, (thread, index as usize))
                    }
                    None => false,
                },
            },
        }
    }

    /// Keys whose final state the read-back verifies: every key a write
    /// touched, plus (for YCSB-style workloads) every 64th bulkloaded key.
    fn read_back_keys(&self) -> BTreeSet<u64> {
        let mut keys: BTreeSet<u64> = self.history.writes.keys().copied().collect();
        keys.extend(
            self.bulk
                .iter()
                .enumerate()
                .filter(|&(k, &b)| b && k % 64 == 0)
                .map(|(k, _)| k as u64),
        );
        keys
    }

    /// After the run has quiesced: read every verified key back through each
    /// compute server (point lookups, plus a full scan for churn) and compare
    /// with the states the history allows.
    pub fn check_final(&self, cluster: &Arc<Cluster>, report: &mut CheckReport) {
        let keys = self.read_back_keys();
        let allowed: Vec<(u64, Vec<State>)> = keys
            .iter()
            .map(|&k| (k, self.history.allowed(k, self.initial(k), None)))
            .collect();
        report.open_keys += allowed.iter().filter(|(_, s)| s.len() > 1).count() as u64;
        for cs in 0..cluster.fabric().compute_servers() as u16 {
            let mut client = cluster.client(cs);
            for (key, states) in &allowed {
                report.keys_read_back += 1;
                let seen = match client.lookup(*key) {
                    Ok((Some(v), _)) => State::Present(v),
                    Ok((None, _)) => State::Absent,
                    Err(e) => {
                        report.fail(format!("cs {cs}: read-back lookup({key}) failed: {e}"));
                        continue;
                    }
                };
                if !states.contains(&seen) {
                    report.fail(format!(
                        "cs {cs}: key {key} reads back {seen:?}, allowed {states:?}"
                    ));
                }
            }
            if self.workload == Workload::Churn {
                self.check_scan(&mut client, cs, &allowed, report);
            }
        }
    }

    /// Churn: a scan of the whole key space returns exactly the live keys.
    fn check_scan(
        &self,
        client: &mut sherman::TreeClient,
        cs: u16,
        allowed: &[(u64, Vec<State>)],
        report: &mut CheckReport,
    ) {
        let max_key = allowed.last().map_or(0, |(k, _)| *k);
        let entries = match client.range(0, max_key as usize + 1) {
            Ok((entries, _)) => entries,
            Err(e) => {
                report.fail(format!("cs {cs}: read-back scan failed: {e}"));
                return;
            }
        };
        let present: HashMap<u64, u64> = entries.iter().copied().collect();
        if present.len() != entries.len() {
            report.fail(format!("cs {cs}: read-back scan returned a key twice"));
        }
        for (key, states) in allowed {
            let seen = present
                .get(key)
                .map_or(State::Absent, |&v| State::Present(v));
            if !states.contains(&seen) {
                report.fail(format!(
                    "cs {cs}: scan shows key {key} as {seen:?}, allowed {states:?}"
                ));
            }
        }
        let known: BTreeSet<u64> = allowed.iter().map(|(k, _)| *k).collect();
        if let Some((k, _)) = entries.iter().find(|(k, _)| !known.contains(k)) {
            report.fail(format!("cs {cs}: scan returned key {k}, which no op wrote"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_ok_checks_order_start_count_and_values() {
        let op = PipelineOp::Range {
            start_key: 10,
            count: 3,
        };
        let good = [(10, churn_value(10)), (12, churn_value(12))];
        assert!(range_ok(&op, &good));
        let unsorted = [(12, churn_value(12)), (10, churn_value(10))];
        assert!(!range_ok(&op, &unsorted));
        let early = [(9, churn_value(9))];
        assert!(!range_ok(&op, &early));
        let wrong = [(10, churn_value(10) + 1)];
        assert!(!range_ok(&op, &wrong));
        let long = [
            (10, churn_value(10)),
            (11, churn_value(11)),
            (12, churn_value(12)),
            (13, churn_value(13)),
        ];
        assert!(!range_ok(&op, &long));
    }
}
