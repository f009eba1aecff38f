//! Two-tier memoization store shared by all workers.
//!
//! Tier 1 — **stage cache**: keyed on [`triphase_core::stage_key`]
//! (fingerprint of the stage's *input* netlist plus exactly the config
//! fields that stage reads). An edited netlist resubmission therefore
//! replays cached results up to the first divergent stage and only
//! recomputes from there; an untouched prefix is bit-exact because the
//! cached [`StageData`] *is* the value the fresh computation would have
//! produced (the flow is deterministic given seed).
//!
//! Tier 2 — **report cache**: keyed on [`report_key`], the whole-flow
//! fingerprint extended with the fields the flow fingerprint
//! deliberately ignores (check policies, equivalence depth, simulation
//! backend). An identical resubmission skips the flow entirely —
//! including the three variant evaluations the stage cache cannot
//! cover — which is what makes a warm-cache resubmission an order of
//! magnitude faster than a cold run.
//!
//! Both tiers are **LRU with byte accounting**: every entry carries an
//! approximate footprint ([`stage_data_bytes`] / [`report_bytes`],
//! dominated by the netlists it holds), a lookup hit refreshes recency,
//! and an insert evicts cold entries until both the entry-count
//! capacity and the byte budget hold. Eviction counts are exported in
//! [`TierStats`] and surfaced as provenance in `stage` events, so a
//! client can see when its own insert pushed older work out.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use triphase_core::{FlowConfig, FlowReport, Stage, StageData, StageMemo};
use triphase_fault::fnv1a64;
use triphase_netlist::Netlist;

/// Whole-report cache key: the flow fingerprint (netlist + every
/// result-shaping config field) extended with the knobs the fingerprint
/// excludes because they only *check* rather than shape the netlist —
/// they still shape the `FlowReport`, so the report cache must key on
/// them.
pub fn report_key(nl: &Netlist, cfg: &FlowConfig) -> u64 {
    let base = triphase_core::flow_fingerprint(nl, cfg);
    let mut s = format!("report {base:016x} ");
    use std::fmt::Write;
    let _ = write!(
        s,
        "lint {:?} equiv {:?} dfa {:?} cycles {} backend {}",
        cfg.lint,
        cfg.equiv,
        cfg.dfa,
        cfg.equiv_cycles,
        cfg.sim_backend.label()
    );
    fnv1a64(s.as_bytes())
}

fn netlist_bytes(nl: &Netlist) -> usize {
    // A cell with its pins/nets costs on the order of 100 bytes in the
    // arena representation; the constant covers ports/clock/name.
    1024 + nl.stats().cells * 112
}

/// Approximate in-memory footprint of one stage-cache entry.
pub fn stage_data_bytes(data: &StageData) -> usize {
    match data {
        StageData::Preprocess(nl, _) => 64 + netlist_bytes(nl),
        StageData::Convert { netlist, .. } => 128 + netlist_bytes(netlist),
        StageData::Retime(nl, _) => 96 + netlist_bytes(nl),
        StageData::ClockGate(nl, _, _) => 96 + netlist_bytes(nl),
    }
}

/// Approximate in-memory footprint of one report-cache entry (the three
/// evaluated variant netlists dominate).
pub fn report_bytes(report: &FlowReport) -> usize {
    2048 + netlist_bytes(&report.ff.netlist)
        + netlist_bytes(&report.ms.netlist)
        + netlist_bytes(&report.three_phase.netlist)
}

/// Hit/miss/eviction counters for one cache tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Approximate bytes currently held.
    pub bytes: usize,
    /// Entries evicted since startup (capacity or byte-budget pressure).
    pub evictions: u64,
}

struct Tier<V> {
    map: HashMap<u64, (V, usize)>,
    /// Recency order: front = coldest, back = hottest.
    order: VecDeque<u64>,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> Default for Tier<V> {
    fn default() -> Self {
        Tier {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<V: Clone> Tier<V> {
    fn touch(&mut self, key: u64) {
        if let Some(i) = self.order.iter().position(|&k| k == key) {
            self.order.remove(i);
            self.order.push_back(key);
        }
    }

    fn get(&mut self, key: u64) -> Option<V> {
        let v = self.map.get(&key).map(|(v, _)| v.clone());
        if v.is_some() {
            self.hits += 1;
            self.touch(key);
        } else {
            self.misses += 1;
        }
        v
    }

    /// Insert and evict LRU entries until both bounds hold; returns how
    /// many entries were evicted by this insert.
    fn put(&mut self, key: u64, value: V, size: usize, capacity: usize, budget: usize) -> u64 {
        match self.map.insert(key, (value, size)) {
            None => {
                self.order.push_back(key);
                self.bytes += size;
            }
            Some((_, old_size)) => {
                self.bytes = self.bytes - old_size + size;
                self.touch(key);
            }
        }
        let mut evicted = 0;
        // Never evict the entry just inserted, even if it alone exceeds
        // the byte budget — a cache that refuses oversized-but-real work
        // would silently disable memoization for large designs.
        while self.order.len() > 1 && (self.order.len() > capacity || self.bytes > budget) {
            if let Some(old) = self.order.pop_front() {
                if let Some((_, sz)) = self.map.remove(&old) {
                    self.bytes -= sz;
                    evicted += 1;
                }
            }
        }
        self.evictions += evicted;
        evicted
    }

    fn stats(&self) -> TierStats {
        TierStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            bytes: self.bytes,
            evictions: self.evictions,
        }
    }
}

struct Inner {
    stages: Tier<StageData>,
    reports: Tier<Arc<FlowReport>>,
}

/// The shared store. Cheap to clone ([`Arc`] inside); implements
/// [`StageMemo`] so it can be handed straight to
/// [`triphase_core::run_flow_memo`].
#[derive(Clone)]
pub struct MemoStore {
    inner: Arc<Mutex<Inner>>,
    capacity: usize,
    byte_budget: usize,
}

impl MemoStore {
    /// Create a store holding at most `capacity` entries per tier, with
    /// the default half-GiB byte budget per tier.
    pub fn new(capacity: usize) -> MemoStore {
        MemoStore::bounded(capacity, 512 << 20)
    }

    /// Create a store bounded by both `capacity` entries and
    /// `byte_budget` approximate bytes per tier (LRU eviction enforces
    /// whichever bound is hit first).
    pub fn bounded(capacity: usize, byte_budget: usize) -> MemoStore {
        MemoStore {
            inner: Arc::new(Mutex::new(Inner {
                stages: Tier::default(),
                reports: Tier::default(),
            })),
            capacity: capacity.max(1),
            byte_budget: byte_budget.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned lock only means another worker panicked mid-insert;
        // the map itself is never left in a torn state by Tier's methods.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a whole cached report.
    pub fn get_report(&self, key: u64) -> Option<Arc<FlowReport>> {
        self.lock().reports.get(key)
    }

    /// Record a finished report; returns entries evicted by the insert.
    pub fn put_report(&self, key: u64, report: Arc<FlowReport>) -> u64 {
        let size = report_bytes(&report);
        let (capacity, budget) = (self.capacity, self.byte_budget);
        self.lock().reports.put(key, report, size, capacity, budget)
    }

    /// Seed a stage entry during journal replay: identical to
    /// [`StageMemo::record`] (same eviction policy) but exists so replay
    /// call sites read as what they are — warming, not recomputing.
    pub fn seed_stage(&self, key: u64, data: StageData) {
        let size = stage_data_bytes(&data);
        let (capacity, budget) = (self.capacity, self.byte_budget);
        self.lock().stages.put(key, data, size, capacity, budget);
    }

    /// Current counters: (stage tier, report tier).
    pub fn stats(&self) -> (TierStats, TierStats) {
        let inner = self.lock();
        (inner.stages.stats(), inner.reports.stats())
    }
}

impl StageMemo for MemoStore {
    fn lookup(&self, _stage: Stage, key: u64) -> Option<StageData> {
        self.lock().stages.get(key)
    }

    fn record(&self, _stage: Stage, key: u64, data: &StageData) -> triphase_core::Result<()> {
        let size = stage_data_bytes(data);
        let (capacity, budget) = (self.capacity, self.byte_budget);
        self.lock()
            .stages
            .put(key, data.clone(), size, capacity, budget);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triphase_core::{DfaPolicy, LintPolicy};

    #[test]
    fn report_key_sees_policy_fields_the_flow_fingerprint_ignores() {
        let nl = Netlist::new("k");
        let base = FlowConfig::default();
        let lint = FlowConfig {
            lint: LintPolicy::Deny,
            ..base.clone()
        };
        let dfa = FlowConfig {
            dfa: DfaPolicy::Off,
            ..base.clone()
        };
        let cycles = FlowConfig {
            equiv_cycles: base.equiv_cycles + 1,
            ..base.clone()
        };
        assert_eq!(
            triphase_core::flow_fingerprint(&nl, &base),
            triphase_core::flow_fingerprint(&nl, &lint),
            "precondition: flow fingerprint ignores lint policy"
        );
        let k0 = report_key(&nl, &base);
        assert_ne!(k0, report_key(&nl, &lint));
        assert_ne!(k0, report_key(&nl, &dfa));
        assert_ne!(k0, report_key(&nl, &cycles));
        assert_eq!(k0, report_key(&nl, &base.clone()));
    }

    #[test]
    fn tier_evicts_least_recently_used_not_oldest_inserted() {
        let mut t: Tier<u32> = Tier::default();
        t.put(0, 0, 1, 3, usize::MAX);
        t.put(1, 1, 1, 3, usize::MAX);
        t.put(2, 2, 1, 3, usize::MAX);
        // Refresh 0 — it is now the hottest despite being oldest.
        assert_eq!(t.get(0), Some(0));
        let evicted = t.put(3, 3, 1, 3, usize::MAX);
        assert_eq!(evicted, 1);
        assert_eq!(t.get(1), None, "LRU victim was 1, not 0");
        assert_eq!(t.get(0), Some(0));
        let s = t.stats();
        assert_eq!((s.entries, s.evictions), (3, 1));
    }

    #[test]
    fn tier_honors_byte_budget_and_never_evicts_the_fresh_entry() {
        let mut t: Tier<u32> = Tier::default();
        t.put(1, 1, 40, 100, 100);
        t.put(2, 2, 40, 100, 100);
        // 40+40+40 > 100: inserting 3 evicts the coldest (1).
        let evicted = t.put(3, 3, 40, 100, 100);
        assert_eq!(evicted, 1);
        assert_eq!(t.stats().bytes, 80);
        // An entry bigger than the whole budget still lands (and evicts
        // everything else).
        let evicted = t.put(4, 4, 500, 100, 100);
        assert_eq!(evicted, 2);
        assert_eq!(t.get(4), Some(4));
        assert_eq!(t.stats().entries, 1);
    }

    #[test]
    fn stats_track_bytes_through_replacement() {
        let mut t: Tier<u32> = Tier::default();
        t.put(7, 1, 30, 10, usize::MAX);
        t.put(7, 2, 50, 10, usize::MAX);
        let s = t.stats();
        assert_eq!((s.entries, s.bytes), (1, 50));
    }
}
