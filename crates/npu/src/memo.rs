//! The one memoization table behind every executor cache.
//!
//! Each cached value is a pure function of its key (the paper's Figure 4
//! observation: equal node signatures lower and simulate identically), so
//! a table only ever changes *how fast* an answer arrives. A disabled
//! table keeps the same call shape but holds no map: it runs the compute
//! closure on every call and counts nothing, which is how
//! [`crate::Npu::uncached`] becomes the cached code minus the map.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// `compute` runs outside the lock, so only a panic inside the map's own
/// operations can poison it.
const POISONED: &str = "memo table lock poisoned by a panic inside the map";

/// A thread-safe get-or-compute table with hit/miss counters.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    /// `None` when the table is disabled.
    map: Option<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Clone + Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty table; `enabled = false` builds the pass-through table.
    pub(crate) fn new(enabled: bool) -> Self {
        Memo {
            map: enabled.then(Mutex::default),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The value stored under `key`, computing and storing it on first
    /// sight. `compute` runs outside the lock: concurrent misses on one key
    /// may both compute, and the first insert wins (the values are equal
    /// anyway, since every cached value is a pure function of its key).
    pub(crate) fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> V {
        let Some(map) = &self.map else {
            return compute();
        };
        if let Some(hit) = map.lock().expect(POISONED).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = compute();
        let mut map = map.lock().expect(POISONED);
        map.entry(key.clone()).or_insert(fresh).clone()
    }

    /// Lookups answered from the table so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemm_sim::{GemmConfig, GemmUnit, GemmWorkload};
    use std::collections::HashSet;
    use tandem_compiler::{NodeSignature, OpLowering};
    use tandem_model::zoo;

    #[test]
    fn compiles_each_signature_once() {
        let g = zoo::resnet50();
        let lowering = OpLowering::new(32, 512);
        let memo = Memo::new(true);
        let mut computed = 0u64;
        let mut distinct = HashSet::new();
        for node in g.nodes() {
            let sig = NodeSignature::for_lowering(&lowering, &g, node);
            let cached = memo.get_or_compute(&sig, || {
                computed += 1;
                lowering.lower_node(&g, node)
            });
            assert_eq!(cached, lowering.lower_node(&g, node), "node {}", node.name);
            distinct.insert(sig);
        }
        assert_eq!(memo.hits() + memo.misses(), g.nodes().len() as u64);
        assert_eq!(memo.misses(), distinct.len() as u64);
        assert_eq!(computed, memo.misses(), "each key computes exactly once");
        assert!(memo.hits() > memo.misses(), "ResNet repeats its blocks");
    }

    #[test]
    fn gemm_reports_match_direct_evaluation() {
        let unit = GemmUnit::new(GemmConfig::paper());
        let memo = Memo::new(true);
        let workloads = [
            GemmWorkload::new(3136, 576, 64),
            GemmWorkload::new(196, 4608, 512),
            GemmWorkload::from_conv(56, 56, 64, 64, 3),
        ];
        let mut lookups = 0u64;
        let mut distinct = HashSet::new();
        for &w in &workloads {
            for m_tile in [w.m, 64, 16, w.m] {
                let r = memo.get_or_compute(&(w, m_tile), || unit.tile_report(w, m_tile));
                assert_eq!(r, unit.tile_report(w, m_tile));
                lookups += 1;
                distinct.insert((w, m_tile));
            }
            assert_eq!(
                memo.get_or_compute(&(w, w.m), || unreachable!("layer report is cached")),
                unit.layer_report(w)
            );
            lookups += 1;
        }
        assert_eq!(memo.hits() + memo.misses(), lookups);
        assert_eq!(memo.misses(), distinct.len() as u64);
    }

    #[test]
    fn disabled_table_computes_every_call_and_counts_nothing() {
        let memo: Memo<u32, u32> = Memo::new(false);
        let mut computed = 0;
        for _ in 0..3 {
            let v = memo.get_or_compute(&7, || {
                computed += 1;
                49
            });
            assert_eq!(v, 49);
        }
        assert_eq!(computed, 3);
        assert_eq!(memo.hits() + memo.misses(), 0);
    }
}
