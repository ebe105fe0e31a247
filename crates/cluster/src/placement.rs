//! Deterministic stream placement across shards.
//!
//! Placement uses rendezvous (highest-random-weight) hashing: every
//! `(stream key, shard seed)` pair is mixed into a score and the
//! eligible shard with the highest score wins. The property that makes
//! rendezvous hashing the right tool for a cluster that drains and
//! loses shards is *minimal disruption*: removing one shard from the
//! eligible set changes the winner only for the streams that shard was
//! winning — every other stream's placement is untouched (a proptest
//! pins this).
//!
//! On top of the pure hash sits an optional least-loaded spill: when
//! the rendezvous winner is carrying at least `spill_load_gap` more
//! live streams than the runner-up, the runner-up is picked instead.
//! The spill reads only the load numbers passed in (fed from each
//! shard's metrics registry), so placement stays a pure function of
//! its inputs and campaigns replay identically.

pub use resilience::rng::mix64;

/// Stable 64-bit seed for a shard name (FNV-1a), so a shard keeps its
/// rendezvous identity across cluster restarts and membership changes.
#[must_use]
pub fn shard_seed(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One shard as the placement function sees it.
#[derive(Debug, Clone, Copy)]
pub struct ShardView {
    /// The shard's index in the cluster.
    pub index: usize,
    /// The shard's stable rendezvous seed (see [`shard_seed`]).
    pub seed: u64,
    /// Whether the shard accepts new placements (active, not draining
    /// or down).
    pub eligible: bool,
    /// Live streams currently on the shard (the spill signal).
    pub load: u64,
}

/// The placement policy: pure rendezvous hashing, optionally tempered
/// by a least-loaded spill between the top two candidates.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementPolicy {
    /// When `Some(gap)`, the rendezvous winner yields to the runner-up
    /// if it carries at least `gap` more live streams. `None` keeps
    /// placement a pure function of `(key, membership)` — the mode the
    /// stability property is stated for.
    pub spill_load_gap: Option<u64>,
}

impl PlacementPolicy {
    /// The rendezvous score of `key` on a shard.
    #[must_use]
    fn score(key: u64, seed: u64) -> u64 {
        mix64(seed ^ mix64(key))
    }

    /// Eligible shards in descending preference order for `key`:
    /// rendezvous score first (ties broken toward the lighter, then
    /// lower-indexed shard), with the spill rule applied to the top
    /// pair. Empty when no shard is eligible.
    #[must_use]
    pub fn ordered(&self, key: u64, shards: &[ShardView]) -> Vec<usize> {
        let mut ranked: Vec<&ShardView> = shards.iter().filter(|s| s.eligible).collect();
        ranked.sort_by_key(|s| (std::cmp::Reverse(Self::score(key, s.seed)), s.load, s.index));
        let mut order: Vec<usize> = ranked.iter().map(|s| s.index).collect();
        if let Some(gap) = self.spill_load_gap {
            if ranked.len() >= 2 && ranked[0].load >= ranked[1].load.saturating_add(gap) {
                order.swap(0, 1);
            }
        }
        order
    }

    /// The preferred shard for `key`, if any shard is eligible.
    #[must_use]
    pub fn place(&self, key: u64, shards: &[ShardView]) -> Option<usize> {
        self.ordered(key, shards).first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: usize) -> Vec<ShardView> {
        (0..n)
            .map(|i| ShardView {
                index: i,
                seed: shard_seed(&format!("shard{i}")),
                eligible: true,
                load: 0,
            })
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let p = PlacementPolicy::default();
        let v = views(5);
        for key in 0..200u64 {
            let a = p.place(key, &v);
            let b = p.place(key, &v);
            assert_eq!(a, b);
            assert!(a.is_some());
        }
    }

    #[test]
    fn removing_a_shard_only_remaps_its_own_keys() {
        let p = PlacementPolicy::default();
        let v = views(6);
        for removed in 0..6usize {
            let mut fewer = v.clone();
            fewer[removed].eligible = false;
            for key in 0..500u64 {
                let before = p.place(key, &v).unwrap();
                let after = p.place(key, &fewer).unwrap();
                if before != removed {
                    assert_eq!(
                        before, after,
                        "key {key} moved although shard {removed} lost"
                    );
                }
            }
        }
    }

    #[test]
    fn spill_diverts_only_under_heavy_imbalance() {
        let mut v = views(2);
        let key = 7u64;
        let pure = PlacementPolicy::default().place(key, &v).unwrap();
        let other = 1 - pure;
        let spilling = PlacementPolicy {
            spill_load_gap: Some(10),
        };
        assert_eq!(spilling.place(key, &v), Some(pure), "balanced: hash wins");
        v[pure].load = 9;
        assert_eq!(spilling.place(key, &v), Some(pure), "below the gap");
        v[pure].load = 10;
        assert_eq!(spilling.place(key, &v), Some(other), "at the gap: spill");
    }

    #[test]
    fn keys_spread_over_all_shards() {
        let p = PlacementPolicy::default();
        let v = views(4);
        let mut hit = [0u32; 4];
        for key in 0..400u64 {
            hit[p.place(key, &v).unwrap()] += 1;
        }
        assert!(hit.iter().all(|&h| h > 40), "gross imbalance: {hit:?}");
    }
}
