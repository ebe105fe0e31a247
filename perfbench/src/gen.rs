//! Seeded input helpers. Workload shares (how many frames per lane,
//! how long, how many high-priority streams) are drawn stratified
//! rather than independently, so every seed gets the same mix in a
//! different order and different seeds measure comparable work.

use picolfsr::resilience::SplitMix64;

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `n` values covering `lo..=hi` evenly: one uniform draw from each of
/// `n` equal strata, in random order.
pub fn stratified(rng: &mut SplitMix64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    let mut v: Vec<usize> = (0..n)
        .map(|i| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            lo + ((i as f64 + u) / n as f64 * width) as usize
        })
        .collect();
    shuffle(rng, &mut v);
    v
}

/// `n` flags, exactly `k` of them set, in random order.
pub fn exactly(rng: &mut SplitMix64, n: usize, k: usize) -> Vec<bool> {
    let mut v: Vec<bool> = (0..n).map(|i| i < k).collect();
    shuffle(rng, &mut v);
    v
}

/// `n` labels, as even a split over `labels` as `n` allows, in random
/// order.
pub fn even_split<T: Copy>(rng: &mut SplitMix64, n: usize, labels: &[T]) -> Vec<T> {
    let mut v: Vec<T> = (0..n).map(|i| labels[i % labels.len()]).collect();
    shuffle(rng, &mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_covers_the_range_evenly() {
        let mut rng = SplitMix64::new(3);
        let mut v = stratified(&mut rng, 100, 46, 1518);
        v.sort_unstable();
        let width = 1518 - 46 + 1;
        for (i, &x) in v.iter().enumerate() {
            assert!(x >= 46 + i * width / 100, "{i}: {x}");
            assert!(x <= 46 + (i + 1) * width / 100 && x <= 1518, "{i}: {x}");
        }
    }

    #[test]
    fn exactly_sets_k_flags() {
        let mut rng = SplitMix64::new(5);
        assert_eq!(exactly(&mut rng, 50, 15).iter().filter(|b| **b).count(), 15);
    }
}
