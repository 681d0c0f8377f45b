//! Keyed memoization for the query service.
//!
//! A long-running what-if service answers thousands of concurrent queries
//! that share the same placement math. [`MemoCache`]/[`RecoveryMemo`] is
//! a bounded, keyed memo table with hit/miss telemetry. The flagship user
//! is the placement recoverability curve: `(strategy, N, m, k) →
//! P(recovery | k)` is a pure function (the [`analytic`] kernel),
//! identical for every query that shares a placement spec, and far too
//! expensive to recompute per tenant at fleet scale. The service's answer
//! memo is another: whole responses keyed by canonical query.
//!
//! A curve the memo does not hold yet shares work too. Algorithm 1's
//! shape starts with `G` all-to-all groups of `m` machines, so every fleet
//! size with the same `m` multiplies out the same powers `P_m^g` of one
//! group polynomial first. [`RecoveryMemo`] stores one such power every
//! [`POWER_STRIDE`] groups; a cold curve resumes from the stored power at
//! or below `G` and convolves fewer than [`POWER_STRIDE`] groups more
//! before the ring tail.
//!
//! Determinism: the memo returns exactly what the underlying kernel
//! returns. Only the cost (and the `service.*` counters) depend on
//! sharing.
//!
//! [`analytic`]: crate::placement::analytic

use crate::error::GeminiError;
use crate::placement::analytic::{group_polynomial, TruncatedProduct};
use crate::placement::{GroupKind, GroupRun, Placement, PlacementStrategy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A bounded, thread-safe memo table keyed by `K` with hit/miss counters.
///
/// At the capacity bound, new results are still computed and returned but
/// no longer inserted — memory stays bounded and values never change,
/// only the hit rate degrades. (Values must be pure functions of their
/// key or the memo would break determinism.)
pub struct MemoCache<K: Ord + Clone, V: Clone> {
    entries: Mutex<BTreeMap<K, V>>,
    cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Ord + Clone, V: Clone> MemoCache<K, V> {
    /// An empty memo admitting at most `cap` entries.
    pub fn new(cap: usize) -> MemoCache<K, V> {
        MemoCache {
            entries: Mutex::new(BTreeMap::new()),
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the memoized value for `key`, computing and (capacity
    /// permitting) inserting it on a miss.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: K, compute: F) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        // Compute outside the lock: a slow kernel must not serialize every
        // other tenant's cache hits. (Racing misses may compute twice; the
        // single-flight layer above this dedups when that matters.)
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// The memoized value for `key`, counted as a hit, or `None`, counted
    /// as a miss. A caller that misses computes the value itself and may
    /// [`insert`](MemoCache::insert) it.
    pub fn get(&self, key: &K) -> Option<V> {
        let found = self
            .entries
            .lock()
            .expect("memo cache poisoned")
            .get(key)
            .cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Memoizes `value` for `key`, capacity permitting. `value` must be
    /// the pure function of `key` that every other caller would compute.
    pub fn insert(&self, key: K, value: V) {
        let mut entries = self.entries.lock().expect("memo cache poisoned");
        if entries.len() < self.cap || entries.contains_key(&key) {
            entries.insert(key, value);
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over total lookups (0.0 when nothing was looked up yet).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of memoized entries (bounded by the cap).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("memo cache poisoned").len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Canonical memo key for a placement spec: the recoverability curve is a
/// pure function of `(strategy, N, m)` — group membership is derived
/// deterministically and the analytic kernel is label-invariant — so two
/// tenants asking about the same spec share one cache line per `k`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct PlacementSpecKey {
    /// Placement strategy.
    pub strategy: PlacementStrategy,
    /// Number of machines `N`.
    pub machines: usize,
    /// Replication factor `m`.
    pub replicas: usize,
}

impl PlacementSpecKey {
    /// The canonical key of an existing placement.
    pub fn of(placement: &Placement) -> PlacementSpecKey {
        PlacementSpecKey {
            strategy: placement.strategy(),
            machines: placement.machines(),
            replicas: placement.replicas(),
        }
    }

    /// The key of `Placement::mixed(machines, replicas)` without building
    /// it: O(1), and the same error for the same invalid spec.
    pub fn mixed(machines: usize, replicas: usize) -> Result<PlacementSpecKey, GeminiError> {
        Ok(PlacementSpecKey {
            strategy: PlacementStrategy::of_mixed(machines, replicas)?,
            machines,
            replicas,
        })
    }

    /// The run-length group shape of the placement this key describes,
    /// without building it: the input of the analytic kernel.
    pub fn shape(&self) -> Vec<GroupRun> {
        self.strategy.shape(self.machines, self.replicas)
    }
}

/// Default bound on distinct `(placement spec, k)` memo entries; each
/// entry is a few dozen bytes, so the worst case is well under a MiB.
pub const RECOVERY_MEMO_CAP: usize = 16_384;

/// Groups between two stored powers of a group polynomial: a cold curve
/// convolves fewer than this many all-to-all groups past a stored power.
pub const POWER_STRIDE: usize = 64;

/// Bound on the coefficients all stored powers hold together (8 bytes
/// each, so 512 KiB). Past it, powers are computed but no longer stored.
pub const POWER_TABLE_COEFFS: usize = 1 << 16;

/// Stored powers of the all-to-all polynomial of one group size.
struct PowerTable {
    /// Truncation degree of every stored power: the deepest `max_k` asked
    /// so far. A deeper question rebuilds the table.
    depth: usize,
    /// `powers[i]` holds the possibly-nonzero coefficients of the product
    /// of `(i + 1) · POWER_STRIDE` groups.
    powers: Vec<Vec<f64>>,
}

impl PowerTable {
    fn coefficients(&self) -> usize {
        self.powers.iter().map(Vec::len).sum()
    }
}

/// The stored powers of every group size, and their coefficient total.
#[derive(Default)]
struct PowerTables {
    by_size: BTreeMap<usize, PowerTable>,
    stored: usize,
}

/// The placement-recoverability memo: `(placement spec, k) →
/// P(recovery | k failures)` over the exact analytic kernel, shared by
/// every query evaluating the same placement spec, plus the stored group
/// powers that make a cold curve cheap.
pub struct RecoveryMemo {
    cache: MemoCache<(PlacementSpecKey, usize), f64>,
    powers: Mutex<PowerTables>,
    cells: AtomicU64,
}

impl Default for RecoveryMemo {
    fn default() -> Self {
        RecoveryMemo::new()
    }
}

impl RecoveryMemo {
    /// An empty memo with the default capacity bounds.
    pub fn new() -> RecoveryMemo {
        RecoveryMemo {
            cache: MemoCache::new(RECOVERY_MEMO_CAP),
            powers: Mutex::new(PowerTables::default()),
            cells: AtomicU64::new(0),
        }
    }

    /// `P(recovery | k failures)` for this placement, memoized by
    /// canonical spec. Bit-identical to calling
    /// [`analytic_recovery_probability`](crate::placement::analytic::analytic_recovery_probability)
    /// directly.
    pub fn probability(&self, placement: &Placement, k: usize) -> f64 {
        let key = PlacementSpecKey::of(placement);
        self.cache.get_or_insert_with((key, k), || {
            if k > key.machines {
                return 0.0;
            }
            self.kernel_curve(key.machines, &placement.shape(), key.replicas, k)[k]
        })
    }

    /// The whole curve `k = 0 ..= max_k` (each point memoized), with the
    /// shape taken from the placement's groups.
    pub fn curve(&self, placement: &Placement, max_k: usize) -> Vec<f64> {
        self.curve_of(PlacementSpecKey::of(placement), &placement.shape(), max_k)
    }

    /// [`RecoveryMemo::curve`] for the placement spec `key`, from the key
    /// alone: a missing point never builds the O(N) placement.
    pub fn spec_curve(&self, key: PlacementSpecKey, max_k: usize) -> Vec<f64> {
        self.curve_of(key, &key.shape(), max_k)
    }

    /// Looks up every point (one hit or miss each) and fills the missing
    /// ones from one kernel pass up to the deepest of them.
    fn curve_of(&self, key: PlacementSpecKey, shape: &[GroupRun], max_k: usize) -> Vec<f64> {
        let mut curve: Vec<Option<f64>> = (0..=max_k).map(|k| self.cache.get(&(key, k))).collect();
        if let Some(deepest) = curve.iter().rposition(Option::is_none) {
            let fresh = self.kernel_curve(key.machines, shape, key.replicas, deepest);
            for (k, p) in fresh.into_iter().enumerate() {
                if curve[k].is_none() {
                    self.cache.insert((key, k), p);
                    curve[k] = Some(p);
                }
            }
        }
        curve.into_iter().flatten().collect()
    }

    /// [`recovery_curve`](crate::placement::analytic::recovery_curve) of
    /// `shape`, bit for bit, with a leading run of all-to-all groups
    /// resumed from the stored powers.
    fn kernel_curve(
        &self,
        machines: usize,
        shape: &[GroupRun],
        replicas: usize,
        max_k: usize,
    ) -> Vec<f64> {
        let (mut product, tail) = match shape.split_first() {
            Some((run, tail)) if run.kind == GroupKind::Group => {
                (self.group_powers(run.size, run.count, max_k), tail)
            }
            _ => (TruncatedProduct::new(&[1.0], max_k), shape),
        };
        product.apply_runs(tail, replicas);
        let (curve, cells) = product.into_curve(machines);
        self.cells.fetch_add(cells, Ordering::Relaxed);
        curve
    }

    /// The product of `groups` all-to-all groups of `size` machines,
    /// truncated at `max_k`. It resumes from the last stored power at or
    /// below `groups` and stores, capacity permitting, the powers it
    /// passes beyond the table's end. Those are computed at the table's
    /// depth; a table shallower than `max_k` is rebuilt at `max_k`. The
    /// lock is held to read and to publish, never while convolving.
    fn group_powers(&self, size: usize, groups: usize, max_k: usize) -> TruncatedProduct {
        let (depth, start, resume, mut room) = {
            let tables = self.powers.lock().expect("power tables poisoned");
            let room = POWER_TABLE_COEFFS - tables.stored;
            match tables.by_size.get(&size) {
                Some(table) if table.depth >= max_k => {
                    let start = table.powers.len().min(groups / POWER_STRIDE);
                    let resume = start.checked_sub(1).map(|i| table.powers[i].clone());
                    (table.depth, start, resume, room)
                }
                shallower => (
                    max_k,
                    0,
                    None,
                    room + shallower.map_or(0, PowerTable::coefficients),
                ),
            }
        };
        let mut product = TruncatedProduct::new(resume.as_deref().unwrap_or(&[1.0]), depth);
        let poly = group_polynomial(GroupKind::Group, size, size, depth);
        let mut done = start * POWER_STRIDE;
        let mut fresh: Vec<Vec<f64>> = Vec::new();
        while done + POWER_STRIDE <= groups {
            product.apply(&poly, POWER_STRIDE);
            done += POWER_STRIDE;
            let power = product.coefficients();
            if power.len() > room {
                break;
            }
            room -= power.len();
            fresh.push(power.to_vec());
        }
        product.truncate(max_k);
        product.apply(&poly, groups - done);
        if !fresh.is_empty() {
            self.publish(size, depth, start, fresh);
        }
        product
    }

    /// Appends `fresh`, the powers from index `start` on at `depth`, to the
    /// table of `size`, replacing a shallower table; a deeper table or one
    /// that another caller extended meanwhile keeps what it has.
    fn publish(&self, size: usize, depth: usize, start: usize, fresh: Vec<Vec<f64>>) {
        let mut tables = self.powers.lock().expect("power tables poisoned");
        let PowerTables { by_size, stored } = &mut *tables;
        let table = by_size.entry(size).or_insert_with(|| PowerTable {
            depth,
            powers: Vec::new(),
        });
        if table.depth < depth {
            *stored -= table.coefficients();
            table.depth = depth;
            table.powers.clear();
        }
        if table.depth != depth {
            return;
        }
        // Powers only ever grow at one depth, so the table still holds the
        // `start` powers this caller resumed after.
        let known = table.powers.len() - start;
        for power in fresh.into_iter().skip(known) {
            if *stored + power.len() > POWER_TABLE_COEFFS {
                break;
            }
            *stored += power.len();
            table.powers.push(power);
        }
    }

    /// Multiply-adds the kernel has spent on this memo's misses, stored
    /// powers included.
    pub fn cells(&self) -> u64 {
        self.cells.load(Ordering::Relaxed)
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Hits over total lookups.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::analytic::{analytic_recovery_probability, recovery_curve};

    #[test]
    fn memo_counts_hits_and_misses() {
        let memo: MemoCache<u32, u64> = MemoCache::new(8);
        assert_eq!(memo.get_or_insert_with(1, || 10), 10);
        assert_eq!(memo.get_or_insert_with(1, || 99), 10, "hit returns memo");
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert!((memo.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memo_capacity_bounds_memory_not_correctness() {
        let memo: MemoCache<u32, u32> = MemoCache::new(4);
        for k in 0..100u32 {
            assert_eq!(memo.get_or_insert_with(k, move || k * 2), k * 2);
        }
        assert!(memo.len() <= 4, "len={} exceeds cap", memo.len());
        // Beyond-cap keys are recomputed, never wrong.
        assert_eq!(memo.get_or_insert_with(99, || 198), 198);
    }

    #[test]
    fn get_counts_and_insert_respects_the_cap() {
        let memo: MemoCache<u32, u32> = MemoCache::new(2);
        assert_eq!(memo.get(&1), None);
        for (k, v) in [(1, 10), (2, 20), (3, 30), (2, 20)] {
            memo.insert(k, v);
        }
        assert_eq!(memo.len(), 2, "a full memo admits no new key");
        assert_eq!((memo.get(&1), memo.get(&3)), (Some(10), None));
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    #[test]
    fn recovery_memo_matches_the_analytic_kernel_exactly() {
        let memo = RecoveryMemo::new();
        for (n, m) in [(8usize, 2usize), (12, 3), (16, 4)] {
            let p = Placement::mixed(n, m).unwrap();
            for k in 0..=m + 1 {
                let direct = analytic_recovery_probability(&p, k);
                let cold = memo.probability(&p, k);
                let warm = memo.probability(&p, k);
                assert_eq!(direct.to_bits(), cold.to_bits(), "N={n} m={m} k={k}");
                assert_eq!(cold.to_bits(), warm.to_bits());
            }
        }
        assert!(memo.hits() > 0 && memo.misses() > 0);
    }

    #[test]
    fn spec_key_of_mixed_matches_the_built_placement() {
        let sizes = (1..=200usize).chain([1000, 1001, 4096, 9999, 10000]);
        for n in sizes {
            for m in 1..=9 {
                let key = PlacementSpecKey::mixed(n, m);
                match Placement::mixed(n, m) {
                    Ok(built) => {
                        assert_eq!(key, Ok(PlacementSpecKey::of(&built)), "N={n} m={m}");
                        assert_eq!(key.unwrap().shape(), built.shape(), "N={n} m={m}");
                    }
                    Err(e) => assert_eq!(key, Err(e), "N={n} m={m}"),
                }
            }
        }
        assert!(PlacementSpecKey::mixed(0, 1).is_err());
        assert!(PlacementSpecKey::mixed(4, 0).is_err());
    }

    #[test]
    fn a_longer_curve_extends_a_shorter_one_and_counts_one_lookup_per_point() {
        let memo = RecoveryMemo::new();
        let key = PlacementSpecKey::mixed(10, 3).unwrap();
        let cold = memo.spec_curve(key, 4);
        assert_eq!((memo.hits(), memo.misses()), (0, 5));
        let placement = Placement::mixed(10, 3).unwrap();
        for (k, p) in cold.iter().enumerate() {
            let direct = analytic_recovery_probability(&placement, k);
            assert_eq!(p.to_bits(), direct.to_bits(), "k={k}");
        }
        assert_eq!(memo.spec_curve(key, 4), cold);
        assert_eq!((memo.hits(), memo.misses()), (5, 5));
        let longer = memo.spec_curve(key, 6);
        assert_eq!((memo.hits(), memo.misses()), (10, 7));
        assert!(longer[..5]
            .iter()
            .zip(&cold)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let fresh = RecoveryMemo::new().curve(&placement, 6);
        assert!(longer
            .iter()
            .zip(&fresh)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        // The placement form shares the spec form's points.
        assert_eq!(memo.curve(&placement, 6), longer);
        assert_eq!((memo.hits(), memo.misses()), (17, 7));
    }

    /// The memo's curve for `(n, m)` against a fresh product, bit for bit.
    fn assert_kernel_curve(memo: &RecoveryMemo, n: usize, m: usize, max_k: usize) {
        let key = PlacementSpecKey::mixed(n, m).unwrap();
        let (want, _) = recovery_curve(&key.shape(), m, max_k);
        let got = memo.spec_curve(key, max_k);
        assert_eq!(got.len(), want.len());
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "N={n} m={m} max_k={max_k} k={k}");
        }
    }

    fn table(memo: &RecoveryMemo, size: usize) -> (usize, usize) {
        let tables = memo.powers.lock().unwrap();
        let t = &tables.by_size[&size];
        (t.depth, t.powers.len())
    }

    #[test]
    fn a_cold_curve_resumes_from_the_stored_powers() {
        let memo = RecoveryMemo::new();
        assert_kernel_curve(&memo, 10_000, 2, 7);
        let (_, fresh_cells) = recovery_curve(&PlacementStrategy::Group.shape(10_000, 2), 2, 7);
        assert_eq!(
            memo.cells(),
            fresh_cells,
            "the first curve stores as it goes"
        );
        assert_eq!(table(&memo, 2), (7, 5_000 / POWER_STRIDE));
        // 4 999 groups: the stored power of 4 992, then 7 convolutions.
        assert_kernel_curve(&memo, 9_998, 2, 7);
        let warm = memo.cells() - fresh_cells;
        assert!(warm <= 7 * 8 * 2, "warm curve spent {warm} cells");
        // A Mixed spec shares the Group run and adds its ring tail.
        assert_kernel_curve(&memo, 9_001, 2, 7);
        assert_eq!(table(&memo, 2), (7, 5_000 / POWER_STRIDE));
    }

    #[test]
    fn the_tables_extend_replay_and_rebuild_bit_for_bit() {
        let memo = RecoveryMemo::new();
        // Extension from nothing, then past the end, then a replay on a
        // shrinking fleet, all at depth 4.
        for n in [1_000, 9_000, 3_001, 200] {
            assert_kernel_curve(&memo, n, 3, 4);
        }
        assert_eq!(table(&memo, 3), (4, 3_000 / POWER_STRIDE));
        // A deeper question rebuilds the table at its depth.
        assert_kernel_curve(&memo, 5_000, 3, 9);
        assert_eq!(table(&memo, 3), (9, 1_666 / POWER_STRIDE));
        // Shallower questions resume from the deeper powers.
        for n in [4_000, 12_000, 7] {
            assert_kernel_curve(&memo, n, 3, 2);
        }
        assert_eq!(table(&memo, 3), (9, 4_000 / POWER_STRIDE));
        // A ring has no group run and stores nothing.
        let ring = PlacementSpecKey {
            strategy: PlacementStrategy::Ring,
            machines: 500,
            replicas: 3,
        };
        let (want, _) = recovery_curve(&ring.shape(), 3, 5);
        assert_eq!(memo.spec_curve(ring, 5), want);
    }

    #[test]
    fn stored_powers_stay_within_their_bound() {
        let memo = RecoveryMemo::new();
        for m in 1..=6 {
            assert_kernel_curve(&memo, 20_000 - 20_000 % m, m, 256);
        }
        let stored = memo.powers.lock().unwrap().stored;
        assert!(stored <= POWER_TABLE_COEFFS, "{stored} coefficients stored");
        assert!(
            stored + 257 > POWER_TABLE_COEFFS,
            "the bound was not reached"
        );
        // Past the bound the curves are computed, not stored, and exact.
        for m in 1..=6 {
            assert_kernel_curve(&memo, 19_999, m, 256);
        }
        assert_eq!(memo.powers.lock().unwrap().stored, stored);
    }

    #[test]
    fn recovery_memo_key_is_shared_across_equivalent_placements() {
        let memo = RecoveryMemo::new();
        let a = Placement::mixed(16, 4).unwrap();
        let b = Placement::mixed(16, 4).unwrap();
        let _ = memo.probability(&a, 2);
        let before = memo.misses();
        let _ = memo.probability(&b, 2);
        assert_eq!(memo.misses(), before, "equivalent spec must hit");
    }
}
