//! Analytic (DP / transfer-matrix) recoverability kernel — exact recovery
//! probabilities at fleet scale, without enumeration.
//!
//! [`host_sets_recovery_probability`](super::probability::host_sets_recovery_probability)
//! walks all `C(N, k)` failure subsets with Gosper's hack: faithful, but
//! `C(50, 7) ≈ 1e8` already costs ~1 s and `C(10 000, 7) ≈ 2e24` is
//! intractable. Every placement Algorithm 1 can emit, however, is a
//! disjoint union of [`PlacementGroup`](super::PlacementGroup)s, and a
//! failure set is fatal iff *some group individually* loses one of its
//! replica host-sets — failures in one group can never combine with
//! failures in another to destroy a checkpoint. Recoverability therefore
//! factorizes over groups, and the count of safe `k`-subsets is a
//! coefficient in a product of small per-group polynomials:
//!
//! * For each group `g`, build `P_g(x) = Σ_t safe_g(t) · x^t`, where
//!   `safe_g(t)` counts the `t`-subsets of the group's members that cover
//!   no fatal host-set of that group.
//! * Multiply the polynomials, truncating at degree `max_k`: the
//!   coefficient of `x^k` in `Π_g P_g(x)` counts the safe `k`-subsets of
//!   the whole cluster, because groups partition the machines.
//! * Divide by `C(N, k)`.
//!
//! Truncation drops only coefficients above `max_k`, and each lower
//! coefficient is summed from the same products in the same order at any
//! truncation degree, so one product truncated at `max_k` holds the
//! whole curve `k = 0..=max_k`, bit for bit what a product truncated at
//! each `k` would give. The kernel needs only the placement's run-length
//! shape ([`GroupRun`]s): each run's polynomial is built once, and
//! Algorithm 1's shapes have at most two runs. Losing a whole group is
//! fatal for both kinds below, so a group polynomial stops at degree
//! `s − 1`; the dropped top coefficient is `0` and only ever added `+0.0`.
//!
//! The per-group counts are closed-form:
//!
//! * **Group kind** (all-to-all replication, fatal iff the whole group of
//!   size `s` fails): `safe(t) = C(s, t)` for `t < s`, and `0` at `t = s`.
//! * **Ring kind** (member at position `p` hosted by the `w = min(m, L)`
//!   consecutive members starting at `p`; fatal iff any `w` consecutive
//!   members all fail): `safe(t)` is the number of `t`-subsets of an
//!   `L`-cycle with no run of `w` consecutive chosen elements. Picking the
//!   `L − t` *unchosen* positions as separators, the chosen runs between
//!   them are a composition of `t` into `L − t` parts each `≤ w − 1`, and
//!   the cycle symmetry contributes the classic `L / (L − t)` transfer
//!   factor:
//!   `safe(t) = L/(L−t) · caps(L−t, t, w−1)` for `0 < t < L`, where
//!   `caps(g, t, c)` counts compositions of `t` into `g` parts bounded by
//!   `c`, by inclusion–exclusion over which parts overflow:
//!   `caps(g, t, c) = Σ_j (−1)^j C(g, j) C(t − j(c+1) + g − 1, g − 1)`.
//!
//! Complexity is per curve, not per point: `O(groups · max_k · m)`
//! multiply-adds for the convolution (the kernel returns the exact count)
//! plus `O(max_k²)` binomials per distinct ring polynomial — 74 951
//! multiply-adds at `N = 10 000, m = 2, max_k = 7`, versus an enumeration
//! that would outlive the universe. Every fleet size with the same `m`
//! starts with the same powers of one all-to-all group polynomial, so the
//! service's [`RecoveryMemo`](crate::RecoveryMemo) stores one power every
//! 64 groups and resumes from it with this loop (`TruncatedProduct`):
//! after the `N = 10 000` curve, the `N = 9 998` one costs 105
//! multiply-adds.
//!
//! **Exactness.** All intermediate values are nonnegative integers (the
//! inclusion–exclusion partial sums are integers too), and for `N ≤ 30`,
//! `k ≤ 7` every one of them is far below `2^53`, so `f64` arithmetic is
//! *exact* and the final division is the same `good / C(N, k)` the Gosper
//! kernel performs — the results agree **bit-for-bit**, which the
//! differential tests (unit, integration and proptest) assert across
//! mixed/group/ring strategies. Beyond `2^53` the kernel degrades to
//! ordinary f64 rounding (~1e-15 relative), still exact *method*, unlike
//! Monte-Carlo sampling.

use crate::placement::probability::binomial;
use crate::placement::{GroupKind, GroupRun, Placement};

/// Compositions of `t` into `parts` nonnegative parts each `≤ cap`,
/// by inclusion–exclusion over the parts that exceed `cap`.
fn bounded_compositions(parts: usize, t: usize, cap: usize) -> f64 {
    if parts == 0 {
        return if t == 0 { 1.0 } else { 0.0 };
    }
    let (g, t, c) = (parts as u64, t as u64, cap as u64);
    let mut acc = 0.0f64;
    let mut j = 0u64;
    let mut sign = 1.0f64;
    while j <= g && j * (c + 1) <= t {
        let rem = t - j * (c + 1);
        acc += sign * binomial(g, j) * binomial(rem + g - 1, g - 1);
        sign = -sign;
        j += 1;
    }
    acc
}

/// Number of `t`-subsets of an `L`-cycle containing no `window` (`≥ 1`)
/// consecutive chosen elements. `window` is clamped to `L` by the caller.
pub fn cycle_subsets_without_run(l: usize, t: usize, window: usize) -> f64 {
    debug_assert!(window >= 1 && window <= l);
    if t == 0 {
        return 1.0;
    }
    if t >= l {
        // Choosing the whole cycle always covers a window (window ≤ L).
        return 0.0;
    }
    let unchosen = l - t;
    // Multiply before dividing: L · caps is an exact integer divisible by
    // L − t, so the quotient is exact in f64 (L/(L−t) first would not be).
    l as f64 * bounded_compositions(unchosen, t, window - 1) / unchosen as f64
}

/// The safe-subset polynomial of one group of `size` machines exchanging
/// replicas as `kind`, truncated at degree `max_k`: coefficient `t` counts
/// the `t`-subsets of the group that destroy none of its replica
/// host-sets. Losing the whole group is always fatal, so the degree is at
/// most `size − 1`.
pub(crate) fn group_polynomial(
    kind: GroupKind,
    size: usize,
    replicas: usize,
    max_k: usize,
) -> Vec<f64> {
    let degrees = 0..=(size - 1).min(max_k);
    match kind {
        GroupKind::Group => degrees.map(|t| binomial(size as u64, t as u64)).collect(),
        GroupKind::Ring => {
            let window = replicas.min(size);
            degrees
                .map(|t| cycle_subsets_without_run(size, t, window))
                .collect()
        }
    }
}

/// Writes `a · b`, truncated at degree `out.len() − 1`, into `out` and
/// returns the multiply-adds performed. Each coefficient is summed in
/// order of `a`'s degree, skipping `a`'s zero coefficients, so its bits do
/// not depend on where the product is truncated.
pub(crate) fn convolve_truncated(a: &[f64], b: &[f64], out: &mut [f64]) -> u64 {
    let mut cells = 0u64;
    for (j, slot) in out.iter_mut().enumerate() {
        // Terms a[t]·b[j − t] with t ≤ j < t + |b|, accumulated in a
        // register: independent coefficients do not wait on each other.
        let lo = (j + 1).saturating_sub(b.len());
        let mut acc = 0.0f64;
        for (t, &c) in a.iter().enumerate().take(j + 1).skip(lo) {
            if c == 0.0 {
                continue;
            }
            acc += c * b[j - t];
            cells += 1;
        }
        *slot = acc;
    }
    cells
}

/// A product of group polynomials truncated at degree `max_k`, built one
/// group at a time on two reused buffers: the one convolution loop behind
/// [`recovery_curve`] and the recoverability memo's stored powers
/// ([`RecoveryMemo`](crate::RecoveryMemo)). Because coefficient `j` is
/// summed the same way at any truncation degree, a product resumed from a
/// deeper one's coefficients goes on bit for bit as if it had been
/// truncated at `max_k` from the start.
pub(crate) struct TruncatedProduct {
    conv: Vec<f64>,
    next: Vec<f64>,
    /// Highest possibly-nonzero degree so far.
    degree: usize,
    cells: u64,
}

impl TruncatedProduct {
    /// The product whose low coefficients are `coefficients` (`[1.0]` for
    /// the empty product), truncated at `max_k`.
    pub(crate) fn new(coefficients: &[f64], max_k: usize) -> TruncatedProduct {
        let mut conv = vec![0.0f64; max_k + 1];
        let kept = coefficients.len().min(max_k + 1);
        conv[..kept].copy_from_slice(&coefficients[..kept]);
        TruncatedProduct {
            next: vec![0.0f64; max_k + 1],
            conv,
            degree: kept.max(1) - 1,
            cells: 0,
        }
    }

    /// Multiplies `count` more groups with polynomial `poly` in.
    pub(crate) fn apply(&mut self, poly: &[f64], count: usize) {
        let max_k = self.conv.len() - 1;
        for _ in 0..count {
            self.cells += convolve_truncated(&self.conv[..=self.degree], poly, &mut self.next);
            std::mem::swap(&mut self.conv, &mut self.next);
            self.degree = (self.degree + poly.len() - 1).min(max_k);
        }
    }

    /// Multiplies in every group of `runs`, in order.
    pub(crate) fn apply_runs(&mut self, runs: &[GroupRun], replicas: usize) {
        let max_k = self.conv.len() - 1;
        for run in runs {
            self.apply(
                &group_polynomial(run.kind, run.size, replicas, max_k),
                run.count,
            );
        }
    }

    /// The possibly-nonzero coefficients, lowest degree first.
    pub(crate) fn coefficients(&self) -> &[f64] {
        &self.conv[..=self.degree]
    }

    /// Drops every coefficient above `max_k` (no deeper than now).
    pub(crate) fn truncate(&mut self, max_k: usize) {
        self.conv.truncate(max_k + 1);
        self.next.truncate(max_k + 1);
        self.degree = self.degree.min(max_k);
    }

    /// The product as `P(recovery | k failures)` over `machines` machines
    /// (coefficient `k` divided by `C(N, k)`), and the multiply-adds spent.
    pub(crate) fn into_curve(self, machines: usize) -> (Vec<f64>, u64) {
        let mut conv = self.conv;
        // Counts above degree N stay 0: losing every machine is fatal.
        for (k, p) in conv.iter_mut().enumerate().take(machines + 1).skip(1) {
            *p /= binomial(machines as u64, k as u64);
        }
        (conv, self.cells)
    }
}

/// `P(recovery | k failures)` for every `k = 0..=max_k` on a placement of
/// this `shape`, and the multiply-adds performed. One product of the group
/// polynomials, truncated at `max_k`, holds every safe-subset count;
/// coefficient `k` is then divided by `C(N, k)`. Point `k` is
/// bit-identical to a product truncated at `k`.
pub fn recovery_curve(shape: &[GroupRun], replicas: usize, max_k: usize) -> (Vec<f64>, u64) {
    let mut product = TruncatedProduct::new(&[1.0], max_k);
    product.apply_runs(shape, replicas);
    product.into_curve(shape.iter().map(|run| run.size * run.count).sum())
}

/// Exact probability that `k` simultaneous uniform machine failures leave
/// every checkpoint group recoverable, computed analytically from the
/// placement's group shape — no subset enumeration.
///
/// Agrees bit-for-bit with
/// [`exact_recovery_probability`](super::probability::exact_recovery_probability)
/// wherever both are exact integers in `f64` (all `N ≤ 30`, `k ≤ 7`
/// differential cases), and stays exact-method at `N = 10 000` and beyond
/// where enumeration is intractable.
pub fn analytic_recovery_probability(placement: &Placement, k: usize) -> f64 {
    if k > placement.machines() {
        return 0.0;
    }
    recovery_curve(&placement.shape(), placement.replicas(), k).0[k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::probability::{
        corollary1_probability, exact_recovery_probability, ring_m2_probability,
    };
    use crate::placement::PlacementStrategy;

    /// The per-`k` kernel the one-pass curve replaced, kept as the
    /// differential reference: a fresh product truncated at `k`, with every
    /// group's polynomial rebuilt from its members (its zero top
    /// coefficient included) and two allocations per group.
    fn per_k_reference(placement: &Placement, k: usize) -> f64 {
        let n = placement.machines();
        if k == 0 {
            return 1.0;
        }
        if k > n {
            return 0.0;
        }
        let replicas = placement.replicas();
        let mut conv = vec![0.0f64; k + 1];
        conv[0] = 1.0;
        let mut degree = 0usize;
        for group in placement.groups() {
            let s = group.members.len();
            let poly: Vec<f64> = (0..=s.min(k))
                .map(|t| match group.kind {
                    GroupKind::Group if t == s => 0.0,
                    GroupKind::Group => binomial(s as u64, t as u64),
                    GroupKind::Ring => cycle_subsets_without_run(s, t, replicas.min(s)),
                })
                .collect();
            let new_degree = (degree + poly.len() - 1).min(k);
            let mut next = vec![0.0f64; k + 1];
            for t in 0..=degree {
                let c = conv[t];
                if c == 0.0 {
                    continue;
                }
                let top = (k - t).min(poly.len() - 1);
                for (u, p) in poly.iter().enumerate().take(top + 1) {
                    next[t + u] += c * p;
                }
            }
            conv = next;
            degree = new_degree;
        }
        conv[k] / binomial(n as u64, k as u64)
    }

    /// Algorithm 1's placement of `N` machines (pure group placement when
    /// `m | N`, mixed otherwise) and the ring baseline.
    fn strategies(n: usize, m: usize) -> Vec<Placement> {
        [Placement::mixed(n, m).ok(), Placement::ring(n, m).ok()]
            .into_iter()
            .flatten()
            .collect()
    }

    /// Every point of the one-pass curve, at every truncation up to
    /// `max_k`, against the per-`k` reference, bit for bit.
    fn assert_curve_matches_reference(p: &Placement, max_k: usize) {
        let shape = p.shape();
        let (full, _) = recovery_curve(&shape, p.replicas(), max_k);
        for (k, point) in full.iter().enumerate() {
            let reference = per_k_reference(p, k);
            assert_eq!(
                point.to_bits(),
                reference.to_bits(),
                "N={} m={} {:?} k={k}: {point} vs {reference}",
                p.machines(),
                p.replicas(),
                p.strategy()
            );
            let (prefix, _) = recovery_curve(&shape, p.replicas(), k);
            assert_eq!(prefix.len(), k + 1);
            assert!(prefix
                .iter()
                .zip(&full)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn one_pass_curve_matches_the_per_k_reference_bit_for_bit() {
        let sizes = (1..=300usize).chain([849, 1000, 1001, 4096, 9561, 9999, 10_000, 20_000]);
        for n in sizes {
            for m in 1..=6 {
                for p in strategies(n, m) {
                    assert_curve_matches_reference(&p, 17);
                }
            }
        }
    }

    mod prop {
        use super::*;
        use gemini_check::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The one-pass curve equals the per-`k` reference bit for bit
            /// on arbitrary specs and depths.
            #[test]
            fn one_pass_curve_matches_the_per_k_reference(
                n in 1usize..=400,
                m in 1usize..=8,
                max_k in 0usize..=24,
            ) {
                for p in strategies(n, m) {
                    assert_curve_matches_reference(&p, max_k);
                }
            }
        }
    }

    #[test]
    fn a_deep_curve_costs_work_linear_in_max_k() {
        // The service's deepest query: one truncated product costs at
        // most groups × (max_k + 1) × m multiply-adds. A fresh product per
        // k would cost about max_k / 2 times that.
        let (n, max_k) = (20_000usize, 256usize);
        for m in 1..=6 {
            let strategy = PlacementStrategy::of_mixed(n, m).unwrap();
            let shape = strategy.shape(n, m);
            let groups: usize = shape.iter().map(|run| run.count).sum();
            let (curve, cells) = recovery_curve(&shape, m, max_k);
            assert_eq!(curve.len(), max_k + 1);
            let bound = (groups * (max_k + 1) * m) as u64;
            assert!(cells <= bound, "m={m}: {cells} cells > {bound}");
        }
    }

    #[test]
    fn one_kernel_cell_per_group_at_k_zero() {
        let p = Placement::mixed(17, 2).unwrap();
        let (curve, cells) = recovery_curve(&p.shape(), 2, 0);
        assert_eq!(curve, vec![1.0]);
        assert_eq!(cells, p.groups().len() as u64);
    }

    /// Brute-force cycle count for the closed form to differentiate against.
    fn cycle_brute(l: usize, t: usize, window: usize) -> f64 {
        let mut count = 0u64;
        for bits in 0u64..(1 << l) {
            if bits.count_ones() as usize != t {
                continue;
            }
            let mut fatal = false;
            for start in 0..l {
                if (0..window).all(|i| bits >> ((start + i) % l) & 1 == 1) {
                    fatal = true;
                    break;
                }
            }
            if !fatal {
                count += 1;
            }
        }
        count as f64
    }

    #[test]
    fn cycle_counts_match_brute_force() {
        for l in 3..=12 {
            for window in 1..=l {
                for t in 0..=l.min(7) {
                    let analytic = cycle_subsets_without_run(l, t, window);
                    let brute = cycle_brute(l, t, window);
                    assert_eq!(
                        analytic.to_bits(),
                        brute.to_bits(),
                        "L={l} t={t} w={window}: {analytic} vs {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn known_cycle_values() {
        // Two non-adjacent of a 4-cycle: {0,2} and {1,3}.
        assert_eq!(cycle_subsets_without_run(4, 2, 2), 2.0);
        // Three of a 4-cycle always contain a 3-run.
        assert_eq!(cycle_subsets_without_run(4, 3, 3), 0.0);
        // Three of a 5-cycle with no 3-run: all but the 5 rotations.
        assert_eq!(cycle_subsets_without_run(5, 3, 3), 5.0);
    }

    #[test]
    fn matches_gosper_bit_for_bit_on_a_grid() {
        for n in [4usize, 7, 11, 16, 17, 23, 30] {
            for m in 2..=3usize.min(n) {
                for k in 0..=7usize.min(n) {
                    let placements = [
                        Some(Placement::mixed(n, m).unwrap()),
                        (n % m == 0).then(|| Placement::group(n, m).unwrap()),
                        Some(Placement::ring(n, m).unwrap()),
                    ];
                    for p in placements.into_iter().flatten() {
                        let gosper = exact_recovery_probability(&p, k).unwrap();
                        let analytic = analytic_recovery_probability(&p, k);
                        assert_eq!(
                            gosper.to_bits(),
                            analytic.to_bits(),
                            "n={n} m={m} k={k} {:?}: {gosper} vs {analytic}",
                            p.strategy()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matches_ring_m2_closed_form() {
        for n in [6usize, 10, 16, 25] {
            for k in 2..6 {
                let p = Placement::ring(n, 2).unwrap();
                let a = analytic_recovery_probability(&p, k);
                let closed = ring_m2_probability(n, k);
                assert!((a - closed).abs() < 1e-12, "n={n} k={k}: {a} vs {closed}");
            }
        }
    }

    #[test]
    fn fleet_scale_matches_corollary1_where_exact() {
        // mixed(N, 2) with 2 | N is pure group placement; Corollary 1 is
        // exact for m ≤ k < 2m. The enumerator would need C(10⁴, 3) ≈ 1.7e11
        // subsets; the analytic kernel prices it instantly.
        for k in 2..4 {
            let p = Placement::mixed(10_000, 2).unwrap();
            let a = analytic_recovery_probability(&p, k);
            let c = corollary1_probability(10_000, 2, k);
            assert!(
                (a - c).abs() < 1e-12,
                "k={k}: analytic {a} vs corollary1 {c}"
            );
        }
    }

    #[test]
    fn fleet_scale_deep_k_is_sane_and_monotone() {
        let p = Placement::mixed(10_000, 3).unwrap();
        let mut prev = 1.0f64;
        for k in 0..=36 {
            let a = analytic_recovery_probability(&p, k);
            assert!((0.0..=1.0).contains(&a), "k={k}: {a}");
            assert!(a <= prev + 1e-12, "k={k}: {a} > {prev}");
            prev = a;
        }
        // Losing fewer machines than the replica factor is always safe.
        assert_eq!(analytic_recovery_probability(&p, 2), 1.0);
        assert!(analytic_recovery_probability(&p, 3) < 1.0);
    }

    #[test]
    fn k_edges() {
        let p = Placement::mixed(12, 2).unwrap();
        assert_eq!(analytic_recovery_probability(&p, 0), 1.0);
        assert_eq!(analytic_recovery_probability(&p, 13), 0.0);
        // Losing every machine destroys every group.
        assert_eq!(analytic_recovery_probability(&p, 12), 0.0);
    }
}
