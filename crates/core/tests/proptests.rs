//! Property-based tests for GEMINI's core algorithms: placement
//! invariants and probability theory, Algorithm 2 conservation, pipeline
//! causality and codec integrity.

use gemini_check::prelude::*;
use gemini_core::codec;
use gemini_core::partition::{checkpoint_partition, PartitionInput};
use gemini_core::pipeline::run_pipeline;
use gemini_core::placement::analytic::{analytic_recovery_probability, recovery_curve};
use gemini_core::placement::probability::{
    binomial, corollary1_probability, exact_recovery_probability, host_sets_recovery_probability,
    theorem1_gap_bound, theorem1_upper_bound,
};
use gemini_core::placement::topology::{rack_aware_mixed, Topology};
use gemini_core::policy::{
    ModeSignals, PolicyConfig, PolicyEngine, PolicyKnobs, PolicySignals, SchemeSignals,
    TierPreference,
};
use gemini_core::retention::{PersistentLedger, RetentionPolicy};
use gemini_core::wasted::WastedTimeModel;
use gemini_core::{
    HierarchicalStore, Placement, PlacementSpecKey, RecoveryCase, RecoveryMemo, RecoveryPlanner,
    StorageTier,
};
use gemini_net::{Bandwidth, ByteSize, TransferCost};
use gemini_sim::{DetRng, SimDuration, SimTime};
use std::collections::BTreeSet;

fn nm_strategy() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=48).prop_flat_map(|n| (Just(n), 1usize..=n.min(6)))
}

/// The slowest, most obviously correct estimator: walk every `k`-subset of
/// `0..n` (lexicographic combination stepping) and ask
/// `Placement::recoverable(&BTreeSet)`. Divides the same exact integers as
/// the Gosper and analytic kernels, so agreement is bit-exact.
fn btreeset_reference_probability(p: &Placement, k: usize) -> f64 {
    let n = p.machines();
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    let mut good = 0u64;
    let mut total = 0u64;
    loop {
        let failed: BTreeSet<usize> = idx.iter().copied().collect();
        total += 1;
        if p.recoverable(&failed) {
            good += 1;
        }
        // Advance to the next combination, rightmost-movable first.
        let mut i = k;
        loop {
            if i == 0 {
                return good as f64 / total as f64;
            }
            i -= 1;
            if idx[i] < n - (k - i) {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Baseline signals whose target is exactly [`PolicyKnobs::paper_default`]
/// while no failure has ever been observed: zero visible overhead, no
/// durable anchor, healthy cluster.
fn baseline_signals(now_s: u64) -> PolicySignals {
    PolicySignals {
        now: SimTime::from_secs(now_s),
        committed: now_s / 62,
        iteration_time: SimDuration::from_secs(62),
        ckpt_overhead: SimDuration::ZERO,
        retrieval_remote: SimDuration::from_secs(60),
        retrieval_persistent: SimDuration::from_secs(480),
        persist_upload: SimDuration::from_secs(480),
        persist_anchor: None,
        healthy_machines: 16,
        machines: 16,
        scheme: SchemeSignals::default(),
        mode: ModeSignals::default(),
    }
}

/// The same boundary with a collapsed training fabric and a fresh durable
/// anchor: the pure-signal perturbation that flips the tier target to
/// `PersistentFirst` (and reverts the instant the signals do).
fn perturbed_signals(now_s: u64) -> PolicySignals {
    let mut s = baseline_signals(now_s);
    s.persist_anchor = Some(s.committed);
    s.retrieval_remote = SimDuration::from_hours(10);
    s
}

proptest! {
    // ---- Placement (Algorithm 1, §4) ----

    #[test]
    fn placement_invariants_hold((n, m) in nm_strategy()) {
        let p = Placement::mixed(n, m).unwrap();
        prop_assert!(p.check_invariants().is_ok(), "{:?}", p.check_invariants());
        prop_assert_eq!(p.sends_per_machine(), m - 1);
        // Every machine hosts its own replica and exactly m hosts when the
        // cluster is large enough.
        for i in 0..n {
            let hosts = p.replica_hosts(i).unwrap();
            prop_assert!(hosts.contains(&i));
            prop_assert_eq!(hosts.len(), m.min(n));
        }
    }

    #[test]
    fn fewer_failures_than_replicas_always_recoverable((n, m) in nm_strategy(), seed in any::<u64>()) {
        prop_assume!(m >= 2);
        let p = Placement::mixed(n, m).unwrap();
        let mut rng = DetRng::new(seed);
        let failed: BTreeSet<usize> =
            rng.sample_distinct(n, m - 1).into_iter().collect();
        prop_assert!(p.recoverable(&failed));
    }

    #[test]
    fn losing_a_whole_host_set_is_fatal((n, m) in nm_strategy(), pick in any::<prop::sample::Index>()) {
        prop_assume!(m >= 2);
        let p = Placement::mixed(n, m).unwrap();
        let sets = p.unique_host_sets();
        let set = &sets[pick.index(sets.len())];
        let failed: BTreeSet<usize> = set.iter().copied().collect();
        prop_assert!(!p.recoverable(&failed));
    }

    /// The differential contract of the analytic DP kernel: for every
    /// placement with N ≤ 30 and k ≤ 7 — across mixed, group and ring
    /// strategies — the DP kernel, the Gosper enumeration and (where the
    /// subset count stays walkable) the BTreeSet reference agree on the
    /// recovery probability *bit-exactly* as f64: all three divide the
    /// same exact integer pair `good / C(N, k)`.
    #[test]
    fn analytic_gosper_and_btreeset_reference_agree_bit_exactly(
        n in 1usize..=30,
        m_seed in any::<prop::sample::Index>(),
        k in 0usize..=7,
    ) {
        let m = 1 + m_seed.index(n.min(4));
        let mut placements = vec![
            Placement::mixed(n, m).unwrap(),
            Placement::ring(n, m).unwrap(),
        ];
        if n % m == 0 {
            placements.push(Placement::group(n, m).unwrap());
        }
        for p in &placements {
            let analytic = analytic_recovery_probability(p, k);
            if k > n {
                // The enumerator declines k > N; the analytic kernel and
                // the reference both call it a certain loss.
                prop_assert_eq!(analytic, 0.0);
                prop_assert_eq!(btreeset_reference_probability(p, k), 0.0);
                continue;
            }
            let gosper = exact_recovery_probability(p, k)
                .expect("C(30,7) is far below the enumeration cap");
            prop_assert_eq!(
                analytic.to_bits(), gosper.to_bits(),
                "n={} m={} k={} {:?}: analytic {} vs gosper {}",
                n, m, k, p.strategy(), analytic, gosper
            );
            if binomial(n as u64, k as u64) <= 30_000.0 {
                let reference = btreeset_reference_probability(p, k);
                prop_assert_eq!(
                    analytic.to_bits(), reference.to_bits(),
                    "n={} m={} k={} {:?}: analytic {} vs reference {}",
                    n, m, k, p.strategy(), analytic, reference
                );
            }
        }
    }

    #[test]
    fn group_and_mixed_dominate_ring((n, _) in nm_strategy()) {
        prop_assume!(n >= 4);
        let m = 2;
        let mixed = Placement::mixed(n, m).unwrap();
        let ring = Placement::ring(n, m).unwrap();
        let pm = exact_recovery_probability(&mixed, m).unwrap();
        let pr = exact_recovery_probability(&ring, m).unwrap();
        prop_assert!(pm >= pr - 1e-12, "mixed {pm} < ring {pr} at N={n}");
    }

    #[test]
    fn corollary1_is_exact_for_k_eq_m_divisible(g in 2usize..12, m in 2usize..5) {
        let n = g * m;
        let p = Placement::group(n, m).unwrap();
        if let Some(exact) = exact_recovery_probability(&p, m) {
            let analytic = corollary1_probability(n, m, m);
            prop_assert!((exact - analytic).abs() < 1e-9, "N={n} m={m}");
        }
    }

    /// Theorem 1's optimality claim, tested adversarially: NO strategy —
    /// here, uniformly random assignments of each machine's m replica
    /// hosts (own machine included, per the theorem's Observation 2) —
    /// achieves a higher k = m recovery probability than the upper bound,
    /// which Algorithm 1's group placement attains when m | N.
    #[test]
    fn no_random_strategy_beats_theorem1_upper_bound(
        n in 4usize..20,
        m in 2usize..4,
        seed in any::<u64>(),
    ) {
        prop_assume!(m < n);
        let mut rng = DetRng::new(seed);
        // Random strategy: machine i stores on itself + m-1 random others.
        let host_sets: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut hosts = vec![i];
                while hosts.len() < m {
                    let h = rng.uniform_u64(0, n as u64) as usize;
                    if !hosts.contains(&h) {
                        hosts.push(h);
                    }
                }
                hosts.sort_unstable();
                hosts
            })
            .collect();
        let mut unique = host_sets.clone();
        unique.sort();
        unique.dedup();
        if let Some(p) = host_sets_recovery_probability(&unique, n, m) {
            let bound = theorem1_upper_bound(n, m);
            prop_assert!(
                p <= bound + 1e-12,
                "random strategy beat the bound: {p} > {bound} (n={n}, m={m})"
            );
        }
    }

    #[test]
    fn theorem1_gap_bound_holds((n, m) in nm_strategy()) {
        prop_assume!(m >= 2 && n >= 2 * m && n % m != 0);
        let p = Placement::mixed(n, m).unwrap();
        if let Some(exact) = exact_recovery_probability(&p, m) {
            let bound = theorem1_upper_bound(n, m);
            prop_assert!(exact <= bound + 1e-12);
            prop_assert!(bound - exact <= theorem1_gap_bound(n, m) + 1e-12,
                "N={n} m={m}: gap {}", bound - exact);
        }
    }

    #[test]
    fn rack_aware_relabel_preserves_structure((n, m) in nm_strategy(), racks in 1usize..8) {
        let topology = Topology::contiguous(n, racks).unwrap();
        let aware = rack_aware_mixed(&topology, m).unwrap();
        let base = Placement::mixed(n, m).unwrap();
        prop_assert!(aware.check_invariants().is_ok());
        prop_assert_eq!(aware.groups().len(), base.groups().len());
        prop_assert_eq!(aware.unique_host_sets().len(), base.unique_host_sets().len());
        // Round-robin covers every machine exactly once.
        let mut order = topology.round_robin_order();
        order.sort_unstable();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn rack_aware_groups_span_racks((_, m) in nm_strategy(), racks in 2usize..6) {
        let n = racks * 4; // even racks
        prop_assume!(m <= racks);
        let topology = Topology::contiguous(n, racks).unwrap();
        let aware = rack_aware_mixed(&topology, m).unwrap();
        for group in aware.groups() {
            let distinct: BTreeSet<usize> = group
                .members
                .iter()
                .map(|&mach| topology.rack_of(mach).unwrap())
                .collect();
            prop_assert_eq!(distinct.len(), group.members.len().min(racks));
        }
    }

    #[test]
    fn retention_never_loses_the_newest(
        iters in prop::collection::btree_set(0u64..10_000, 1..60),
        keep_last in 0usize..5,
        keep_every in 0u64..500,
    ) {
        let policy = RetentionPolicy { keep_last, keep_every };
        let mut ledger = PersistentLedger::new(policy);
        let sorted: Vec<u64> = iters.iter().copied().collect();
        for &i in &sorted {
            ledger.persist(i);
        }
        // The newest persisted checkpoint always survives.
        prop_assert_eq!(ledger.latest(), sorted.last().copied());
        // Milestones survive.
        if keep_every > 0 {
            for &i in &sorted {
                if i % keep_every == 0 {
                    prop_assert!(ledger.kept().contains(&i), "milestone {i} lost");
                }
            }
        }
        // Kept + deleted conserves the history.
        prop_assert_eq!(
            ledger.kept().len() as u64 + ledger.deleted_total(),
            sorted.len() as u64
        );
    }

    // ---- Partitioning (Algorithm 2, §5.3) ----

    #[test]
    fn partition_conserves_and_fits(
        spans_ms in prop::collection::vec(0u64..2_000, 1..12),
        ckpt_mb in 1u64..4_000,
        copies in 1usize..4,
        parts in 1usize..8,
        gamma in 0.1f64..1.0,
    ) {
        let input = PartitionInput {
            idle_spans: spans_ms
                .iter()
                .map(|&ms| SimDuration::from_millis(ms))
                .collect(),
            ckpt_size: ByteSize::from_mb(ckpt_mb),
            copies,
            reserved_buffer: ByteSize::from_mib(128),
            buffer_parts: parts,
            cost: TransferCost::new(
                SimDuration::from_micros(500),
                Bandwidth::from_gbytes_per_sec(10.0),
            ),
            gamma,
        };
        let plan = checkpoint_partition(&input).unwrap();
        prop_assert!(plan.check_against(&input).is_ok(), "{:?}", plan.check_against(&input));
        prop_assert_eq!(plan.total_bytes() + plan.unscheduled,
                        input.ckpt_size * copies as u64);
        prop_assert!(plan.unscheduled.is_zero(), "last span is unbounded");
    }

    #[test]
    fn partition_overflow_zero_when_idle_ample(ckpt_mb in 1u64..1_000) {
        // A final span of 10 minutes dwarfs any checkpoint here.
        let input = PartitionInput {
            idle_spans: vec![SimDuration::from_millis(50), SimDuration::from_secs(600)],
            ckpt_size: ByteSize::from_mb(ckpt_mb),
            copies: 1,
            reserved_buffer: ByteSize::from_mib(128),
            buffer_parts: 4,
            cost: TransferCost::new(
                SimDuration::from_micros(100),
                Bandwidth::from_gbytes_per_sec(10.0),
            ),
            gamma: 0.8,
        };
        let plan = checkpoint_partition(&input).unwrap();
        prop_assert!(plan.overflow(&input.idle_spans, &input.cost).is_zero());
    }

    // ---- Pipeline (§5.2) ----

    #[test]
    fn pipeline_causality(
        chunks_mb in prop::collection::vec(1u64..128, 1..40),
        p in 1usize..6,
        copy_gbps in 1.0f64..100.0,
    ) {
        let chunks: Vec<ByteSize> = chunks_mb.iter().map(|&m| ByteSize::from_mb(m)).collect();
        let net = TransferCost::new(
            SimDuration::from_micros(100),
            Bandwidth::from_gbytes_per_sec(10.0),
        );
        let copy = TransferCost::new(
            SimDuration::from_micros(10),
            Bandwidth::from_gbytes_per_sec(copy_gbps),
        );
        let r = run_pipeline(&chunks, p, &net, &copy);
        // Copies start after their transfer; copies are serial; network is
        // serial; buffers are reused only after their copy drained.
        for (n, c) in r.net_spans.iter().zip(&r.copy_spans) {
            prop_assert!(c.start >= n.end);
        }
        for w in r.copy_spans.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        for w in r.net_spans.windows(2) {
            prop_assert!(w[1].start >= w[0].end);
        }
        for i in p..chunks.len() {
            prop_assert!(r.net_spans[i].start >= r.copy_spans[i - p].end);
        }
        prop_assert!(r.makespan >= r.net_occupancy);
    }

    #[test]
    fn pipeline_more_buffers_never_hurt(
        chunks_mb in prop::collection::vec(1u64..64, 1..30),
    ) {
        let chunks: Vec<ByteSize> = chunks_mb.iter().map(|&m| ByteSize::from_mb(m)).collect();
        let net = TransferCost::new(
            SimDuration::from_micros(100),
            Bandwidth::from_gbytes_per_sec(10.0),
        );
        let copy = TransferCost::new(
            SimDuration::from_micros(10),
            Bandwidth::from_gbytes_per_sec(5.0),
        );
        let mut prev = None;
        for p in 1..=4 {
            let r = run_pipeline(&chunks, p, &net, &copy);
            if let Some(prev) = prev {
                prop_assert!(r.makespan <= prev);
            }
            prev = Some(r.makespan);
        }
    }

    // ---- Codec ----

    #[test]
    fn codec_roundtrips(owner in any::<u32>(), iteration in any::<u64>(),
                        data in prop::collection::vec(any::<u8>(), 0..4_096)) {
        let frame = codec::encode(owner, iteration, &data);
        let decoded = codec::decode(&frame).unwrap();
        prop_assert_eq!(decoded.owner, owner);
        prop_assert_eq!(decoded.iteration, iteration);
        prop_assert_eq!(&decoded.data[..], &data[..]);
    }

    #[test]
    fn codec_detects_any_bit_flip(data in prop::collection::vec(any::<u8>(), 1..512),
                                  byte in any::<prop::sample::Index>(),
                                  bit in 0u8..8) {
        let frame = codec::encode(1, 2, &data).to_vec();
        let mut bad = frame.clone();
        let idx = byte.index(bad.len());
        bad[idx] ^= 1 << bit;
        prop_assert!(codec::decode(&bad).is_err());
    }

    // ---- Wasted time (Equation 1) ----

    #[test]
    fn wasted_average_is_between_best_and_worst(
        ckpt_s in 0u64..10_000, interval_s in 1u64..100_000,
        iter_s in 1u64..1_000, rtvl_s in 0u64..10_000,
    ) {
        let w = WastedTimeModel::new(
            SimDuration::from_secs(ckpt_s),
            SimDuration::from_secs(interval_s),
            SimDuration::from_secs(iter_s),
            SimDuration::from_secs(rtvl_s),
        );
        prop_assert!(w.best_case() <= w.average_wasted());
        prop_assert!(w.average_wasted() <= w.worst_case());
        // Equation 2's floor.
        prop_assert!(w.interval >= SimDuration::from_secs(ckpt_s.max(iter_s)));
    }

    // ---- Adaptive policy hysteresis ----

    #[test]
    fn sub_streak_blip_never_changes_the_active_policy(
        streak in 2u32..8,
        blip in 1u32..8,
        pre in 0u64..5,
        post in 1u64..5,
        step in 30u64..600,
    ) {
        // A perturbed target proposed for fewer than `streak` consecutive
        // evaluations must never be applied, whatever the evaluation
        // cadence around it.
        prop_assume!(blip < streak);
        let cfg = PolicyConfig {
            hysteresis_streak: streak,
            ..PolicyConfig::default()
        };
        let initial = PolicyKnobs::paper_default();
        let mut eng = PolicyEngine::new(cfg, initial);
        let mut t = 1_000u64;
        for _ in 0..pre {
            prop_assert!(eng.evaluate(&baseline_signals(t)).is_none());
            t += step;
        }
        for _ in 0..blip {
            let s = perturbed_signals(t);
            prop_assert_eq!(eng.target(&s).tier, TierPreference::PersistentFirst);
            prop_assert!(eng.evaluate(&s).is_none(), "sub-streak blip applied");
            t += step;
        }
        for _ in 0..post {
            prop_assert!(eng.evaluate(&baseline_signals(t)).is_none());
            t += step;
        }
        prop_assert_eq!(eng.active(), initial);
        let stats = eng.stats();
        prop_assert_eq!(stats.applied, 0);
        prop_assert_eq!(stats.blips_absorbed, 1);
        prop_assert_eq!(stats.proposals, blip as u64);
    }

    /// The EWMA failure-rate estimator tracks the analytic intensity of a
    /// synthetic Poisson trace. Halflife 10 h keeps λ·h ≥ 60, so the
    /// estimator's intrinsic relative std (≈ √(ln2 / 2λh) ≤ 7.6%) sits
    /// far inside the 35% tolerance; the midpoint-decay fix removes the
    /// systematic sampling bias that would otherwise stack on top.
    #[test]
    fn ewma_tracks_poisson_intensity_on_synthetic_traces(
        us in prop::collection::vec(1e-4f64..1.0, 1_500..2_000usize),
        mean_gap_s in 200.0f64..600.0,
    ) {
        let cfg = PolicyConfig {
            halflife: SimDuration::from_hours(10),
            ..PolicyConfig::default()
        };
        let mut eng = PolicyEngine::new(cfg, PolicyKnobs::paper_default());
        // Exponential inter-arrival gaps by inverse CDF over the uniforms.
        let mut t = 0.0f64;
        for u in &us {
            t += -u.ln() * mean_gap_s;
            eng.observe_failure(SimTime::from_secs_f64(t), false, false);
        }
        // Compare against the trace's own empirical rate, so tail
        // truncation of the uniforms cancels out.
        let analytic = us.len() as f64 / t * 3_600.0;
        let estimated = eng.failure_rate_per_hour(SimTime::from_secs_f64(t));
        prop_assert!(
            (estimated - analytic).abs() / analytic < 0.35,
            "estimated {estimated}/h vs analytic {analytic}/h"
        );
    }

    #[test]
    fn sustained_proposal_applies_exactly_on_the_streak(
        streak in 1u32..8,
        step in 30u64..600,
    ) {
        let cfg = PolicyConfig {
            hysteresis_streak: streak,
            ..PolicyConfig::default()
        };
        let initial = PolicyKnobs::paper_default();
        let mut eng = PolicyEngine::new(cfg, initial);
        let mut t = 1_000u64;
        for k in 1..=streak {
            let applied = eng.evaluate(&perturbed_signals(t));
            if k < streak {
                prop_assert!(applied.is_none(), "applied before the streak at {k}");
            } else {
                let rec = applied.expect("streak-th evaluation applies");
                prop_assert_eq!(rec.knobs.tier, TierPreference::PersistentFirst);
                prop_assert_eq!(rec.knobs, eng.active());
            }
            t += step;
        }
        prop_assert_eq!(eng.stats().applied, 1);
    }

    // ---- Elastic shrink-and-continue (repartition planner) ----

    /// Below the placement tolerance (fewer losses than the replica
    /// factor) a shrink plan never touches the persistent tier: every
    /// failed rank's committed shard is adopted by a survivor straight
    /// from CPU memory at the committed iteration, adoption load spreads
    /// within one shard of even, and the whole plan is deterministic.
    #[test]
    fn shrink_below_tolerance_preserves_every_committed_shard(
        (n, m) in nm_strategy(),
        kills_pick in any::<prop::sample::Index>(),
        seed in any::<u64>(),
    ) {
        prop_assume!(m >= 2 && n > m);
        // Below tolerance AND enough survivors left to re-place over.
        let kills = 1 + kills_pick.index((m - 1).min(n - m));
        let failed: BTreeSet<usize> = DetRng::new(seed)
            .sample_distinct(n, kills)
            .into_iter()
            .collect();
        let build = || {
            let mut store = HierarchicalStore::new(
                Placement::mixed(n, m).unwrap(),
                ByteSize::from_gb(75),
            );
            store.persist(100);
            store.record_complete(310);
            for &r in &failed {
                store.machine_lost(r);
            }
            RecoveryPlanner.plan_shrink(&store, &failed).unwrap()
        };
        let plan = build();
        prop_assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        prop_assert_eq!(plan.iteration, 310);
        prop_assert_eq!(plan.survivors.len(), n - kills);
        prop_assert!(plan.survivors.iter().all(|s| !failed.contains(s)));
        prop_assert!(
            (plan.throughput_factor - (n - kills) as f64 / n as f64).abs() < 1e-12
        );
        // Exactly one adoption per lost rank, all sourced from CPU memory.
        let owners: BTreeSet<usize> = plan.moves.iter().map(|mv| mv.owner).collect();
        prop_assert_eq!(&owners, &failed);
        prop_assert_eq!(plan.moves.len(), kills);
        let mut load = std::collections::BTreeMap::new();
        for mv in &plan.moves {
            prop_assert!(plan.survivors.contains(&mv.to), "adopter {} died", mv.to);
            match mv.tier {
                StorageTier::LocalCpu => prop_assert_eq!(mv.from, None),
                StorageTier::RemoteCpu => {
                    let from = mv.from.expect("remote adoption names a source");
                    prop_assert!(plan.survivors.contains(&from));
                }
                StorageTier::Persistent => prop_assert!(
                    false,
                    "below tolerance, owner {} fell back to persistent",
                    mv.owner
                ),
            }
            *load.entry(mv.to).or_insert(0usize) += 1;
        }
        let max = load.values().copied().max().unwrap_or(0);
        let min = plan
            .survivors
            .iter()
            .map(|s| load.get(s).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        prop_assert!(max - min <= 1, "unbalanced adoptions: {load:?}");
        // Planning is a pure function of the (store, failures) pair.
        prop_assert_eq!(format!("{plan:?}"), format!("{:?}", build()));
    }
}

fn curve_bits(curve: &[f64]) -> Vec<u64> {
    curve.iter().map(|p| p.to_bits()).collect()
}

/// One recoverability question: `(N, max_k)` at the sequence's `m`.
type Question = (usize, usize);

/// A question sequence at one `m`: random questions (`N ≤ 20 000`, Group
/// when `divisible`, else Mixed where `m ∤ N`), then one on a fleet half
/// the largest so far (a shrinking `G`) and one a degree deeper than any
/// so far (a rebuild).
fn question_sequence(m: usize, drawn: &[(usize, bool, usize)]) -> Vec<Question> {
    let mut questions: Vec<Question> = drawn
        .iter()
        .map(|&(n, divisible, max_k)| {
            let n = n.max(m);
            (if divisible { n - n % m } else { n }, max_k)
        })
        .collect();
    let largest = questions.iter().map(|q| q.0).max().unwrap_or(m);
    let deepest = questions.iter().map(|q| q.1).max().unwrap_or(0);
    questions.push(((largest / 2).max(m), drawn[0].2));
    questions.push((largest, deepest + 1));
    questions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The memo's curves, which resume from stored group powers, equal a
    /// fresh kernel product bit for bit over question sequences that
    /// extend, replay and rebuild the tables; two workers sharing one memo
    /// answer exactly what one worker does.
    #[test]
    fn memo_curves_equal_the_kernel_over_question_sequences(
        m in 1usize..=6,
        drawn in prop::collection::vec((1usize..=20_000, prop::bool::ANY, 0usize..=63), 1..6),
    ) {
        let questions = question_sequence(m, &drawn);
        let keys: Vec<PlacementSpecKey> = questions
            .iter()
            .map(|&(n, _)| PlacementSpecKey::mixed(n, m).unwrap())
            .collect();
        let memo = RecoveryMemo::new();
        let serial: Vec<Vec<u64>> = keys
            .iter()
            .zip(&questions)
            .map(|(&key, &(_, max_k))| curve_bits(&memo.spec_curve(key, max_k)))
            .collect();
        for ((key, &(n, max_k)), got) in keys.iter().zip(&questions).zip(&serial) {
            let (want, _) = recovery_curve(&key.shape(), m, max_k);
            prop_assert_eq!(got, &curve_bits(&want), "N={} m={} max_k={}", n, m, max_k);
        }
        let shared = RecoveryMemo::new();
        let parallel = gemini_parallel::par_map(2, keys.len(), |i| {
            curve_bits(&shared.spec_curve(keys[i], questions[i].1))
        });
        prop_assert_eq!(parallel, serial);
    }
}
