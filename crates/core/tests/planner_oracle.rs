//! Exhaustive oracle for the recovery planner's tier ladder: no RNG.
//!
//! `commit` is global and `machine_lost` clears a whole host, so every
//! store state a run can reach is host-level: each intact host holds the
//! latest iteration `L` in all of its slots or holds nothing (a
//! replacement that has not committed yet), hardware-failed hosts hold
//! nothing, and the persistent checkpoint is absent or at `P < L`. For
//! m ∈ {2, 3} and every N from m to [`MAX_N`], the test enumerates every
//! such state, every up/software/hardware status per rank and every
//! unreachable subset of the intact hosts. It checks each plan against
//! rules read off the store alone:
//!
//! * the planner refuses only when no tier holds a consistent checkpoint;
//! * it picks CPU memory at `L` exactly when every shard is held by an
//!   intact host that is reachable or is the shard's own rank, and the
//!   persistent checkpoint otherwise;
//! * every source is intact and holds its shard at the plan iteration, a
//!   remote source is reachable, and a rank holding its own shard reads
//!   it locally;
//! * each rank appears exactly once;
//! * shrink moves obey the same rules.

use gemini_cluster::FailureKind;
use gemini_core::recovery::{RecoveryCase, RecoveryPlan, RecoveryPlanner, ShrinkPlan};
use gemini_core::{GeminiError, HierarchicalStore, Placement, StorageTier};
use gemini_net::ByteSize;
use std::collections::BTreeSet;

/// The largest cluster enumerated (the debug-profile run stays within a
/// few seconds).
const MAX_N: usize = 6;
/// The persistent checkpoint's iteration, when there is one.
const P: u64 = 1;
/// The latest committed iteration.
const L: u64 = 2;

/// Every subset of `hosts`.
fn subsets(hosts: &[usize]) -> impl Iterator<Item = BTreeSet<usize>> + '_ {
    (0..1u32 << hosts.len()).map(move |mask| {
        hosts
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &h)| h)
            .collect()
    })
}

/// One store state and the facts the oracle reads off it.
struct World {
    store: HierarchicalStore,
    hardware: BTreeSet<usize>,
    persistent: Option<u64>,
    /// `holders[owner]`: the hosts holding `owner`'s shard at `L`.
    holders: Vec<BTreeSet<usize>>,
}

impl World {
    fn new(
        placement: &Placement,
        hardware: &BTreeSet<usize>,
        empty: &BTreeSet<usize>,
        persistent: Option<u64>,
    ) -> World {
        let mut store = HierarchicalStore::new(placement.clone(), ByteSize::from_gb(1));
        if let Some(p) = persistent {
            store.persist(p);
        }
        store.record_complete(L);
        for &h in hardware.union(empty) {
            store.machine_lost(h);
        }
        let holders = store
            .holders()
            .into_iter()
            .map(|sources| {
                assert!(sources.iter().all(|&(_, it)| it == L), "host-level state");
                sources.into_iter().map(|(h, _)| h).collect()
            })
            .collect();
        World {
            store,
            hardware: hardware.clone(),
            persistent,
            holders,
        }
    }

    fn holds(&self, host: usize, owner: usize) -> bool {
        self.holders[owner].contains(&host)
    }

    /// Whether every shard can be read from CPU memory: by its own rank,
    /// or from an intact host outside `unreachable`.
    fn cpu_servable(&self, unreachable: &BTreeSet<usize>) -> bool {
        self.holders.iter().enumerate().all(|(owner, hosts)| {
            hosts
                .iter()
                .any(|&h| !self.hardware.contains(&h) && (h == owner || !unreachable.contains(&h)))
        })
    }

    /// Checks one source: `rank`'s shard read from `tier` (served by
    /// `from`) in a plan of `case` at `iteration`.
    fn check_source(
        &self,
        case: RecoveryCase,
        iteration: u64,
        (rank, tier, from): (usize, StorageTier, Option<usize>),
        unreachable: &BTreeSet<usize>,
    ) {
        let cpu_plan = case != RecoveryCase::PersistentFallback;
        match tier {
            StorageTier::Persistent => assert!(!cpu_plan && from.is_none()),
            StorageTier::LocalCpu => {
                assert!(cpu_plan && iteration == L && from.is_none());
                assert!(!self.hardware.contains(&rank) && self.holds(rank, rank));
            }
            StorageTier::RemoteCpu => {
                assert!(cpu_plan && iteration == L);
                let host = from.expect("a remote read names its host");
                assert!(!self.hardware.contains(&host) && !unreachable.contains(&host));
                assert!(self.holds(host, rank));
            }
        }
    }

    fn check_plan(&self, unreachable: &BTreeSet<usize>, got: Result<RecoveryPlan, GeminiError>) {
        let n = self.holders.len();
        let cpu = self.cpu_servable(unreachable);
        let plan = match got {
            Err(e) => {
                assert_eq!(e, GeminiError::NoCheckpointAvailable);
                assert!(
                    !cpu && self.persistent.is_none(),
                    "refused a recoverable job"
                );
                return;
            }
            Ok(plan) => plan,
        };
        let ranks: Vec<usize> = plan.sources.iter().map(|s| s.rank).collect();
        assert_eq!(ranks, (0..n).collect::<Vec<_>>());
        assert_eq!(
            plan.replaced,
            self.hardware.iter().copied().collect::<Vec<_>>()
        );
        if cpu {
            let case = if self.hardware.is_empty() {
                RecoveryCase::SoftwareLocal
            } else {
                RecoveryCase::HardwareFromCpu
            };
            assert_eq!((plan.case, plan.iteration), (case, L));
            assert_eq!(plan.degraded, None);
        } else {
            assert_eq!(plan.case, RecoveryCase::PersistentFallback);
            assert_eq!(Some(plan.iteration), self.persistent);
            // Degraded exactly when the CPU copy exists but is unreachable.
            assert_eq!(plan.degraded.is_some(), self.cpu_servable(&BTreeSet::new()));
        }
        for src in &plan.sources {
            self.check_source(
                plan.case,
                plan.iteration,
                (src.rank, src.tier, src.from),
                unreachable,
            );
            if src.tier == StorageTier::RemoteCpu {
                // The lowest reachable holder, and only when the rank does
                // not hold its own shard.
                let lowest = self.holders[src.rank]
                    .iter()
                    .copied()
                    .find(|h| !self.hardware.contains(h) && !unreachable.contains(h));
                assert_eq!(src.from, lowest);
                assert!(self.hardware.contains(&src.rank) || !self.holds(src.rank, src.rank));
            }
        }
    }

    fn check_shrink(&self, got: Result<ShrinkPlan, GeminiError>) {
        let cpu = self.cpu_servable(&BTreeSet::new());
        let plan = match got {
            Err(e) => {
                assert_eq!(e, GeminiError::NoCheckpointAvailable);
                assert!(
                    !cpu && self.persistent.is_none(),
                    "refused a recoverable shrink"
                );
                return;
            }
            Ok(plan) => plan,
        };
        if cpu {
            assert_eq!(
                (plan.case, plan.iteration),
                (RecoveryCase::HardwareFromCpu, L)
            );
        } else {
            assert_eq!(plan.case, RecoveryCase::PersistentFallback);
            assert_eq!(Some(plan.iteration), self.persistent);
        }
        let owners: Vec<usize> = plan.moves.iter().map(|mv| mv.owner).collect();
        assert_eq!(owners, self.hardware.iter().copied().collect::<Vec<_>>());
        for mv in &plan.moves {
            assert!(!self.hardware.contains(&mv.to), "adopter is a survivor");
            if mv.tier == StorageTier::LocalCpu {
                // The adopter already holds the shard at the plan
                // iteration and takes it over in place.
                assert_eq!(
                    (plan.case, plan.iteration),
                    (RecoveryCase::HardwareFromCpu, L)
                );
                assert!(mv.from.is_none() && self.holds(mv.to, mv.owner));
            } else {
                let read = (mv.owner, mv.tier, mv.from);
                self.check_source(plan.case, plan.iteration, read, &BTreeSet::new());
                assert!(mv.tier == StorageTier::Persistent || !self.holds(mv.to, mv.owner));
            }
        }
    }
}

#[test]
fn every_small_store_state_is_planned_by_the_ladder_rules() {
    let mut cases = 0u64;
    for m in [2, 3] {
        for n in m..=MAX_N {
            let placement = Placement::mixed(n, m).unwrap();
            let ranks: Vec<usize> = (0..n).collect();
            for hardware in subsets(&ranks) {
                let intact: Vec<usize> = (0..n).filter(|r| !hardware.contains(r)).collect();
                for empty in subsets(&intact) {
                    for persistent in [None, Some(P)] {
                        let world = World::new(&placement, &hardware, &empty, persistent);
                        if !hardware.is_empty() && intact.len() >= m {
                            world
                                .check_shrink(RecoveryPlanner.plan_shrink(&world.store, &hardware));
                        }
                        for software in subsets(&intact) {
                            let failures: Vec<(usize, FailureKind)> = (0..n)
                                .filter_map(|r| {
                                    if hardware.contains(&r) {
                                        Some((r, FailureKind::Hardware))
                                    } else if software.contains(&r) {
                                        Some((r, FailureKind::Software))
                                    } else {
                                        None
                                    }
                                })
                                .collect();
                            for unreachable in subsets(&intact) {
                                let got =
                                    RecoveryPlanner.plan(&world.store, &failures, &unreachable);
                                world.check_plan(&unreachable, got);
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    println!("planner oracle: {cases} plans checked");
}
