//! The failure-recovery planner (paper §6): one tier ladder.
//!
//! GEMINI retrieves a checkpoint from one hierarchy: local CPU memory, then
//! a peer's CPU memory, then remote persistent storage (§3, §6). Every plan
//! kind, [`RecoveryPlanner::plan`] and [`RecoveryPlanner::plan_shrink`],
//! climbs the same ladder over the [`HierarchicalStore`]:
//!
//! 1. read each owner's completed holders once, in one pass over the
//!    store's slots;
//! 2. take the freshest iteration for which every shard has a holder whose
//!    CPU memory is intact;
//! 3. give each rank its source there: itself when it holds its own shard
//!    ([`StorageTier::LocalCpu`]; reachability does not matter for a local
//!    read), otherwise the lowest reachable intact holder
//!    ([`StorageTier::RemoteCpu`]);
//! 4. drop every rank to the persistent checkpoint when no such iteration
//!    exists (§6.2 Case 2: the shards still in CPU memory are *newer* than
//!    the persistent copy, and mixing them would desynchronize the model
//!    states), or when some shard is held only on unreachable hosts
//!    (recorded in [`RecoveryPlan::degraded`]). The planner refuses with
//!    [`GeminiError::NoCheckpointAvailable`] only when no persistent
//!    checkpoint exists either.
//!
//! The [`RecoveryCase`] is read off where the ladder lands: the persistent
//! rung is [`RecoveryCase::PersistentFallback`]; a CPU plan is
//! [`RecoveryCase::SoftwareLocal`] when no hardware failed (Fig. 6b) and
//! [`RecoveryCase::HardwareFromCpu`] otherwise (Fig. 6c, §6.2 Case 1).

use crate::ckpt::{latest_common, HierarchicalStore, StorageTier};
use crate::error::GeminiError;
use crate::placement::Placement;
use gemini_cluster::FailureKind;
use gemini_net::{ByteSize, TransferCost};
use gemini_sim::SimDuration;
use std::collections::{BTreeMap, BTreeSet};

/// How a coordination timeout should be handled, by how deep into the
/// retry budget the caller is. Recovery code paths use this to decide
/// between plain retry, retry-with-fallback-armed, and failing over — the
/// classification the chaos drills assert on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimeoutClass {
    /// Early attempts (< half the budget): retry on the same path.
    Transient,
    /// Budget more than half spent: keep retrying but arm the fallback
    /// tier (pre-open the persistent checkpoint, widen the source set).
    Degraded,
    /// Budget exhausted: stop retrying; fail over or report unrecoverable.
    Fatal,
}

impl TimeoutClass {
    /// Classifies failed attempt `attempt` (0-based) against a budget of
    /// `max_attempts`.
    pub fn classify(attempt: u32, max_attempts: u32) -> TimeoutClass {
        let max = max_attempts.max(1);
        if attempt + 1 >= max {
            TimeoutClass::Fatal
        } else if 2 * (attempt + 1) >= max {
            TimeoutClass::Degraded
        } else {
            TimeoutClass::Transient
        }
    }

    /// Whether the caller should attempt again.
    pub fn should_retry(self) -> bool {
        self != TimeoutClass::Fatal
    }
}

/// Which of the paper's recovery mechanisms applies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryCase {
    /// No hardware failed: every rank restarts from CPU memory, in place
    /// from its own replica where it holds one (Fig. 6b).
    SoftwareLocal,
    /// Hardware failures recoverable from CPU memory (Case 1).
    HardwareFromCpu,
    /// Fall back to remote persistent storage (Case 2).
    PersistentFallback,
}

/// Where one rank retrieves its shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetrievalSource {
    /// The rank being restored.
    pub rank: usize,
    /// The tier it reads from.
    pub tier: StorageTier,
    /// The serving peer for [`StorageTier::RemoteCpu`].
    pub from: Option<usize>,
}

/// A complete recovery plan for one failure event.
#[derive(Clone, Debug)]
pub struct RecoveryPlan {
    /// Which mechanism applies.
    pub case: RecoveryCase,
    /// The iteration all ranks roll back to.
    pub iteration: u64,
    /// Per-rank retrieval sources (every rank appears exactly once).
    pub sources: Vec<RetrievalSource>,
    /// Ranks that need replacement machines (hardware failures).
    pub replaced: Vec<usize>,
    /// Set when the planner could not use its preferred tier and degraded
    /// (e.g. remote-CPU sources partially unreachable → persistent
    /// fallback). `None` for plans on the normal paths.
    pub degraded: Option<String>,
}

impl RecoveryPlan {
    /// The persistent-first tier override of this plan: all `machines`
    /// ranks restore from the persistent anchor at `anchor_iteration`, and
    /// the plan's replacements stand. The policy engine takes this
    /// rollback when degraded fabric makes remote-CPU retrieval costlier
    /// than persistent retrieval.
    pub fn persistent_first(self, machines: usize, anchor_iteration: u64) -> RecoveryPlan {
        RecoveryPlan {
            case: RecoveryCase::PersistentFallback,
            iteration: anchor_iteration,
            sources: persistent_sources(machines),
            replaced: self.replaced,
            degraded: Some("policy: persistent-first tier override".to_string()),
        }
    }

    /// Reports the plan through a telemetry sink at `now`: a
    /// `RetrievalStarted` event, one `RecoveryTierHit` per rank, and
    /// per-tier `recovery.tier_hits` counters. A disabled sink records
    /// nothing and evaluates nothing.
    pub fn record_telemetry(
        &self,
        sink: &gemini_telemetry::TelemetrySink,
        now: gemini_sim::SimTime,
    ) {
        if !sink.is_enabled() {
            return;
        }
        sink.event(now, || gemini_telemetry::TelemetryEvent::RetrievalStarted {
            case: format!("{:?}", self.case),
            rollback_to: self.iteration,
        });
        for src in &self.sources {
            let tier = tier_label(src.tier);
            sink.event(now, || gemini_telemetry::TelemetryEvent::RecoveryTierHit {
                rank: src.rank,
                tier,
                from: src.from,
            });
            sink.counter_add_labeled("recovery.tier_hits", "tier", tier.label(), 1);
        }
        if let Some(reason) = &self.degraded {
            sink.event(now, || gemini_telemetry::TelemetryEvent::RecoveryDegraded {
                reason: reason.clone(),
            });
            sink.counter_add("recovery.degraded", 1);
        }
        sink.counter_add("recovery.plans", 1);
        sink.gauge_set("recovery.rollback_iteration", || self.iteration as f64);
    }

    /// How many sources read from each tier, as
    /// `(local_cpu, remote_cpu, persistent)` — the per-tier summary the
    /// incident flight recorder attaches to `RetrievalStarted` causal
    /// events.
    pub fn tier_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for src in &self.sources {
            match src.tier {
                StorageTier::LocalCpu => counts.0 += 1,
                StorageTier::RemoteCpu => counts.1 += 1,
                StorageTier::Persistent => counts.2 += 1,
            }
        }
        counts
    }

    /// The flight-recorder `TierRead` causal events for the ranks this
    /// plan actually restores (`replaced` ranks for hardware cases, every
    /// source's rank otherwise), in rank order.
    pub fn tier_reads(&self) -> Vec<(usize, gemini_telemetry::Tier)> {
        self.sources
            .iter()
            .filter(|src| self.replaced.is_empty() || self.replaced.contains(&src.rank))
            .map(|src| (src.rank, tier_label(src.tier)))
            .collect()
    }

    /// The wall-clock retrieval makespan of this plan, accounting for
    /// *source contention*: two replacement machines fetching from the
    /// same surviving host serialize on that host's transmit path (which
    /// happens when a ring-placement host serves several lost neighbours,
    /// or with m ≥ 3 group placements losing two members of one group).
    ///
    /// * local retrievals ride each machine's own copy engine in parallel;
    /// * remote retrievals occupy the serving host's TX serially;
    /// * persistent fallback funnels the whole model state through the
    ///   shared storage pipe.
    pub fn retrieval_makespan(
        &self,
        bytes_per_machine: ByteSize,
        machines: usize,
        net: &TransferCost,
        copy: &TransferCost,
        storage: &TransferCost,
    ) -> SimDuration {
        let mut makespan = SimDuration::ZERO;
        // Per-serving-host queue depth.
        let mut queue: BTreeMap<usize, u64> = BTreeMap::new();
        for src in &self.sources {
            match src.tier {
                StorageTier::LocalCpu => {
                    makespan = makespan.max(copy.time(bytes_per_machine));
                }
                StorageTier::RemoteCpu => {
                    let host = src.from.unwrap_or(src.rank);
                    let depth = queue.entry(host).or_insert(0);
                    *depth += 1;
                    let wait = SimDuration::from_secs_f64(
                        net.time(bytes_per_machine).as_secs_f64() * *depth as f64,
                    ) + copy.time(bytes_per_machine);
                    makespan = makespan.max(wait);
                }
                StorageTier::Persistent => {
                    makespan =
                        makespan.max(storage.time(bytes_per_machine * machines.max(1) as u64));
                }
            }
        }
        makespan
    }
}

/// Maps the core storage tier onto its telemetry-local mirror.
fn tier_label(tier: StorageTier) -> gemini_telemetry::Tier {
    match tier {
        StorageTier::LocalCpu => gemini_telemetry::Tier::LocalCpu,
        StorageTier::RemoteCpu => gemini_telemetry::Tier::RemoteCpu,
        StorageTier::Persistent => gemini_telemetry::Tier::Persistent,
    }
}

/// The persistent rung: every one of `machines` ranks reads the shared
/// persistent checkpoint.
fn persistent_sources(machines: usize) -> Vec<RetrievalSource> {
    (0..machines)
        .map(|rank| RetrievalSource {
            rank,
            tier: StorageTier::Persistent,
            from: None,
        })
        .collect()
}

/// One shard adoption in a shrink repartition: a survivor takes over a
/// failed machine's model-state shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardMove {
    /// The failed machine whose shard moves.
    pub owner: usize,
    /// The surviving machine adopting it.
    pub to: usize,
    /// Where the adopter fetches the checkpoint from.
    pub tier: StorageTier,
    /// The serving peer for [`StorageTier::RemoteCpu`].
    pub from: Option<usize>,
}

/// A complete shrink-and-continue repartition plan: instead of blocking on
/// replacement machines, the survivors adopt the lost machines' shards and
/// the job resumes at reduced width ([`crate::policy::RecoveryMode::Shrink`]).
///
/// The plan is pure data computed from `BTree`-ordered state, so it is
/// byte-identical across reruns, `--jobs` counts and telemetry settings.
#[derive(Clone, Debug)]
pub struct ShrinkPlan {
    /// Which retrieval mechanism feeds the adoptions ([`RecoveryCase::
    /// HardwareFromCpu`] when every lost shard survives in CPU memory,
    /// [`RecoveryCase::PersistentFallback`] otherwise; never
    /// [`RecoveryCase::SoftwareLocal`] — software failures don't shrink).
    pub case: RecoveryCase,
    /// The iteration the shrunken job resumes from.
    pub iteration: u64,
    /// Surviving machines, ascending; index = the machine's new rank.
    pub survivors: Vec<usize>,
    /// One adoption per failed machine, in owner order.
    pub moves: Vec<ShardMove>,
    /// The replica placement the shrunken job runs under (over
    /// `survivors.len()` relabeled ranks).
    pub placement: Placement,
    /// Throughput factor after the shrink (`survivors / machines` under
    /// linear scaling) — what the policy engine's degradation pricing and
    /// the executor's slowed iteration clock both use.
    pub throughput_factor: f64,
}

impl ShrinkPlan {
    /// The new (post-shrink) rank of a surviving machine.
    pub fn new_rank(&self, survivor: usize) -> Option<usize> {
        self.survivors.binary_search(&survivor).ok()
    }
}

/// Plans recoveries against a placement and its checkpoint store.
#[derive(Clone, Debug, Default)]
pub struct RecoveryPlanner;

impl RecoveryPlanner {
    /// Builds the plan for a batch of simultaneous failures by climbing
    /// the tier ladder (module docs).
    ///
    /// `store` must reflect the state *after* the failures (i.e.
    /// [`HierarchicalStore::machine_lost`] already applied for hardware
    /// failures), mirroring how the root agent observes the world.
    /// `unreachable` hosts (degraded or partitioned NICs) keep their CPU
    /// memory, so they still restart locally, but they cannot serve
    /// remote-CPU reads.
    pub fn plan(
        &self,
        store: &HierarchicalStore,
        failures: &[(usize, FailureKind)],
        unreachable: &BTreeSet<usize>,
    ) -> Result<RecoveryPlan, GeminiError> {
        let n = store.placement().machines();
        if let Some(&(rank, _)) = failures.iter().find(|(rank, _)| *rank >= n) {
            return Err(GeminiError::UnknownRank(rank));
        }
        let hardware: BTreeSet<usize> = failures
            .iter()
            .filter(|(_, k)| *k == FailureKind::Hardware)
            .map(|(r, _)| *r)
            .collect();
        climb(store, &store.holders(), &hardware, unreachable)
    }

    /// Builds a shrink-and-continue repartition for a batch of *hardware*
    /// losses: every failed machine's shard is adopted by a survivor (the
    /// least-loaded one, preferring survivors that already hold a replica
    /// of that shard — those adopt at local-copy speed), and the job
    /// resumes over `survivors.len()` ranks under a freshly-derived
    /// placement. The iteration and the persistent fallback come from the
    /// same tier ladder as [`RecoveryPlanner::plan`], with every survivor
    /// serving.
    ///
    /// `store` must reflect the state *after* the failures
    /// ([`HierarchicalStore::machine_lost`] applied), like
    /// [`RecoveryPlanner::plan`].
    pub fn plan_shrink(
        &self,
        store: &HierarchicalStore,
        failed: &BTreeSet<usize>,
    ) -> Result<ShrinkPlan, GeminiError> {
        let n = store.placement().machines();
        let m = store.placement().replicas();
        if let Some(&rank) = failed.iter().find(|&&rank| rank >= n) {
            return Err(GeminiError::UnknownRank(rank));
        }
        if failed.is_empty() {
            return Err(GeminiError::InvalidDrill(
                "shrink plan needs at least one loss",
            ));
        }
        let survivors: Vec<usize> = (0..n).filter(|r| !failed.contains(r)).collect();
        if survivors.len() < m {
            return Err(GeminiError::InvalidPlacement {
                machines: survivors.len(),
                replicas: m,
                reason: "fewer survivors than the replica factor — cannot shrink",
            });
        }
        let placement = Placement::mixed(survivors.len(), m)?;
        let throughput_factor = survivors.len() as f64 / n as f64;
        let holders = store.holders();
        let plan = climb(store, &holders, failed, &BTreeSet::new())?;

        // Per-survivor adoption count, so the extra memory and reload work
        // spread evenly instead of piling onto the lowest rank.
        let mut load: BTreeMap<usize, usize> = survivors.iter().map(|&s| (s, 0)).collect();
        let moves = failed
            .iter()
            .map(|&owner| {
                // Survivors already holding this shard at the rollback
                // iteration adopt it without any transfer.
                let holding: Vec<usize> = if plan.case == RecoveryCase::PersistentFallback {
                    Vec::new()
                } else {
                    holders[owner]
                        .iter()
                        .filter(|&&(h, it)| it == plan.iteration && !failed.contains(&h))
                        .map(|&(h, _)| h)
                        .collect()
                };
                let to = survivors
                    .iter()
                    .copied()
                    .min_by_key(|s| (load[s], !holding.contains(s), *s))
                    .expect("survivors is non-empty");
                *load.get_mut(&to).expect("adopter is a survivor") += 1;
                let src = plan.sources[owner];
                let (tier, from) = if holding.contains(&to) {
                    (StorageTier::LocalCpu, None)
                } else {
                    (src.tier, src.from)
                };
                ShardMove {
                    owner,
                    to,
                    tier,
                    from,
                }
            })
            .collect();
        Ok(ShrinkPlan {
            case: plan.case,
            iteration: plan.iteration,
            survivors,
            moves,
            placement,
            throughput_factor,
        })
    }
}

/// Climbs the tier ladder (module docs) over the store's `holders` table
/// for a job whose `failed` hosts lost their CPU memory and whose
/// `unreachable` hosts cannot serve remote reads. `failed` is the plan's
/// `replaced` list.
fn climb(
    store: &HierarchicalStore,
    holders: &[Vec<(usize, u64)>],
    failed: &BTreeSet<usize>,
    unreachable: &BTreeSet<usize>,
) -> Result<RecoveryPlan, GeminiError> {
    let intact = |h: usize| !failed.contains(&h);
    let replaced: Vec<usize> = failed.iter().copied().collect();
    let mut degraded = None;
    if let Some(iteration) = latest_common(holders, intact) {
        let sources: Option<Vec<RetrievalSource>> = holders
            .iter()
            .enumerate()
            .map(|(rank, hosts)| {
                let mut at = hosts
                    .iter()
                    .filter(|&&(h, it)| it == iteration && intact(h))
                    .map(|&(h, _)| h);
                let (tier, from) = if at.clone().any(|h| h == rank) {
                    (StorageTier::LocalCpu, None)
                } else {
                    let from = at.find(|h| !unreachable.contains(h))?;
                    (StorageTier::RemoteCpu, Some(from))
                };
                Some(RetrievalSource { rank, tier, from })
            })
            .collect();
        if let Some(sources) = sources {
            let case = if failed.is_empty() {
                RecoveryCase::SoftwareLocal
            } else {
                RecoveryCase::HardwareFromCpu
            };
            return Ok(RecoveryPlan {
                case,
                iteration,
                sources,
                replaced,
                degraded: None,
            });
        }
        // Some shard survives in CPU memory only on unreachable hosts.
        degraded = Some(format!(
            "remote-CPU sources unreachable ({} host(s) partitioned)",
            unreachable.len()
        ));
    }
    let persistent = store
        .persistent()
        .ok_or(GeminiError::NoCheckpointAvailable)?;
    Ok(RecoveryPlan {
        case: RecoveryCase::PersistentFallback,
        iteration: persistent.iteration,
        sources: persistent_sources(holders.len()),
        replaced,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use gemini_net::ByteSize;

    fn store(n: usize, m: usize) -> HierarchicalStore {
        let mut s = HierarchicalStore::new(Placement::mixed(n, m).unwrap(), ByteSize::from_gb(75));
        s.persist(100);
        s.record_complete(310);
        s
    }

    #[test]
    fn tier_counts_and_reads_summarize_sources() {
        let plan = RecoveryPlan {
            case: RecoveryCase::HardwareFromCpu,
            iteration: 310,
            sources: vec![
                RetrievalSource {
                    rank: 0,
                    tier: StorageTier::LocalCpu,
                    from: None,
                },
                RetrievalSource {
                    rank: 1,
                    tier: StorageTier::RemoteCpu,
                    from: Some(0),
                },
                RetrievalSource {
                    rank: 2,
                    tier: StorageTier::Persistent,
                    from: None,
                },
            ],
            replaced: vec![1],
            degraded: None,
        };
        assert_eq!(plan.tier_counts(), (1, 1, 1));
        // Hardware case: only the replaced rank's read is an incident
        // TierRead.
        assert_eq!(
            plan.tier_reads(),
            vec![(1, gemini_telemetry::Tier::RemoteCpu)]
        );
        // Software case (no replacements): every source counts.
        let soft = RecoveryPlan {
            replaced: vec![],
            ..plan
        };
        assert_eq!(soft.tier_reads().len(), 3);
    }

    #[test]
    fn software_failure_recovers_locally_at_latest_iteration() {
        let s = store(4, 2);
        let plan = RecoveryPlanner
            .plan(&s, &[(2, FailureKind::Software)], &BTreeSet::new())
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::SoftwareLocal);
        assert_eq!(plan.iteration, 310);
        assert!(plan.replaced.is_empty());
        assert!(plan.sources.iter().all(|s| s.tier == StorageTier::LocalCpu));
        assert_eq!(plan.sources.len(), 4);
    }

    #[test]
    fn fig6c_two_hardware_failures_cross_group() {
        // Fig. 6c: machines 2 and 4 (ranks 1 and 3) fail and are replaced;
        // each fetches from the surviving member of its group.
        let mut s = store(4, 2);
        s.machine_lost(1);
        s.machine_lost(3);
        let plan = RecoveryPlanner
            .plan(
                &s,
                &[(1, FailureKind::Hardware), (3, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        assert_eq!(plan.iteration, 310);
        assert_eq!(plan.replaced, vec![1, 3]);
        let src1 = plan.sources.iter().find(|s| s.rank == 1).unwrap();
        assert_eq!(src1.tier, StorageTier::RemoteCpu);
        assert_eq!(src1.from, Some(0));
        let src3 = plan.sources.iter().find(|s| s.rank == 3).unwrap();
        assert_eq!(src3.from, Some(2));
        // Survivors restart locally.
        let src0 = plan.sources.iter().find(|s| s.rank == 0).unwrap();
        assert_eq!(src0.tier, StorageTier::LocalCpu);
    }

    #[test]
    fn persistent_first_reroutes_every_rank_and_keeps_the_replacements() {
        let mut s = store(4, 2);
        s.machine_lost(1);
        let plan = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Hardware)], &BTreeSet::new())
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        let plan = plan.persistent_first(4, 100);
        assert_eq!(plan.case, RecoveryCase::PersistentFallback);
        assert_eq!(plan.iteration, 100);
        assert_eq!(plan.replaced, vec![1]);
        assert_eq!(plan.tier_counts(), (0, 0, 4));
        assert!(plan
            .sources
            .iter()
            .enumerate()
            .all(|(rank, src)| src.rank == rank
                && src.tier == StorageTier::Persistent
                && src.from.is_none()));
        assert_eq!(
            plan.degraded.as_deref(),
            Some("policy: persistent-first tier override")
        );
    }

    #[test]
    fn whole_group_loss_falls_back_to_persistent() {
        let mut s = store(4, 2);
        s.machine_lost(0);
        s.machine_lost(1);
        let plan = RecoveryPlanner
            .plan(
                &s,
                &[(0, FailureKind::Hardware), (1, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::PersistentFallback);
        // Rolls back to the persistent iteration, losing 210 iterations.
        assert_eq!(plan.iteration, 100);
        assert!(plan
            .sources
            .iter()
            .all(|s| s.tier == StorageTier::Persistent));
    }

    #[test]
    fn mixed_software_and_hardware_failures() {
        let mut s = store(6, 2);
        s.machine_lost(4);
        let plan = RecoveryPlanner
            .plan(
                &s,
                &[(1, FailureKind::Software), (4, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        assert_eq!(plan.replaced, vec![4]);
        // The software-failed rank still has its local copy.
        let src1 = plan.sources.iter().find(|s| s.rank == 1).unwrap();
        assert_eq!(src1.tier, StorageTier::LocalCpu);
        let src4 = plan.sources.iter().find(|s| s.rank == 4).unwrap();
        assert_eq!(src4.tier, StorageTier::RemoteCpu);
        assert_eq!(src4.from, Some(5));
    }

    #[test]
    fn no_persistent_checkpoint_is_an_error() {
        let mut s = HierarchicalStore::new(Placement::mixed(4, 2).unwrap(), ByteSize::from_gb(75));
        s.record_complete(10);
        s.machine_lost(0);
        s.machine_lost(1);
        let err = RecoveryPlanner
            .plan(
                &s,
                &[(0, FailureKind::Hardware), (1, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap_err();
        assert_eq!(err, GeminiError::NoCheckpointAvailable);
    }

    #[test]
    fn unknown_rank_rejected() {
        let s = store(4, 2);
        assert_eq!(
            RecoveryPlanner
                .plan(&s, &[(9, FailureKind::Software)], &BTreeSet::new())
                .unwrap_err(),
            GeminiError::UnknownRank(9)
        );
    }

    #[test]
    fn retrieval_makespan_parallel_when_sources_disjoint() {
        use gemini_net::Bandwidth;
        let mut s = store(8, 2);
        s.machine_lost(1);
        s.machine_lost(3);
        let plan = RecoveryPlanner
            .plan(
                &s,
                &[(1, FailureKind::Hardware), (3, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap();
        let net = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(10.0));
        let copy = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(20.0));
        let storage = TransferCost::pure_bandwidth(Bandwidth::from_gbps(20.0));
        let t = plan.retrieval_makespan(ByteSize::from_gb(10), 8, &net, &copy, &storage);
        // Rank 1 fetches from host 0, rank 3 from host 2 — disjoint, so the
        // makespan is one transfer (1 s) plus the reload copy (0.5 s).
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9, "{t}");
    }

    #[test]
    fn retrieval_makespan_serializes_on_shared_source() {
        use crate::recovery::RetrievalSource;
        use gemini_net::Bandwidth;
        // Hand-build a plan where two ranks fetch from the same host 0.
        let plan = RecoveryPlan {
            case: RecoveryCase::HardwareFromCpu,
            iteration: 1,
            sources: vec![
                RetrievalSource {
                    rank: 1,
                    tier: StorageTier::RemoteCpu,
                    from: Some(0),
                },
                RetrievalSource {
                    rank: 2,
                    tier: StorageTier::RemoteCpu,
                    from: Some(0),
                },
            ],
            replaced: vec![1, 2],
            degraded: None,
        };
        let net = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(10.0));
        let copy = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(20.0));
        let storage = TransferCost::pure_bandwidth(Bandwidth::from_gbps(20.0));
        let t = plan.retrieval_makespan(ByteSize::from_gb(10), 8, &net, &copy, &storage);
        // Host 0's TX serves 10 GB twice back-to-back (2 s) + reload copy.
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-9, "{t}");
    }

    #[test]
    fn retrieval_makespan_persistent_uses_shared_pipe() {
        use gemini_net::Bandwidth;
        let mut s = store(4, 2);
        s.machine_lost(0);
        s.machine_lost(1);
        let plan = RecoveryPlanner
            .plan(
                &s,
                &[(0, FailureKind::Hardware), (1, FailureKind::Hardware)],
                &BTreeSet::new(),
            )
            .unwrap();
        let net = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(10.0));
        let copy = TransferCost::pure_bandwidth(Bandwidth::from_gbytes_per_sec(20.0));
        let storage = TransferCost::pure_bandwidth(Bandwidth::from_gbps(20.0));
        let t = plan.retrieval_makespan(ByteSize::from_gb(75), 4, &net, &copy, &storage);
        // 300 GB through 2.5 GB/s = 120 s.
        assert!((t.as_secs_f64() - 120.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn partition_degrades_to_persistent_when_only_source_unreachable() {
        // Rank 1 fails (hardware); its only surviving replica lives on
        // rank 0, which is partitioned. The planner must not error — it
        // degrades every rank to the persistent checkpoint and says why.
        let mut s = store(4, 2);
        s.machine_lost(1);
        let unreachable: BTreeSet<usize> = [0].into_iter().collect();
        let plan = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Hardware)], &unreachable)
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::PersistentFallback);
        assert_eq!(plan.iteration, 100);
        assert!(plan.degraded.is_some(), "degradation must be recorded");
        assert!(plan
            .sources
            .iter()
            .all(|s| s.tier == StorageTier::Persistent));
    }

    #[test]
    fn partition_reroutes_to_reachable_source_when_one_exists() {
        // With m = 3 the lost rank's shard survives on two peers; if one
        // is partitioned the planner picks the reachable one and stays on
        // the fast path.
        let mut s = store(6, 3);
        s.machine_lost(1);
        let plan_clear = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Hardware)], &BTreeSet::new())
            .unwrap();
        let preferred = plan_clear
            .sources
            .iter()
            .find(|src| src.rank == 1)
            .unwrap()
            .from
            .unwrap();
        let unreachable: BTreeSet<usize> = [preferred].into_iter().collect();
        let plan = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Hardware)], &unreachable)
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        assert!(plan.degraded.is_none());
        let src = plan.sources.iter().find(|src| src.rank == 1).unwrap();
        assert_eq!(src.tier, StorageTier::RemoteCpu);
        assert_ne!(src.from, Some(preferred));
    }

    #[test]
    fn software_failures_ignore_partitions() {
        let s = store(4, 2);
        let unreachable: BTreeSet<usize> = [0, 2].into_iter().collect();
        let plan = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Software)], &unreachable)
            .unwrap();
        assert_eq!(plan.case, RecoveryCase::SoftwareLocal);
        assert_eq!(plan.iteration, 310);
        assert!(plan.degraded.is_none());
    }

    #[test]
    fn timeout_class_partitions_the_retry_budget() {
        use TimeoutClass::*;
        // Budget of 6: attempts 0,1 transient; 2,3,4 degraded; 5 fatal.
        let classes: Vec<TimeoutClass> = (0..6).map(|a| TimeoutClass::classify(a, 6)).collect();
        assert_eq!(
            classes,
            vec![Transient, Transient, Degraded, Degraded, Degraded, Fatal]
        );
        assert!(Transient.should_retry());
        assert!(Degraded.should_retry());
        assert!(!Fatal.should_retry());
        // Degenerate budgets never panic and end fatal.
        assert_eq!(TimeoutClass::classify(0, 1), Fatal);
        assert_eq!(TimeoutClass::classify(0, 0), Fatal);
    }

    #[test]
    fn shrink_below_tolerance_adopts_from_cpu_memory() {
        let mut s = store(8, 2);
        s.machine_lost(3);
        let failed: BTreeSet<usize> = [3].into_iter().collect();
        let plan = RecoveryPlanner.plan_shrink(&s, &failed).unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        assert_eq!(plan.iteration, 310);
        assert_eq!(plan.survivors, vec![0, 1, 2, 4, 5, 6, 7]);
        assert_eq!(plan.moves.len(), 1);
        let mv = plan.moves[0];
        assert_eq!(mv.owner, 3);
        // Rank 2 (group peer) already holds shard 3 → local adoption.
        assert_eq!(mv.to, 2);
        assert_eq!(mv.tier, StorageTier::LocalCpu);
        assert_eq!(mv.from, None);
        assert_eq!(plan.placement.machines(), 7);
        assert!((plan.throughput_factor - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(plan.new_rank(4), Some(3));
        assert_eq!(plan.new_rank(3), None);
    }

    #[test]
    fn shrink_balances_adoptions_across_survivors() {
        let mut s = store(10, 2);
        for r in [1, 3, 5] {
            s.machine_lost(r);
        }
        let failed: BTreeSet<usize> = [1, 3, 5].into_iter().collect();
        let plan = RecoveryPlanner.plan_shrink(&s, &failed).unwrap();
        assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
        // Each lost shard's surviving group peer adopts it locally — three
        // distinct adopters, no survivor takes two shards.
        let adopters: Vec<usize> = plan.moves.iter().map(|m| m.to).collect();
        assert_eq!(adopters, vec![0, 2, 4]);
        assert!(plan.moves.iter().all(|m| m.tier == StorageTier::LocalCpu));
    }

    #[test]
    fn shrink_past_tolerance_falls_back_to_persistent() {
        let mut s = store(8, 2);
        s.machine_lost(0);
        s.machine_lost(1);
        let failed: BTreeSet<usize> = [0, 1].into_iter().collect();
        let plan = RecoveryPlanner.plan_shrink(&s, &failed).unwrap();
        assert_eq!(plan.case, RecoveryCase::PersistentFallback);
        assert_eq!(plan.iteration, 100);
        assert!(plan
            .moves
            .iter()
            .all(|m| m.tier == StorageTier::Persistent && m.from.is_none()));
        // Still balanced: two moves, two distinct adopters.
        assert_ne!(plan.moves[0].to, plan.moves[1].to);
    }

    #[test]
    fn shrink_errors_are_structured() {
        let mut s = store(4, 2);
        s.machine_lost(0);
        s.machine_lost(1);
        // Whole group lost and no persistent anchor → unrecoverable.
        let mut bare =
            HierarchicalStore::new(Placement::mixed(4, 2).unwrap(), ByteSize::from_gb(75));
        bare.record_complete(10);
        bare.machine_lost(0);
        bare.machine_lost(1);
        assert_eq!(
            RecoveryPlanner
                .plan_shrink(&bare, &[0, 1].into_iter().collect())
                .unwrap_err(),
            GeminiError::NoCheckpointAvailable
        );
        // Empty loss set and out-of-range ranks are rejected.
        assert!(RecoveryPlanner.plan_shrink(&s, &BTreeSet::new()).is_err());
        assert_eq!(
            RecoveryPlanner
                .plan_shrink(&s, &[9].into_iter().collect())
                .unwrap_err(),
            GeminiError::UnknownRank(9)
        );
        // Fewer survivors than replicas cannot re-place.
        let mut tiny =
            HierarchicalStore::new(Placement::mixed(3, 2).unwrap(), ByteSize::from_gb(75));
        tiny.persist(1);
        tiny.record_complete(2);
        tiny.machine_lost(0);
        tiny.machine_lost(1);
        assert!(matches!(
            RecoveryPlanner
                .plan_shrink(&tiny, &[0, 1].into_iter().collect())
                .unwrap_err(),
            GeminiError::InvalidPlacement { .. }
        ));
    }

    #[test]
    fn shrink_plan_is_deterministic() {
        let build = || {
            let mut s = store(12, 3);
            for r in [2, 7, 11] {
                s.machine_lost(r);
            }
            let plan = RecoveryPlanner
                .plan_shrink(&s, &[2, 7, 11].into_iter().collect())
                .unwrap();
            format!("{plan:?}")
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn every_rank_appears_exactly_once_in_sources() {
        let mut s = store(10, 3);
        s.machine_lost(7);
        let plan = RecoveryPlanner
            .plan(&s, &[(7, FailureKind::Hardware)], &BTreeSet::new())
            .unwrap();
        let mut ranks: Vec<usize> = plan.sources.iter().map(|s| s.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..10).collect::<Vec<_>>());
    }
}
