//! The chaos engine: deterministic, seeded fault-injection campaigns, and
//! the single recovery executor behind every event-driven run.
//!
//! Real clusters misbehave in rich ways: machines die *while* a recovery
//! is already in flight, whole placement groups go down together, the
//! distributed KV store itself blacks out, heartbeats arrive late, NICs
//! degrade or partition, the cloud operator runs out of capacity, and
//! root agents churn. This module composes those faults into named,
//! reproducible *chaos plans* and runs them through the discrete-event
//! stack — worker/root agents heartbeating into
//! [`gemini_kvstore::KvStore`], leader election, scan-based detection,
//! serialization, replacement via [`gemini_cluster::CloudOperator`],
//! plan-driven retrieval — hardened with bounded retry
//! ([`gemini_kvstore::RetryPolicy`]) and graceful degradation
//! ([`RecoveryPlanner::plan`]).
//!
//! The Fig. 14 recovery drill ([`crate::drill`]) is a drill-shaped run of
//! this same executor: a single-fault plan (one kill per victim, all at
//! the same instant) that confirms on the first scan and stops at the
//! first resume.
//!
//! # Detection under chaos
//!
//! Under chaos a KV blackout or a delayed heartbeat batch can expire
//! *every* lease at once; reacting instantly would trigger a spurious
//! cluster-wide recovery. The chaos root therefore requires a
//! **confirmation streak**: a rank is declared failed only after its key
//! has been missing on [`CONFIRM_TICKS`] consecutive 1-second scans —
//! longer than a heartbeat period, so a machine that is merely
//! re-registering after a blip always clears itself in time.
//!
//! A drill confirms with a streak of 1 instead: it injects no KV-outage
//! or heartbeat-delay faults, so nothing but a real failure can make a
//! health key vanish, and the first missing scan is already the
//! detection instant Fig. 14 measures.
//!
//! # Invariants
//!
//! Every run checks four invariants and reports violations in
//! [`ChaosReport::violations`] (empty ⇔ green):
//!
//! 1. **At most one root leader at any instant** (checked on every scan
//!    tick via the KV election).
//! 2. **No committed checkpoint is lost below the placement tolerance**:
//!    if the hardware-failed set is recoverable per
//!    [`gemini_core::Placement::recoverable`] and no NIC partition is
//!    active, recovery must not fall back to persistent storage or roll
//!    back past the last committed iteration. A deliberate
//!    persistent-first **policy tier override** is the one sanctioned
//!    exception — it trades rollback for a faster path and is checked
//!    *cross-run* by [`check_policy_preserves_commits`] instead.
//! 3. **Recovery always terminates**: no wave may still be in flight (and
//!    no rank still down) when the horizon is reached.
//! 4. **Byte-identical reruns per seed**: [`ChaosReport::render`] of two
//!    runs with the same plan and seed must compare equal (asserted by
//!    the integration suite and the CI smoke, not in-run).
//!
//! # Policies
//!
//! Every run optionally carries a [`PolicySpec`]: a fixed comparator
//! freezes the fault-tolerance knobs ([`PolicyKnobs`]) at launch, while
//! the adaptive spec drives them through [`gemini_core::policy`]'s online
//! engine at iteration boundaries (checkpoint cadence, persistent-upload
//! interval, retrieval-tier preference; replica-count re-planning is left
//! to [`crate::runtime`]). Policy-off runs remain byte-identical to the
//! pre-policy engine. Every run — with or without a policy — accounts its
//! wasted time (paper §2.1 Eq. 1: rework + downtime + visible overhead)
//! in a [`WastedLedger`] on the report.

use crate::scenario::Deployment;
use gemini_baselines::competing::scheme_signals;
use gemini_cluster::{CloudOperator, FailureKind, OperatorConfig};
use gemini_core::agents::{RootAgent, WorkerAgent};
use gemini_core::policy::{
    ModeSignals, PolicyEngine, PolicyKnobs, PolicySignals, PolicySpec, RecoveryMode, SchemeChoice,
    SchemeSignals, TierPreference,
};
use gemini_core::recovery::{
    RecoveryCase, RecoveryPlan, RecoveryPlanner, RetrievalSource, ShrinkPlan, TimeoutClass,
};
use gemini_core::{GeminiError, StorageTier, WastedLedger};
use gemini_kvstore::{KvStore, RetryPolicy};
use gemini_sim::{Context, DetRng, Engine, Model, SimDuration, SimTime};
use gemini_telemetry::{
    intern_label, CausalEvent, CausalKind, EngineTelemetryProbe, FailureClass, Key,
    PolicySignalsSnapshot, TelemetryEvent, TelemetrySink,
};
use std::collections::BTreeSet;

/// Consecutive scans a health key must be missing before the root
/// confirms the rank as failed (see the module docs). At one scan per
/// second this is comfortably above the 5 s heartbeat period, so
/// re-registration after a KV blip or a delayed heartbeat batch always
/// wins the race against a spurious recovery.
pub const CONFIRM_TICKS: u32 = 7;

/// How long a churned (resigned) root abstains from re-campaigning, so
/// leadership genuinely moves to another machine.
const CHURN_MUTE: SimDuration = SimDuration::from_secs(15);

/// How many ranks (the lowest-numbered) act as root-leader candidates.
/// At the paper's 16-machine scale this covers the whole cluster, so
/// behaviour is identical to all-ranks candidacy; at fleet scale it
/// bounds the per-tick KV campaign/census cost to a constant instead of
/// O(N), mirroring how production deployments elect among a small seed
/// set rather than the entire fleet.
pub const ROOT_CANDIDATES: usize = 16;

/// Fraction of a persistent upload's duration charged to the wasted-time
/// ledger as training-visible interference. The upload itself runs on the
/// storage path, but draining GPU→CPU staging buffers and the control
/// traffic contend with training for part of it (§7.1's `torch.save()`
/// stalls are the extreme case; GEMINI's async persist only grazes
/// training). Charged to the [`WastedLedger`] only — the simulated
/// timeline is never perturbed, so determinism is untouched.
pub const PERSIST_VISIBLE_FRAC: f64 = 0.25;

/// One injectable fault.
#[derive(Clone, Debug)]
pub enum FaultKind {
    /// Kill one machine (software: process crash; hardware: the machine
    /// and its CPU checkpoint replicas are gone).
    Kill {
        /// The victim rank.
        rank: usize,
        /// Software or hardware.
        kind: FailureKind,
    },
    /// Kill every member of one placement group simultaneously — the
    /// correlated rack/switch failure that defeats group placement.
    KillGroup {
        /// Index into [`gemini_core::Placement::groups`].
        group: usize,
        /// Software or hardware.
        kind: FailureKind,
    },
    /// The distributed KV store is unreachable for `duration`: heartbeats
    /// are lost, campaigns and scans cannot run. Leases keep expiring.
    KvOutage {
        /// Outage length.
        duration: SimDuration,
    },
    /// Heartbeats sent during the window are delivered only when it ends
    /// (delayed delivery, not loss).
    HeartbeatDelay {
        /// Window length.
        duration: SimDuration,
    },
    /// NIC bandwidth degradation: remote retrievals take `factor`× as
    /// long while the window is active.
    NicDegrade {
        /// Slowdown multiplier (> 1).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// NIC partition: the listed ranks cannot *serve* remote-CPU
    /// retrievals while the window is active (their own heartbeats use
    /// the control-plane path and still flow).
    NicPartition {
        /// Unreachable ranks.
        ranks: Vec<usize>,
        /// Window length.
        duration: SimDuration,
    },
    /// The cloud operator's control plane denies replacement requests for
    /// `duration` (ASG capacity exhaustion / API outage).
    OperatorOutage {
        /// Outage length.
        duration: SimDuration,
    },
    /// A spot-market preemption: the cloud gives `notice` of advance
    /// warning, the victim flushes an incremental checkpoint of its
    /// un-committed state inside the window, then the machine is
    /// reclaimed (a hardware loss). MoE workloads flush only the dirty
    /// expert fraction; dense workloads flush a full commit.
    SpotPreempt {
        /// The victim rank.
        rank: usize,
        /// Advance warning between the notice and the reclaim.
        notice: SimDuration,
    },
    /// Root-agent churn: `kills` times, every `period`, the current
    /// leader resigns and abstains from re-campaigning for a while.
    RootChurn {
        /// Number of forced resignations.
        kills: usize,
        /// Spacing between them.
        period: SimDuration,
    },
}

/// A fault scheduled at an absolute simulation time.
#[derive(Clone, Debug)]
pub struct TimedFault {
    /// When the fault strikes (window faults open at this instant).
    pub at: SimTime,
    /// What happens.
    pub fault: FaultKind,
}

/// A named, fully deterministic chaos scenario.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Stable name (used in reports and the CI smoke).
    pub name: String,
    /// The deployment under test.
    pub scenario: Deployment,
    /// Cloud-operator behaviour (standbys etc.).
    pub operator: OperatorConfig,
    /// The fault schedule.
    pub faults: Vec<TimedFault>,
    /// How long the simulation runs. Recovery must finish before this.
    pub horizon: SimTime,
    /// Backoff schedule for replacement requests denied by the operator.
    pub retry: RetryPolicy,
}

impl ChaosPlan {
    fn base(name: &str) -> ChaosPlan {
        ChaosPlan {
            name: name.to_string(),
            scenario: Deployment::dense_gpt2_100b_p4d(),
            operator: OperatorConfig::default(),
            faults: Vec::new(),
            horizon: SimTime::from_secs(2400),
            retry: RetryPolicy::default(),
        }
    }

    /// One hardware kill mid-iteration, while the checkpoint interleave
    /// is streaming — the baseline chaos plan (drill-equivalent, but with
    /// confirmation-streak detection and training resuming afterwards).
    pub fn kill_mid_checkpoint() -> ChaosPlan {
        let mut p = ChaosPlan::base("kill_mid_checkpoint");
        p.faults = vec![TimedFault {
            at: SimTime::from_secs(500),
            fault: FaultKind::Kill {
                rank: 5,
                kind: FailureKind::Hardware,
            },
        }];
        p
    }

    /// A whole placement group dies at once (correlated rack failure):
    /// every CPU replica of the group's shards is gone, so recovery must
    /// legitimately fall back to the persisted checkpoint.
    pub fn correlated_group_loss() -> ChaosPlan {
        let mut p = ChaosPlan::base("correlated_group_loss");
        p.faults = vec![TimedFault {
            at: SimTime::from_secs(600),
            fault: FaultKind::KillGroup {
                group: 1,
                kind: FailureKind::Hardware,
            },
        }];
        p.horizon = SimTime::from_secs(4800);
        p
    }

    /// A 30 s KV-store blackout expires every health lease at once; the
    /// confirmation streak must prevent a spurious cluster-wide recovery.
    /// A real software failure later checks detection still works.
    pub fn kv_outage_blackout() -> ChaosPlan {
        let mut p = ChaosPlan::base("kv_outage_blackout");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(300),
                fault: FaultKind::KvOutage {
                    duration: SimDuration::from_secs(30),
                },
            },
            TimedFault {
                at: SimTime::from_secs(700),
                fault: FaultKind::Kill {
                    rank: 3,
                    kind: FailureKind::Software,
                },
            },
        ];
        p
    }

    /// The elected root resigns three times in a row; leadership must
    /// hand over cleanly (never two leaders, no lease pile-up) and a
    /// failure injected during the churn is still detected.
    pub fn root_churn() -> ChaosPlan {
        let mut p = ChaosPlan::base("root_churn");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(200),
                fault: FaultKind::RootChurn {
                    kills: 3,
                    period: SimDuration::from_secs(30),
                },
            },
            TimedFault {
                at: SimTime::from_secs(600),
                fault: FaultKind::Kill {
                    rank: 9,
                    kind: FailureKind::Software,
                },
            },
        ];
        p
    }

    /// Zero standbys plus a 90 s operator outage that swallows the
    /// replacement request: the root must retry with bounded backoff
    /// ([`RetryPolicy`]) until the control plane recovers.
    pub fn replacement_exhaustion() -> ChaosPlan {
        let mut p = ChaosPlan::base("replacement_exhaustion");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(390),
                fault: FaultKind::Kill {
                    rank: 6,
                    kind: FailureKind::Hardware,
                },
            },
            TimedFault {
                at: SimTime::from_secs(400),
                fault: FaultKind::OperatorOutage {
                    duration: SimDuration::from_secs(90),
                },
            },
        ];
        // Worst-case patience 2+4+8+16+32+60+60 = 182 s > the 90 s outage.
        p.retry = RetryPolicy::new(8, SimDuration::from_secs(2), SimDuration::from_secs(60));
        p.horizon = SimTime::from_secs(3000);
        p
    }

    /// A hardware kill whose only remote-CPU source is NIC-partitioned
    /// exactly when retrieval starts: the planner must degrade gracefully
    /// to the persistent checkpoint instead of erroring.
    pub fn degraded_nic_partition() -> ChaosPlan {
        let mut p = ChaosPlan::base("degraded_nic_partition");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(500),
                fault: FaultKind::Kill {
                    rank: 5,
                    kind: FailureKind::Hardware,
                },
            },
            // Rank 4 holds the only other replica of rank 5's shard
            // (group placement pairs (4, 5)); partition it across the
            // whole detection + serialization + replacement window.
            TimedFault {
                at: SimTime::from_secs(480),
                fault: FaultKind::NicPartition {
                    ranks: vec![4],
                    duration: SimDuration::from_secs(720),
                },
            },
        ];
        p.horizon = SimTime::from_secs(4800);
        p
    }

    /// Delayed heartbeat batches (long enough to expire leases, short
    /// enough that re-registration beats the confirmation streak) plus a
    /// degraded NIC during the eventual retrieval.
    pub fn flaky_heartbeats() -> ChaosPlan {
        let mut p = ChaosPlan::base("flaky_heartbeats");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(250),
                fault: FaultKind::HeartbeatDelay {
                    duration: SimDuration::from_secs(12),
                },
            },
            TimedFault {
                at: SimTime::from_secs(320),
                fault: FaultKind::HeartbeatDelay {
                    duration: SimDuration::from_secs(12),
                },
            },
            TimedFault {
                at: SimTime::from_secs(700),
                fault: FaultKind::NicDegrade {
                    factor: 2.0,
                    duration: SimDuration::from_secs(900),
                },
            },
            TimedFault {
                at: SimTime::from_secs(800),
                fault: FaultKind::Kill {
                    rank: 11,
                    kind: FailureKind::Hardware,
                },
            },
        ];
        p
    }

    /// Two correlated group losses in a row: the first should teach an
    /// adaptive policy that correlated failures are live, so it persists
    /// more aggressively before the second strikes. A fixed 3 h persist
    /// interval rolls the second recovery all the way back to the launch
    /// checkpoint.
    pub fn repeat_group_loss() -> ChaosPlan {
        let mut p = ChaosPlan::base("repeat_group_loss");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(900),
                fault: FaultKind::KillGroup {
                    group: 1,
                    kind: FailureKind::Hardware,
                },
            },
            TimedFault {
                at: SimTime::from_secs(5_100),
                fault: FaultKind::KillGroup {
                    group: 2,
                    kind: FailureKind::Hardware,
                },
            },
        ];
        p.horizon = SimTime::from_secs(9_600);
        p
    }

    /// The training NIC collapses (1500× degrade) before a hardware kill:
    /// remote-CPU retrieval over the dying fabric costs over an hour,
    /// while the persistent anchor — reached over the separate storage
    /// path — costs ~8 minutes plus bounded rework. An adaptive tier
    /// preference should flip to persistent-first; the paper's fixed
    /// hierarchy grinds through the degraded fabric.
    pub fn nic_collapse() -> ChaosPlan {
        let mut p = ChaosPlan::base("nic_collapse");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(240),
                fault: FaultKind::NicDegrade {
                    factor: 1_500.0,
                    duration: SimDuration::from_secs(14_000),
                },
            },
            TimedFault {
                at: SimTime::from_secs(1_000),
                fault: FaultKind::Kill {
                    rank: 5,
                    kind: FailureKind::Hardware,
                },
            },
        ];
        p.horizon = SimTime::from_secs(14_400);
        p
    }

    /// One spot-market preemption with a two-minute advance warning
    /// while the replacement pool is healthy: the benign half of the
    /// spot pair. The notice window flushes an incremental checkpoint,
    /// so the wave rolls back zero iterations even under a sparse
    /// cadence; wait-mode recovery is cheap here.
    pub fn spot_preemption_notice() -> ChaosPlan {
        let mut p = ChaosPlan::base("spot_preemption_notice");
        p.faults = vec![TimedFault {
            at: SimTime::from_secs(520),
            fault: FaultKind::SpotPreempt {
                rank: 6,
                notice: SimDuration::from_secs(120),
            },
        }];
        p
    }

    /// A spot-capacity crunch: the operator's control plane is down for
    /// 25 minutes (replacement requests are denied) and two machines are
    /// preempted inside the window, each with a 90-second warning.
    /// Wait-mode recovery stalls on the replacement backoff until the
    /// outage lifts; shrink-and-continue adopts the orphaned shards onto
    /// the survivors and trains on at 14/16 width. The retry budget is
    /// sized so the wait path still terminates before the horizon.
    pub fn spot_capacity_crunch() -> ChaosPlan {
        let mut p = ChaosPlan::base("spot_capacity_crunch");
        p.faults = vec![
            TimedFault {
                at: SimTime::from_secs(60),
                fault: FaultKind::OperatorOutage {
                    duration: SimDuration::from_secs(1_500),
                },
            },
            TimedFault {
                at: SimTime::from_secs(600),
                fault: FaultKind::SpotPreempt {
                    rank: 3,
                    notice: SimDuration::from_secs(90),
                },
            },
            TimedFault {
                at: SimTime::from_secs(610),
                fault: FaultKind::SpotPreempt {
                    rank: 11,
                    notice: SimDuration::from_secs(90),
                },
            },
        ];
        p.retry = RetryPolicy::new(40, SimDuration::from_secs(5), SimDuration::from_secs(60));
        p.horizon = SimTime::from_secs(3_600);
        p
    }

    /// The baseline hardware kill on the MoE deployment: exercises the
    /// expert-parallel timeline's sparse checkpoints through the same
    /// detection/serialize/retrieve/warm-up lifecycle as
    /// [`Self::kill_mid_checkpoint`].
    pub fn moe_kill_mid_checkpoint() -> ChaosPlan {
        let mut p = ChaosPlan::base("moe_kill_mid_checkpoint");
        p.scenario = Deployment::moe_gpt2_100b_p4d();
        p.faults = vec![TimedFault {
            at: SimTime::from_secs(500),
            fault: FaultKind::Kill {
                rank: 5,
                kind: FailureKind::Hardware,
            },
        }];
        p
    }

    /// Fleet-scale churn: 10 000 machines riding the SoA state path.
    /// Independent Poisson single-machine (software) churn — exponential
    /// inter-arrivals sampled once, at plan construction, from a fixed
    /// [`DetRng`] stream so the plan is a deterministic value — plus one
    /// correlated hardware group loss mid-run. The four invariants apply
    /// unchanged: single leader (over the [`ROOT_CANDIDATES`] seed set),
    /// no committed checkpoint lost below tolerance, recovery terminates
    /// before the horizon, zero spurious detections despite thousands of
    /// live heartbeat leases.
    pub fn fleet_wide_churn() -> ChaosPlan {
        const FLEET: usize = 10_000;
        let mut p = ChaosPlan::base("fleet_wide_churn");
        p.scenario.machines = FLEET;
        let mut rng = DetRng::new(0xF1EE7);
        let mut faults = Vec::new();
        // Poisson churn over [500 s, 1400 s): mean inter-arrival 180 s.
        // At 10k machines one iteration takes ~7 minutes, so the window
        // opens only after the first in-memory checkpoint has committed
        // (~426 s) — before that, a software-only failure has nothing to
        // recover from and the planner (correctly) refuses. Ranks are
        // drawn outside the root-candidate seed set so leader election
        // stays live however the churn lands (candidate loss is covered
        // by the paper-scale plans).
        let mut t = 500.0f64;
        loop {
            t += rng.exponential(1.0 / 180.0);
            if t >= 1400.0 {
                break;
            }
            let rank = rng.uniform_u64(ROOT_CANDIDATES as u64, FLEET as u64) as usize;
            faults.push(TimedFault {
                at: SimTime::from_secs(t as u64),
                fault: FaultKind::Kill {
                    rank,
                    kind: FailureKind::Software,
                },
            });
        }
        // One correlated rack loss in the middle of the churn window:
        // group 100 of mixed(10 000, 2) is the machine pair (200, 201) —
        // well clear of the candidate set.
        faults.push(TimedFault {
            at: SimTime::from_secs(900),
            fault: FaultKind::KillGroup {
                group: 100,
                kind: FailureKind::Hardware,
            },
        });
        faults.sort_by_key(|f| f.at);
        p.faults = faults;
        // Waves queue behind each other under churn (confirmed failures
        // arriving mid-retrieval defer to a follow-up wave), so the
        // horizon leaves room for the deferred tail to drain.
        p.horizon = SimTime::from_secs(4_200);
        p
    }

    /// Every named plan — the campaign matrix runs each against several
    /// seeds.
    pub fn catalog() -> Vec<ChaosPlan> {
        vec![
            ChaosPlan::kill_mid_checkpoint(),
            ChaosPlan::correlated_group_loss(),
            ChaosPlan::kv_outage_blackout(),
            ChaosPlan::root_churn(),
            ChaosPlan::replacement_exhaustion(),
            ChaosPlan::degraded_nic_partition(),
            ChaosPlan::flaky_heartbeats(),
            ChaosPlan::repeat_group_loss(),
            ChaosPlan::nic_collapse(),
            ChaosPlan::spot_preemption_notice(),
            ChaosPlan::spot_capacity_crunch(),
            ChaosPlan::moe_kill_mid_checkpoint(),
        ]
    }

    /// [`Self::catalog`] plus the fleet-scale plan — everything the chaos
    /// bin can name or run individually. The default campaign matrix
    /// sticks to the paper-scale catalog (the policy baselines are priced
    /// over it); the 10 000-machine plan runs as its own smoke and bench.
    pub fn extended_catalog() -> Vec<ChaosPlan> {
        let mut all = Self::catalog();
        all.push(Self::fleet_wide_churn());
        all
    }
}

/// One completed recovery wave.
#[derive(Clone, Debug)]
pub struct WaveReport {
    /// Wave number (0-based, in completion order).
    pub index: usize,
    /// The failures handled, as `rank:kind` labels.
    pub failures: Vec<String>,
    /// When the root confirmed the (first batch of) failures.
    pub detected_at: SimTime,
    /// Which recovery mechanism applied.
    pub case: RecoveryCase,
    /// The iteration training rolled back to.
    pub resumed_from_iteration: u64,
    /// When training resumed (or the wave completed, if more ranks were
    /// still down).
    pub resumed_at: SimTime,
    /// `resumed_at - detected_at`.
    pub downtime: SimDuration,
    /// Why the plan degraded to persistent storage, if it did.
    pub degraded: Option<String>,
    /// The freshest committed iteration *recoverable* at detection time —
    /// best CPU-tier iteration over intact hosts, or the persistent
    /// anchor, whichever is newer. The policy-safety check
    /// ([`check_policy_preserves_commits`]) compares this field across
    /// runs: an adaptive policy must never make it smaller than a fixed
    /// policy's.
    pub available_at_detect: u64,
}

/// The outcome of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The plan that ran.
    pub plan_name: String,
    /// The seed it ran under.
    pub seed: u64,
    /// The simulation horizon.
    pub horizon: SimTime,
    /// How many scheduled faults actually fired before the horizon.
    pub faults_injected: usize,
    /// Completed recovery waves, in order.
    pub waves: Vec<WaveReport>,
    /// Most concurrent leaders ever observed (invariant: ≤ 1).
    pub max_concurrent_leaders: usize,
    /// Times leadership changed identity.
    pub leader_changes: u64,
    /// Distinct alive ranks that ever reached the confirmation streak
    /// (invariant: 0 — the streak must absorb KV blips).
    pub spurious_detections: u64,
    /// Denied replacement requests that were retried with backoff.
    pub retry_attempts: u64,
    /// Replacement requests the operator denied (outage windows).
    pub replacements_denied: u64,
    /// The training iteration reached by the horizon.
    pub final_iteration: u64,
    /// Which policy drove the fault-tolerance knobs (`off` = the legacy
    /// fixed-at-launch behaviour, a fixed policy's name, or `adaptive`).
    pub policy: String,
    /// Knob changes the adaptive engine applied (0 for fixed / off).
    pub policy_decisions: u64,
    /// Persistent uploads completed by the policy driver during the run.
    pub persists_completed: u64,
    /// Recoveries rerouted to the persistent tier by the policy's tier
    /// preference.
    pub tier_overrides: u64,
    /// The fault-tolerance scheme active when the horizon was reached
    /// (`off` when no policy drives the run).
    pub scheme: String,
    /// Scheme switches the adaptive engine applied (0 for fixed / off).
    pub scheme_switches: u64,
    /// The recovery mode active when the horizon was reached (`off` when
    /// no policy drives the run; the policy-off executor always waits).
    pub mode: String,
    /// Recovery-mode switches the adaptive engine applied (0 for fixed /
    /// off).
    pub mode_switches: u64,
    /// The wasted-time ledger (paper §2.1): rework + downtime + visible
    /// checkpoint/persist overhead.
    pub wasted: WastedLedger,
    /// The causal flight-recorder trace: every recovery narrated as
    /// incident-stitched events (fault injected → confirmed → wave →
    /// retrieval → rollback → resume) plus background policy/persist
    /// events. Model-side state, so it is identical with the sink on or
    /// off and byte-identical across `--jobs` (covered by `render`).
    pub trace: Vec<CausalEvent>,
    /// Invariant violations; empty ⇔ the run is green.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether all invariants held.
    pub fn is_green(&self) -> bool {
        self.violations.is_empty()
    }

    /// Deterministic plain-text rendering. Two runs of the same plan and
    /// seed must produce byte-identical output (invariant 4); CI compares
    /// this rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos plan={} seed={} horizon={:.3}s\n",
            self.plan_name,
            self.seed,
            self.horizon.as_secs_f64()
        ));
        out.push_str(&format!(
            "faults_injected={} waves={}\n",
            self.faults_injected,
            self.waves.len()
        ));
        out.push_str(&format!(
            "leaders max_concurrent={} changes={}\n",
            self.max_concurrent_leaders, self.leader_changes
        ));
        out.push_str(&format!(
            "counters retries={} denied={} spurious={}\n",
            self.retry_attempts, self.replacements_denied, self.spurious_detections
        ));
        out.push_str(&format!(
            "policy={} decisions={} persists={} tier_overrides={} scheme={} \
             scheme_switches={} mode={} mode_switches={}\n",
            self.policy,
            self.policy_decisions,
            self.persists_completed,
            self.tier_overrides,
            self.scheme,
            self.scheme_switches,
            self.mode,
            self.mode_switches
        ));
        out.push_str(&format!(
            "wasted failures={} rework_iters={} rework={:.3}s downtime={:.3}s \
             overhead={:.3}s total={:.3}s\n",
            self.wasted.failures,
            self.wasted.rework_iters,
            self.wasted.rework.as_secs_f64(),
            self.wasted.downtime.as_secs_f64(),
            self.wasted.overhead.as_secs_f64(),
            self.wasted.total().as_secs_f64(),
        ));
        for w in &self.waves {
            out.push_str(&format!(
                "wave {}: failures=[{}] detected={:.3}s case={:?} resumed_iter={} \
                 resumed_at={:.3}s downtime={:.3}s degraded={} available={}\n",
                w.index,
                w.failures.join(","),
                w.detected_at.as_secs_f64(),
                w.case,
                w.resumed_from_iteration,
                w.resumed_at.as_secs_f64(),
                w.downtime.as_secs_f64(),
                w.degraded.as_deref().unwrap_or("-"),
                w.available_at_detect,
            ));
        }
        out.push_str(&format!("final_iteration={}\n", self.final_iteration));
        if self.violations.is_empty() {
            out.push_str("violations: none\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("violation: {v}\n"));
            }
        }
        for ev in &self.trace {
            out.push_str(&ev.render_line());
            out.push('\n');
        }
        // Derived incident analysis rides the same byte-identity
        // invariant: critical path, bounding phase and the exact
        // attribution check are all part of the canonical rendering.
        for line in crate::incident::render_summary(self) {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

fn class_of(kind: FailureKind) -> FailureClass {
    match kind {
        FailureKind::Hardware => FailureClass::Hardware,
        FailureKind::Software => FailureClass::Software,
    }
}

fn kind_label(kind: FailureKind) -> &'static str {
    match kind {
        FailureKind::Hardware => "hw",
        FailureKind::Software => "sw",
    }
}

#[derive(Debug)]
enum Ev {
    IterationDone(u64),
    Heartbeat(usize),
    DeliverHeartbeat(usize),
    CoordinationTick,
    Inject(usize),
    Churn {
        remaining: usize,
        period: SimDuration,
    },
    SerializeDone {
        wave: usize,
        token: u64,
    },
    ReplacementAttempt {
        wave: usize,
        rank: usize,
        attempt: u32,
    },
    ReplacementReady {
        wave: usize,
        rank: usize,
    },
    RetrievalDone {
        wave: usize,
    },
    WarmupDone {
        wave: usize,
    },
    PersistDone {
        iteration: u64,
        token: u64,
    },
    SpotKill {
        rank: usize,
    },
}

struct Wave {
    index: usize,
    failures: Vec<(usize, FailureKind)>,
    detected_at: SimTime,
    serialize_token: u64,
    serialize_done: bool,
    replacements_pending: BTreeSet<usize>,
    plan: Option<RecoveryPlan>,
    committed_at_detect: u64,
    available_at_detect: u64,
    /// The recovery mode captured when the wave opened: a shrink-mode
    /// wave never requests replacements and retrieves through a
    /// [`ShrinkPlan`] instead.
    shrink_mode: bool,
    /// The executed shrink plan, once retrieval starts (shrink-mode
    /// hardware waves only).
    shrink: Option<ShrinkPlan>,
}

/// Drives the fault-tolerance knobs of one chaos run: either a frozen
/// [`PolicyKnobs`] (fixed comparator) or a live [`PolicyEngine`]
/// (adaptive). `None` on the [`ChaosModel`] means the legacy fixed-at-
/// launch behaviour — bit-for-bit identical to runs before policies
/// existed.
///
/// The chaos engine applies the **cadence**, **persist interval** and
/// **tier preference** knobs. Replica-count (`m`) re-planning requires a
/// placement rebuild and is deliberately *not* applied mid-chaos; the
/// [`crate::runtime`] layer applies it at safe boundaries instead.
struct PolicyDriver {
    name: String,
    knobs: PolicyKnobs,
    engine: Option<PolicyEngine>,
    last_persist_at: SimTime,
    persist_token: u64,
    persist_inflight: bool,
    persists_done: u64,
    tier_overrides: u64,
    scheme_switches: u64,
    mode_switches: u64,
}

impl PolicyDriver {
    fn new(spec: &PolicySpec) -> PolicyDriver {
        let (knobs, engine) = match spec {
            PolicySpec::Fixed(f) => (f.knobs, None),
            PolicySpec::Adaptive(cfg) => {
                let initial = PolicyKnobs::paper_default();
                (initial, Some(PolicyEngine::new(cfg.clone(), initial)))
            }
        };
        PolicyDriver {
            name: spec.name().to_string(),
            knobs,
            engine,
            last_persist_at: SimTime::ZERO,
            persist_token: 0,
            persist_inflight: false,
            persists_done: 0,
            tier_overrides: 0,
            scheme_switches: 0,
            mode_switches: 0,
        }
    }
}

struct ChaosModel {
    sys: crate::scenario::GeminiSystem,
    kv: KvStore,
    sink: TelemetrySink,
    workers: Vec<WorkerAgent>,
    roots: Vec<RootAgent>,
    operator: CloudOperator,
    retry: RetryPolicy,
    faults: Vec<TimedFault>,
    // Precomputed fault windows.
    kv_outages: Vec<(SimTime, SimTime)>,
    hb_delays: Vec<(SimTime, SimTime)>,
    degrades: Vec<(SimTime, SimTime, f64)>,
    partitions: Vec<(SimTime, SimTime, Vec<usize>)>,
    /// Operator control-plane outage windows — the replacement-wait
    /// signal the recovery-mode pricing reads.
    op_outages: Vec<(SimTime, SimTime)>,
    // Live state.
    policy: Option<PolicyDriver>,
    /// Feasibility and pricing of the competing fault-tolerance schemes
    /// on this deployment, computed once at launch (the fabric and model
    /// shapes never change mid-run; degradation enters through the
    /// retrieval signals instead).
    scheme_signals: SchemeSignals,
    /// Whether an `m + 1`-th replica fits in CPU memory, priced once at
    /// launch (feeds the step-up recovery-mode candidate).
    step_up_feasible: bool,
    /// The extra replica's per-commit checkpoint traffic.
    step_up_overhead: SimDuration,
    ledger: WastedLedger,
    correlated_pending: BTreeSet<usize>,
    // Per-rank hot state lives in flat rank-indexed lanes (SoA), not
    // keyed maps: the coordination tick scans every rank once per
    // simulated second, and at fleet scale (10k machines × a month) the
    // O(log n) probes and pointer-chasing of per-rank map entries are
    // what the DES event budget goes to. Lane scans also visit ranks in
    // ascending order, which is exactly the iteration order the old
    // BTree keys had — reports and traces are unchanged.
    /// Failure lane: `Some(kind)` while the rank is down.
    down: Vec<Option<FailureKind>>,
    /// Number of `Some` entries in `down` — O(1) "anyone down?" checks.
    down_count: usize,
    /// Ranks a shrink-and-continue recovery removed from the job: no
    /// longer down, but never re-registered either. They stay `handled`
    /// so their saturated streaks can never re-confirm.
    detached: Vec<bool>,
    /// Number of `true` entries in `detached`.
    detached_count: usize,
    /// Iteration-time stretch after shrinking: `N / survivors` under
    /// the linear-scaling assumption; `1.0` at full width.
    slowdown: f64,
    muted_until: Vec<SimTime>,
    streak: Vec<u32>,
    /// Ranks already adopted by a recovery wave.
    handled: Vec<bool>,
    wave: Option<Wave>,
    waves_done: Vec<WaveReport>,
    next_wave_index: usize,
    serialize_seq: u64,
    current_iteration: u64,
    last_committed: u64,
    training_blocked: bool,
    // Accounting.
    injected: usize,
    max_leaders: usize,
    leader_changes: u64,
    last_leader: Option<String>,
    /// Lane of ranks already counted as spurious detections.
    spurious: Vec<bool>,
    spurious_count: u64,
    retry_attempts: u64,
    violations: Vec<String>,
    // Flight recorder (model-side, sink-independent).
    trace: Vec<CausalEvent>,
    /// Per-rank trace indices (FaultInjected/Confirmed) still awaiting
    /// the incident id of the wave that will adopt them.
    pending_trace: Vec<Vec<usize>>,
    /// When the rank's current failure was injected.
    injected_at: Vec<Option<SimTime>>,
    /// Ranks whose current failure already recorded its Confirmed event.
    confirm_noted: Vec<bool>,
    /// Applied-decision counter: the policy epoch stamped onto waves and
    /// persist charges.
    policy_epoch: u64,
    /// Interned `"{plan}:{seed}"` label scoping per-run counters; empty
    /// (and unused) when the sink is disabled.
    cell: &'static str,
    /// Interned plan name for the detection-latency histogram.
    plan_label: &'static str,
    /// `Some` on a drill-shaped run: what the drill reads beyond the
    /// report. A drill confirms on the first missing scan and stops at
    /// the first resume.
    drill: Option<DrillShape>,
}

fn in_window(windows: &[(SimTime, SimTime)], now: SimTime) -> bool {
    windows.iter().any(|&(s, e)| s <= now && now < e)
}

impl ChaosModel {
    fn kv_out(&self, now: SimTime) -> bool {
        in_window(&self.kv_outages, now)
    }

    /// If a heartbeat-delay window is active, the instant delivery
    /// resumes (the latest end among active windows).
    fn hb_delay_release(&self, now: SimTime) -> Option<SimTime> {
        self.hb_delays
            .iter()
            .filter(|&&(s, e)| s <= now && now < e)
            .map(|&(_, e)| e)
            .max()
    }

    fn unreachable_at(&self, now: SimTime) -> BTreeSet<usize> {
        let mut set = BTreeSet::new();
        for (s, e, ranks) in &self.partitions {
            if *s <= now && now < *e {
                set.extend(ranks.iter().copied());
            }
        }
        set
    }

    /// The recovery mode in force: the active policy's knob, or the
    /// paper's wait-for-replacement default on policy-off runs.
    fn active_mode(&self) -> RecoveryMode {
        self.policy
            .as_ref()
            .map_or(RecoveryMode::Wait, |d| d.knobs.mode)
    }

    fn degrade_factor_at(&self, now: SimTime) -> f64 {
        self.degrades
            .iter()
            .filter(|&&(s, e, _)| s <= now && now < e)
            .map(|&(_, _, f)| f.max(1.0))
            .product::<f64>()
            .max(1.0)
    }

    /// The freshest committed iteration recoverable right now: the best
    /// CPU-tier iteration over hosts whose CPU memory is intact, or the
    /// persistent anchor, whichever is newer.
    fn available_now(&self) -> u64 {
        let cpu_intact: BTreeSet<usize> = (0..self.sys.cluster.len())
            .filter(|&r| !matches!(self.down[r], Some(FailureKind::Hardware)) && !self.detached[r])
            .collect();
        let cpu = self.sys.store.latest_recoverable(&cpu_intact).unwrap_or(0);
        let anchor = self.sys.store.persistent().map_or(0, |m| m.iteration);
        cpu.max(anchor)
    }

    /// Appends one event to the model-side flight recorder and returns
    /// its index (for later incident-id patching).
    fn push_trace(&mut self, incident: Option<u64>, at: SimTime, kind: CausalKind) -> usize {
        let idx = self.trace.len();
        self.trace.push(CausalEvent { incident, at, kind });
        idx
    }

    /// Patches the still-unadopted FaultInjected/Confirmed events of
    /// `ranks` with the incident id of the wave adopting them.
    fn adopt_pending(&mut self, incident: u64, ranks: &[usize]) {
        for &rank in ranks {
            for idx in std::mem::take(&mut self.pending_trace[rank]) {
                self.trace[idx].incident = Some(incident);
            }
        }
    }

    /// The machine-group label for a set of failed ranks: `gN` when every
    /// rank sits in the same placement group, `multi` otherwise.
    fn group_label(&self, ranks: &[usize]) -> String {
        let groups = self.sys.placement.groups();
        for (gi, group) in groups.iter().enumerate() {
            if ranks.iter().all(|r| group.members.contains(r)) {
                return format!("g{gi}");
            }
        }
        "multi".to_string()
    }

    /// Bumps a counter scoped to this run's `(plan, seed)` cell, so
    /// concurrent `Scenario` runs sharing a sink never blend series.
    fn cell_count(&self, name: &'static str) {
        self.sink
            .counter_add_key(Key::labeled(name, "cell", self.cell), 1);
    }

    /// Feeds confirmed failures into the adaptive engine (fixed drivers
    /// and policy-off runs ignore them). A failure is *correlated* when
    /// its rank went down as part of a whole-group kill — the only kind
    /// of loss CPU replication cannot absorb.
    fn note_confirmed(&mut self, now: SimTime, failures: &[(usize, FailureKind)]) {
        if let Some(engine) = self
            .policy
            .as_mut()
            .and_then(|driver| driver.engine.as_mut())
        {
            for &(rank, kind) in failures {
                engine.observe_failure(
                    now,
                    self.correlated_pending.contains(&rank),
                    kind == FailureKind::Software,
                );
            }
        }
        for &(rank, _) in failures {
            self.correlated_pending.remove(&rank);
        }
    }

    /// Policy work at an unblocked iteration boundary: evaluate the
    /// adaptive engine against freshly sampled signals, record applied
    /// decisions, and kick off a persistent upload when the active
    /// interval has elapsed. No-op on policy-off runs, so the legacy
    /// event stream is untouched.
    fn policy_boundary(&mut self, ctx: &mut Context<'_, Ev>, now: SimTime) {
        if self.policy.is_none() {
            return;
        }
        let degrade = self.degrade_factor_at(now);
        let persist_upload = self.sys.retrieval_time(StorageTier::Persistent);
        let retrieval_remote = self
            .sys
            .retrieval_time(StorageTier::RemoteCpu)
            .mul_f64(degrade);
        let n = self.sys.cluster.len();
        let healthy = n - self.down_count - self.detached_count;
        // Recovery-mode pricing facts. The replacement wait is what the
        // operator would quote right now: any remaining control-plane
        // outage, then standby activation (if standbys are provisioned)
        // or the mean fresh-reserve delay.
        let outage_left = self
            .op_outages
            .iter()
            .filter(|&&(s, e)| s <= now && now < e)
            .map(|&(_, e)| e.saturating_since(now))
            .max()
            .unwrap_or(SimDuration::ZERO);
        let oc = *self.operator.config();
        let provision = if oc.standbys > 0 {
            oc.standby_activation
        } else {
            SimDuration::from_secs_f64(
                (oc.reserve_min.as_secs_f64() + oc.reserve_max.as_secs_f64()) / 2.0,
            )
        };
        let mode_signals = ModeSignals {
            replacement_wait: outage_left + provision,
            shrink_feasible: healthy > self.sys.scenario.config.replicas,
            repartition_time: self.sys.serialize_time() + retrieval_remote,
            // Throughput lost if the *next* hardware failure is absorbed
            // by shrinking (on top of any width already given up).
            degraded_frac: (n - healthy + 1) as f64 / n.max(1) as f64,
            // Stepping up means provisioning a hot spare — impossible
            // while the operator's control plane is down, so during an
            // outage the only candidates are waiting it out or shrinking.
            step_up_feasible: self.step_up_feasible && outage_left == SimDuration::ZERO,
            step_up_overhead: self.step_up_overhead,
        };
        let signals = PolicySignals {
            now,
            committed: self.last_committed,
            iteration_time: self.sys.iteration_time(),
            ckpt_overhead: self.sys.schedule.outcome.overhead,
            retrieval_remote,
            retrieval_persistent: persist_upload,
            persist_upload,
            persist_anchor: self.sys.store.persistent().map(|m| m.iteration),
            healthy_machines: healthy,
            machines: n,
            scheme: self.scheme_signals,
            mode: mode_signals,
        };
        let driver = self.policy.as_mut().expect("policy driver present");
        let mut decided: Option<(String, PolicySignalsSnapshot)> = None;
        let mut charged: Option<SimDuration> = None;
        if let Some(engine) = driver.engine.as_mut() {
            self.sink
                .counter_add_key(Key::labeled("policy.evaluations", "cell", self.cell), 1);
            if let Some(rec) = engine.evaluate(&signals) {
                // Apply cadence / persist / tier / scheme; `m` re-planning
                // is the runtime's job (placement rebuilds are unsafe
                // mid-chaos).
                let prev_scheme = driver.knobs.scheme;
                let prev_mode = driver.knobs.mode;
                driver.knobs = PolicyKnobs {
                    replicas: driver.knobs.replicas,
                    ..rec.knobs
                };
                if driver.knobs.mode != prev_mode {
                    driver.mode_switches += 1;
                    self.sink.counter_add_key(
                        Key::labeled("policy.mode.switches", "cell", self.cell),
                        1,
                    );
                    let from = prev_mode.label().to_string();
                    let to = driver.knobs.mode.label().to_string();
                    let why = rec.reason.clone();
                    self.sink.event(now, move || TelemetryEvent::Note {
                        message: format!("recovery mode {from} -> {to}: {why}"),
                    });
                }
                if driver.knobs.scheme != prev_scheme {
                    driver.scheme_switches += 1;
                    self.sink.counter_add_key(
                        Key::labeled("policy.scheme.switches", "cell", self.cell),
                        1,
                    );
                    let from = prev_scheme.label().to_string();
                    let to = driver.knobs.scheme.label().to_string();
                    let why = rec.reason.clone();
                    self.sink.event(now, move || TelemetryEvent::SchemeSwitch {
                        from,
                        to,
                        reason: why,
                    });
                }
                self.sink
                    .counter_add_key(Key::labeled("policy.decisions", "cell", self.cell), 1);
                self.policy_epoch += 1;
                decided = Some((rec.reason.clone(), signals.snapshot()));
                let knobs = rec.knobs;
                let reason = rec.reason.clone();
                self.sink
                    .event(now, move || TelemetryEvent::PolicyDecision {
                        ckpt_every_iters: knobs.ckpt_every_iters,
                        persist_interval_secs: knobs
                            .persist_interval
                            .map(|d| d.as_secs_f64().round() as u64),
                        replicas: knobs.replicas as u64,
                        tier_preference: knobs.tier.label().to_string(),
                        reason,
                    });
            }
        }
        if let Some(interval) = driver.knobs.persist_interval {
            if !driver.persist_inflight && now.saturating_since(driver.last_persist_at) >= interval
            {
                driver.persist_inflight = true;
                driver.persist_token += 1;
                driver.last_persist_at = now;
                let token = driver.persist_token;
                let iteration = self.last_committed;
                let overhead = persist_upload.mul_f64(PERSIST_VISIBLE_FRAC);
                self.ledger.record_overhead(overhead);
                charged = Some(overhead);
                self.sink.counter_add_key(
                    Key::labeled("policy.persists_started", "cell", self.cell),
                    1,
                );
                ctx.schedule_after(persist_upload, Ev::PersistDone { iteration, token });
            }
        }
        if let Some((reason, signals)) = decided {
            let epoch = self.policy_epoch;
            self.push_trace(
                None,
                now,
                CausalKind::PolicyDecision {
                    epoch,
                    reason,
                    signals,
                },
            );
        }
        if let Some(amount) = charged {
            let epoch = self.policy_epoch;
            self.push_trace(None, now, CausalKind::PersistCharged { amount, epoch });
        }
    }

    fn kill(&mut self, ctx: &mut Context<'_, Ev>, rank: usize, kind: FailureKind) {
        if rank >= self.sys.cluster.len() || self.down[rank].is_some() {
            return;
        }
        self.down[rank] = Some(kind);
        self.down_count += 1;
        self.sys.cluster.fail(rank, kind).expect("rank exists");
        if kind == FailureKind::Hardware {
            self.sys.store.machine_lost(rank);
        }
        self.training_blocked = true;
        let now = ctx.now();
        self.injected_at[rank] = Some(now);
        let idx = self.push_trace(
            None,
            now,
            CausalKind::FaultInjected {
                rank,
                class: class_of(kind),
            },
        );
        self.pending_trace[rank].push(idx);
        self.sink.event(now, || TelemetryEvent::FailureInjected {
            rank,
            kind: class_of(kind),
        });
    }

    fn begin_hw_replacement(&mut self, ctx: &mut Context<'_, Ev>, wave_idx: usize, rank: usize) {
        self.sys
            .cluster
            .begin_replacement(rank)
            .expect("rank exists");
        if let Some(w) = self.wave.as_mut() {
            w.replacements_pending.insert(rank);
        }
        ctx.schedule_after(
            SimDuration::ZERO,
            Ev::ReplacementAttempt {
                wave: wave_idx,
                rank,
                attempt: 0,
            },
        );
    }

    fn announce_failures(&mut self, now: SimTime, ranks: &[usize]) {
        for &rank in ranks {
            self.sink
                .event(now, || TelemetryEvent::HeartbeatMissed { rank });
        }
        let by = self.last_leader.clone().unwrap_or_default();
        let rank_vec = ranks.to_vec();
        self.sink.event(now, || TelemetryEvent::FailureDetected {
            ranks: rank_vec,
            by,
        });
    }

    fn start_wave(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        now: SimTime,
        failures: Vec<(usize, FailureKind)>,
    ) {
        let index = self.next_wave_index;
        self.next_wave_index += 1;
        for &(r, _) in &failures {
            self.handled[r] = true;
        }
        if let Some(drill) = self.drill.as_mut() {
            drill.detecting_root = self.last_leader.clone().unwrap_or_default();
        }
        self.note_confirmed(now, &failures);
        let ranks: Vec<usize> = failures.iter().map(|&(r, _)| r).collect();
        self.announce_failures(now, &ranks);
        self.serialize_seq += 1;
        let token = self.serialize_seq;
        let alive_count = self.sys.cluster.len() - self.down_count;
        self.sink
            .event(now, || TelemetryEvent::SerializationStarted {
                ranks: alive_count,
            });
        ctx.schedule_after(
            self.sys.serialize_time(),
            Ev::SerializeDone { wave: index, token },
        );
        let shrink_mode = self.active_mode() == RecoveryMode::Shrink;
        self.wave = Some(Wave {
            index,
            failures: failures.clone(),
            detected_at: now,
            serialize_token: token,
            serialize_done: false,
            replacements_pending: BTreeSet::new(),
            plan: None,
            committed_at_detect: self.last_committed,
            available_at_detect: self.available_now(),
            shrink_mode,
            shrink: None,
        });
        let incident = index as u64;
        self.adopt_pending(incident, &ranks);
        let group = self.group_label(&ranks);
        let policy_epoch = self.policy_epoch;
        self.push_trace(
            Some(incident),
            now,
            CausalKind::WaveOpened {
                ranks: ranks.clone(),
                group,
                policy_epoch,
            },
        );
        for (rank, kind) in failures {
            if kind == FailureKind::Hardware && !shrink_mode {
                self.begin_hw_replacement(ctx, index, rank);
            }
        }
    }

    /// A failure confirmed while the active wave is still serializing is
    /// merged into it: the wave restarts its serialization clock (the
    /// snapshot must now exclude the new victim) and requests any extra
    /// replacements.
    fn merge_wave(
        &mut self,
        ctx: &mut Context<'_, Ev>,
        now: SimTime,
        failures: Vec<(usize, FailureKind)>,
    ) {
        let Some(index) = self.wave.as_ref().map(|w| w.index) else {
            return;
        };
        for &(r, _) in &failures {
            self.handled[r] = true;
        }
        self.note_confirmed(now, &failures);
        let ranks: Vec<usize> = failures.iter().map(|&(r, _)| r).collect();
        self.announce_failures(now, &ranks);
        self.serialize_seq += 1;
        let token = self.serialize_seq;
        let available = self.available_now();
        if let Some(w) = self.wave.as_mut() {
            w.failures.extend(failures.iter().copied());
            w.serialize_token = token;
            w.serialize_done = false;
            // The merged victims may have taken replicas with them.
            w.available_at_detect = w.available_at_detect.min(available);
        }
        ctx.schedule_after(
            self.sys.serialize_time(),
            Ev::SerializeDone { wave: index, token },
        );
        let incident = index as u64;
        self.adopt_pending(incident, &ranks);
        let group = self.group_label(&ranks);
        self.push_trace(
            Some(incident),
            now,
            CausalKind::WaveMerged {
                ranks: ranks.clone(),
                group,
            },
        );
        let shrink_mode = self.wave.as_ref().is_some_and(|w| w.shrink_mode);
        for (rank, kind) in failures {
            if kind == FailureKind::Hardware && !shrink_mode {
                self.begin_hw_replacement(ctx, index, rank);
            }
        }
    }

    /// A recovery step failed: recorded as a violation (the wave carries
    /// on or is dropped, as the caller decides). A drill has nothing left
    /// to measure, so it keeps the typed error and stops.
    fn recovery_failed(&mut self, ctx: &mut Context<'_, Ev>, what: &str, err: GeminiError) {
        self.violations.push(format!("{what} failed: {err}"));
        if let Some(drill) = self.drill.as_mut() {
            drill.error.get_or_insert(err);
            ctx.stop();
        }
    }

    fn maybe_start_retrieval(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        let ready = self.wave.as_ref().is_some_and(|w| {
            w.plan.is_none() && w.serialize_done && w.replacements_pending.is_empty()
        });
        if !ready {
            return;
        }
        let unreachable = self.unreachable_at(now);
        let failures = self.wave.as_ref().expect("wave active").failures.clone();
        // Shrink-and-continue: a shrink-mode wave with hardware losses
        // skips replacements entirely — the survivors adopt the orphaned
        // checkpoint shards and training restarts at reduced width. The
        // shrink plan is lifted into a synthetic `RecoveryPlan` (sources =
        // the adoption moves) so the rest of the wave lifecycle —
        // invariant checks, telemetry, makespan, warm-up — is the exact
        // code the wait path runs.
        let shrink_wave = self.wave.as_ref().is_some_and(|w| w.shrink_mode)
            && failures.iter().any(|&(_, k)| k == FailureKind::Hardware);
        let mut shrink_plan: Option<ShrinkPlan> = None;
        let mut plan = if shrink_wave {
            let hw_down: BTreeSet<usize> = self
                .down
                .iter()
                .enumerate()
                .filter(|(_, k)| matches!(k, Some(FailureKind::Hardware)))
                .map(|(r, _)| r)
                .collect();
            let sp = match RecoveryPlanner.plan_shrink(&self.sys.store, &hw_down) {
                Ok(p) => p,
                Err(e) => {
                    self.recovery_failed(ctx, "shrink planning", e);
                    self.wave = None;
                    return;
                }
            };
            // Execute the adoptions: each survivor copies the orphaned
            // replica it inherits into its own CPU memory (the
            // persistent-fallback case reloads from storage instead).
            for mv in &sp.moves {
                if mv.tier != StorageTier::Persistent {
                    if let Err(e) = self.sys.store.adopt_shard(mv.owner, mv.to, sp.iteration) {
                        self.recovery_failed(ctx, "shrink adoption", e);
                    }
                }
            }
            let sources = sp
                .moves
                .iter()
                .map(|mv| RetrievalSource {
                    rank: mv.owner,
                    tier: mv.tier,
                    from: mv.from,
                })
                .collect();
            let rp = RecoveryPlan {
                case: sp.case,
                iteration: sp.iteration,
                sources,
                replaced: Vec::new(),
                degraded: Some(format!(
                    "shrink: {} survivors, throughput x{:.3}",
                    sp.survivors.len(),
                    sp.throughput_factor
                )),
            };
            shrink_plan = Some(sp);
            rp
        } else {
            match RecoveryPlanner.plan(&self.sys.store, &failures, &unreachable) {
                Ok(p) => p,
                Err(e) => {
                    self.recovery_failed(ctx, "recovery planning", e);
                    self.wave = None;
                    return;
                }
            }
        };
        // Policy tier override: when the active knobs prefer the
        // persistent anchor (degraded fabric makes remote-CPU retrieval
        // costlier than persistent + rollback), reroute a CPU-tier plan
        // onto the storage path. The rollback cost is deliberate; the
        // safety net is check_policy_preserves_commits, not invariant 2.
        let mut tier_overridden = false;
        if let Some(driver) = self.policy.as_mut() {
            if !shrink_wave
                && driver.knobs.tier == TierPreference::PersistentFirst
                && plan.case == RecoveryCase::HardwareFromCpu
            {
                if let Some(anchor) = self.sys.store.persistent() {
                    plan = plan.persistent_first(self.sys.cluster.len(), anchor.iteration);
                    driver.tier_overrides += 1;
                    tier_overridden = true;
                    self.sink.counter_add("policy.tier_overrides", 1);
                }
            }
        }
        // Invariant 2: with the *cumulative* hardware-failed set within
        // tolerance and no partition active, the committed checkpoint
        // must survive in CPU memory. A deliberate policy reroute is the
        // one sanctioned exception (checked cross-run instead).
        let hw_down: BTreeSet<usize> = self
            .down
            .iter()
            .enumerate()
            .filter(|(_, k)| matches!(k, Some(FailureKind::Hardware)))
            .map(|(r, _)| r)
            .collect();
        if !tier_overridden && self.sys.placement.recoverable(&hw_down) && unreachable.is_empty() {
            let committed = self.wave.as_ref().expect("wave active").committed_at_detect;
            if plan.case == RecoveryCase::PersistentFallback {
                // Only a violation when a CPU checkpoint had actually been
                // committed: under a sparse cadence (`ckpt_every_iters` >
                // 1) a fault can legitimately land before the first commit
                // ever completes, and falling back to the seeded
                // persistent anchor is then the *correct* path.
                if committed > 0 {
                    self.violations.push(format!(
                        "committed checkpoint lost below placement tolerance at t={:.0}s",
                        now.as_secs_f64()
                    ));
                }
            } else if plan.iteration < committed {
                self.violations.push(format!(
                    "rolled back past committed iteration {} to {} at t={:.0}s",
                    committed,
                    plan.iteration,
                    now.as_secs_f64()
                ));
            }
        }
        plan.record_telemetry(&self.sink, now);
        let incident = self.wave.as_ref().expect("wave active").index as u64;
        let (local, remote, persistent) = plan.tier_counts();
        let case = format!("{:?}", plan.case);
        let rollback_to = plan.iteration;
        let reads = plan.tier_reads();
        self.push_trace(
            Some(incident),
            now,
            CausalKind::RetrievalStarted {
                case,
                rollback_to,
                local,
                remote,
                persistent,
            },
        );
        for (rank, tier) in reads {
            self.push_trace(Some(incident), now, CausalKind::TierRead { rank, tier });
        }
        let mut makespan = self.sys.retrieval_makespan(&plan);
        // NIC degradation slows the training fabric; it hits remote-CPU
        // retrieval only. Local copies and the separate storage path
        // (persistent tier) bypass it — that bypass is exactly what the
        // persistent-first tier preference exploits.
        let base_makespan = makespan;
        if plan.case == RecoveryCase::HardwareFromCpu {
            let factor = self.degrade_factor_at(now);
            if factor > 1.0 {
                makespan = makespan.mul_f64(factor);
            }
        }
        // Competing-scheme retrieval effects (policy runs only; the
        // CpuInterleaved default is the exact legacy path):
        // * GpuTier — a software-only wave restores from the victim's own
        //   GPU memory, capping the makespan at the PCIe copy-back time
        //   (hardware losses take the GPU tier with them: no effect).
        // * ShardedHybrid — hardware waves fan the shard reads in from
        //   several peers. On a healthy fabric the replacement machine's
        //   own ingress NIC is already the bottleneck, so fan-in is
        //   floored at the undegraded makespan; it only claws back
        //   per-link degradation.
        if let Some(driver) = self.policy.as_ref().filter(|_| !shrink_wave) {
            match driver.knobs.scheme {
                SchemeChoice::GpuTier
                    if self.scheme_signals.gpu_feasible
                        && plan.case == RecoveryCase::SoftwareLocal
                        && self.scheme_signals.gpu_retrieval < makespan =>
                {
                    makespan = self.scheme_signals.gpu_retrieval;
                    self.cell_count("policy.scheme.fast_retrievals");
                }
                SchemeChoice::ShardedHybrid
                    if self.scheme_signals.sharded_feasible
                        && plan.case == RecoveryCase::HardwareFromCpu =>
                {
                    let fanned =
                        base_makespan.max(makespan.mul_f64(self.scheme_signals.sharded_factor));
                    if fanned < makespan {
                        makespan = fanned;
                        self.cell_count("policy.scheme.fast_retrievals");
                    }
                }
                _ => {}
            }
        }
        let index = self.wave.as_ref().expect("wave active").index;
        {
            let w = self.wave.as_mut().expect("wave active");
            w.plan = Some(plan);
            w.shrink = shrink_plan;
        }
        ctx.schedule_after(makespan, Ev::RetrievalDone { wave: index });
    }

    fn coordination_tick(&mut self, ctx: &mut Context<'_, Ev>) {
        let now = ctx.now();
        if self.kv_out(now) {
            return; // the KV store is unreachable: no campaigns, no scans
        }
        // Every alive, un-muted *candidate* campaigns; the store
        // arbitrates. Candidacy is capped at the first ROOT_CANDIDATES
        // ranks: at the paper's 16-machine scale every machine is a
        // candidate (behaviour unchanged), while at fleet scale a
        // 10k-rank cluster does not need — and production seed-node sets
        // do not run — ten thousand campaigns per coordination second.
        let candidates = self.roots.len().min(ROOT_CANDIDATES);
        let live = |rank: &usize| self.down[*rank].is_none();
        if !(0..candidates).any(|rank| live(&rank)) {
            // No live candidate: no campaign and no census, and the store
            // is not touched at all (a KV read expires due leases).
            return;
        }
        // One read of the election key serves every campaign and the
        // census (invariant 1): the live candidates whose identity is the
        // key's holder after the round.
        let holder = RootAgent::elect(&mut self.roots[..candidates], &mut self.kv, now, |rank| {
            self.down[rank].is_none() && now >= self.muted_until[rank]
        });
        let elected = holder.map(|rank| self.roots[rank].identity());
        let leaders: Vec<usize> = (0..candidates)
            .filter(|rank| live(rank) && elected == Some(self.roots[*rank].identity()))
            .collect();
        self.max_leaders = self.max_leaders.max(leaders.len());
        if leaders.len() > 1 {
            self.violations.push(format!(
                "{} concurrent leaders at t={:.0}s",
                leaders.len(),
                now.as_secs_f64()
            ));
        }
        let Some(&leader) = leaders.first() else {
            return; // leaderless gap (lease not yet expired): no scan
        };
        let identity = self.roots[leader].identity().to_string();
        if self.last_leader.as_deref() != Some(identity.as_str()) {
            if self.last_leader.is_some() {
                self.leader_changes += 1;
            }
            self.last_leader = Some(identity);
        }
        // Scan and advance confirmation streaks. The report's rank lists
        // are iterated directly (missing applied after alive, so a rank
        // somehow present in both still counts as missing) rather than
        // probing `contains` per rank — that inner probe made the tick
        // O(n^2) and dominated fleet-scale runs at n = 10,000.
        let n = self.sys.cluster.len();
        let confirm_ticks = if self.drill.is_some() {
            1
        } else {
            CONFIRM_TICKS
        };
        let report = self.roots[leader].scan(&mut self.kv, now, n);
        for &rank in &report.alive {
            self.streak[rank] = 0;
        }
        for &rank in &report.missing {
            self.streak[rank] = self.streak[rank].saturating_add(1);
        }
        // Record the confirmation instant once per real failure: the
        // flight recorder's Detect phase and the per-plan
        // detection-latency histogram both hang off this event.
        for rank in 0..n {
            if self.streak[rank] >= confirm_ticks
                && self.down[rank].is_some()
                && !self.confirm_noted[rank]
            {
                self.confirm_noted[rank] = true;
                let injected = self.injected_at[rank].unwrap_or(now);
                let latency = now.saturating_since(injected);
                let idx = self.push_trace(None, now, CausalKind::Confirmed { rank, latency });
                self.pending_trace[rank].push(idx);
                self.sink.observe_us_key(
                    Key::labeled("chaos.detection_latency_us", "plan", self.plan_label),
                    crate::incident::DETECTION_LATENCY_BOUNDS_US,
                    || latency.as_nanos() / 1_000,
                );
            }
        }
        let confirmed: Vec<usize> = (0..n)
            .filter(|&r| self.streak[r] >= confirm_ticks && !self.handled[r])
            .collect();
        if confirmed.is_empty() {
            return;
        }
        let mut real: Vec<(usize, FailureKind)> = Vec::new();
        for rank in confirmed {
            match self.down[rank] {
                Some(kind) => real.push((rank, kind)),
                None => {
                    // Alive but confirmed missing: the streak failed to
                    // absorb a blip. Counted, asserted zero by the suite.
                    if !self.spurious[rank] {
                        self.spurious[rank] = true;
                        self.spurious_count += 1;
                        self.cell_count("chaos.spurious_detections");
                    }
                }
            }
        }
        if real.is_empty() {
            return;
        }
        enum Action {
            Start,
            Merge,
            Defer,
        }
        let action = match &self.wave {
            None => Action::Start,
            Some(w) if w.plan.is_none() => Action::Merge,
            Some(_) => Action::Defer,
        };
        match action {
            Action::Start => self.start_wave(ctx, now, real),
            Action::Merge => self.merge_wave(ctx, now, real),
            // Retrieval already in flight: the ranks stay missing, their
            // streaks stay saturated, and the next tick after this wave
            // completes starts the follow-up wave.
            Action::Defer => {}
        }
    }
}

impl Model for ChaosModel {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Context<'_, Ev>, event: Ev) {
        match event {
            Ev::IterationDone(i) => {
                if self.training_blocked {
                    return; // chain dies; restarted when training resumes
                }
                let now = ctx.now();
                self.current_iteration = i;
                // Checkmate-style gradient replication makes *every*
                // iteration recoverable regardless of the checkpoint
                // cadence — the replicated gradients reconstruct the step
                // — but pays its fabric tax on every iteration (priced
                // below). Infeasible deployments fall back to the plain
                // cadence, so a frozen `checkmate_grad` comparator on an
                // undersized cluster degrades to `paper_3h`, not to magic.
                let grad_active = self.policy.as_ref().is_some_and(|p| {
                    p.knobs.scheme == SchemeChoice::GradientReplicate
                        && self.scheme_signals.gradient_feasible
                });
                let cadence = if grad_active {
                    1
                } else {
                    self.policy
                        .as_ref()
                        .map_or(1, |p| p.knobs.ckpt_every_iters.max(1))
                };
                if i % cadence == 0 {
                    self.sys.store.record_complete(i);
                    self.last_committed = i;
                    self.sink
                        .event(now, || TelemetryEvent::IterationComplete { iteration: i });
                }
                self.policy_boundary(ctx, now);
                let mut next_in = self.sys.iteration_time();
                if self.slowdown > 1.0 {
                    // Running shrunk: every iteration is stretched by the
                    // lost width, and that stretch is exactly the degraded
                    // throughput the wasted-time matrix charges to the
                    // shrink mode.
                    let shrink_tax = self.sys.iteration_time().mul_f64(self.slowdown - 1.0);
                    self.ledger.record_overhead(shrink_tax);
                    let epoch = self.policy_epoch;
                    self.push_trace(
                        None,
                        now,
                        CausalKind::PersistCharged {
                            amount: shrink_tax,
                            epoch,
                        },
                    );
                    next_in += shrink_tax;
                }
                if grad_active {
                    // The all-reduce stretches by the replication traffic:
                    // visible overhead in the ledger *and* a longer step.
                    let tax = self.scheme_signals.gradient_overhead;
                    self.ledger.record_overhead(tax);
                    next_in += tax;
                }
                ctx.schedule_after(next_in, Ev::IterationDone(i + 1));
            }
            Ev::PersistDone { iteration, token } => {
                let Some(driver) = self.policy.as_mut() else {
                    return;
                };
                if driver.persist_token != token {
                    return; // stale upload superseded (defensive; tokens are serial)
                }
                driver.persist_inflight = false;
                driver.persists_done += 1;
                // Monotonic guard: a rollback may have re-persisted an
                // older iteration in the meantime — never regress the
                // durable anchor.
                let monotonic = self
                    .sys
                    .store
                    .persistent()
                    .map_or(true, |m| iteration >= m.iteration);
                if monotonic {
                    self.sys.store.persist(iteration);
                }
                self.cell_count("policy.persists");
                self.sink.event(ctx.now(), || TelemetryEvent::Note {
                    message: format!("persistent checkpoint durable at iteration {iteration}"),
                });
            }
            Ev::Heartbeat(rank) => {
                if self.down[rank].is_some() {
                    return; // the process is gone; restarted on recovery
                }
                let now = ctx.now();
                if let Some(release) = self.hb_delay_release(now) {
                    // Sent now, delivered when the delay window closes.
                    ctx.schedule_at(release, Ev::DeliverHeartbeat(rank));
                } else if !self.kv_out(now) {
                    self.workers[rank]
                        .heartbeat(&mut self.kv, now)
                        .expect("heartbeat");
                }
                ctx.schedule_after(
                    self.sys.scenario.config.heartbeat_period,
                    Ev::Heartbeat(rank),
                );
            }
            Ev::DeliverHeartbeat(rank) => {
                let now = ctx.now();
                if self.down[rank].is_some() || self.kv_out(now) {
                    return;
                }
                self.workers[rank]
                    .heartbeat(&mut self.kv, now)
                    .expect("heartbeat");
            }
            Ev::CoordinationTick => {
                self.coordination_tick(ctx);
                ctx.schedule_after(SimDuration::from_secs(1), Ev::CoordinationTick);
            }
            Ev::SpotKill { rank } => {
                // The notice window has elapsed: the spot machine is
                // reclaimed, taking its CPU checkpoint replicas with it.
                self.kill(ctx, rank, FailureKind::Hardware);
            }
            Ev::Inject(i) => {
                let fault = self.faults[i].fault.clone();
                self.injected += 1;
                let label = format!("{fault:?}");
                self.sink
                    .event(ctx.now(), || TelemetryEvent::ChaosFault { fault: label });
                self.cell_count("chaos.faults");
                match fault {
                    FaultKind::Kill { rank, kind } => self.kill(ctx, rank, kind),
                    FaultKind::KillGroup { group, kind } => {
                        let members: Vec<usize> = self
                            .sys
                            .placement
                            .groups()
                            .get(group)
                            .map(|g| g.members.clone())
                            .unwrap_or_default();
                        for rank in members {
                            // Mark before killing: the whole group went
                            // down together, so when the detection streak
                            // confirms these ranks the policy engine must
                            // count them as *correlated* losses.
                            self.correlated_pending.insert(rank);
                            self.kill(ctx, rank, kind);
                        }
                    }
                    FaultKind::OperatorOutage { duration } => {
                        self.operator.set_outage_until(ctx.now() + duration);
                    }
                    FaultKind::SpotPreempt { rank, notice } => {
                        if rank < self.sys.cluster.len() && self.down[rank].is_none() {
                            // Advance warning: flush an incremental
                            // checkpoint of the current step before the
                            // machine is reclaimed. MoE flushes only the
                            // backbone + dirty expert fraction; dense
                            // flushes a full commit. The flush traffic is
                            // training-visible overhead, capped at the
                            // notice window.
                            let frac = match self.sys.scenario.workload.moe() {
                                Some(spec) => gemini_training::MoeSetup::new(
                                    self.sys.scenario.model,
                                    self.sys.scenario.instance,
                                    self.sys.scenario.machines,
                                    spec,
                                )
                                .steady_incremental_fraction()
                                .clamp(0.0, 1.0),
                                None => 1.0,
                            };
                            let iteration = self.current_iteration;
                            self.sys.store.record_complete(iteration);
                            self.last_committed = self.last_committed.max(iteration);
                            let flush = self.sys.bulk_ckpt_time().mul_f64(frac).min(notice);
                            self.ledger.record_overhead(flush);
                            let epoch = self.policy_epoch;
                            self.push_trace(
                                None,
                                ctx.now(),
                                CausalKind::PersistCharged {
                                    amount: flush,
                                    epoch,
                                },
                            );
                            self.cell_count("chaos.spot_flushes");
                            self.sink.event(ctx.now(), move || TelemetryEvent::Note {
                                message: format!(
                                    "spot preemption notice for rank {rank}: flushed \
                                     incremental checkpoint at iteration {iteration} \
                                     ({:.0}% of full)",
                                    frac * 100.0
                                ),
                            });
                            ctx.schedule_after(notice, Ev::SpotKill { rank });
                        }
                    }
                    FaultKind::RootChurn { kills, period } => {
                        if kills > 0 {
                            ctx.schedule_after(
                                SimDuration::ZERO,
                                Ev::Churn {
                                    remaining: kills,
                                    period,
                                },
                            );
                        }
                    }
                    // Window faults act through the precomputed windows;
                    // the Inject event only marks them in the event log.
                    FaultKind::KvOutage { .. }
                    | FaultKind::HeartbeatDelay { .. }
                    | FaultKind::NicDegrade { .. }
                    | FaultKind::NicPartition { .. } => {}
                }
            }
            Ev::Churn { remaining, period } => {
                let now = ctx.now();
                if !self.kv_out(now) {
                    let mut leader = None;
                    for rank in 0..self.roots.len().min(ROOT_CANDIDATES) {
                        if self.down[rank].is_none()
                            && self.roots[rank].is_leader(&mut self.kv, now)
                        {
                            leader = Some(rank);
                            break;
                        }
                    }
                    if let Some(rank) = leader {
                        let _ = self.roots[rank].resign(&mut self.kv, now);
                        self.muted_until[rank] = now + CHURN_MUTE;
                        let label = format!("root churn: {} resigned", self.roots[rank].identity());
                        self.sink
                            .event(now, || TelemetryEvent::ChaosFault { fault: label });
                    }
                }
                if remaining > 1 {
                    ctx.schedule_after(
                        period,
                        Ev::Churn {
                            remaining: remaining - 1,
                            period,
                        },
                    );
                }
            }
            Ev::SerializeDone { wave, token } => {
                let current = self
                    .wave
                    .as_ref()
                    .is_some_and(|w| w.index == wave && w.serialize_token == token);
                if !current {
                    return; // superseded by a merge, or a stale wave
                }
                self.wave.as_mut().expect("wave active").serialize_done = true;
                self.push_trace(Some(wave as u64), ctx.now(), CausalKind::SerializeDone);
                self.sink
                    .event(ctx.now(), || TelemetryEvent::SerializationFinished);
                self.maybe_start_retrieval(ctx);
            }
            Ev::ReplacementAttempt {
                wave,
                rank,
                attempt,
            } => {
                let active = self
                    .wave
                    .as_ref()
                    .is_some_and(|w| w.index == wave && w.replacements_pending.contains(&rank));
                if !active {
                    return;
                }
                let now = ctx.now();
                match self.operator.try_request_replacement(now, ctx.rng()) {
                    Some(provision) => {
                        self.sink
                            .event(now, || TelemetryEvent::ReplacementRequested {
                                rank,
                                standby: provision.from_standby,
                                ready_at: provision.ready_at,
                            });
                        ctx.schedule_at(provision.ready_at, Ev::ReplacementReady { wave, rank });
                    }
                    None => {
                        self.retry_attempts += 1;
                        let class = TimeoutClass::classify(attempt, self.retry.max_attempts);
                        let label = match class {
                            TimeoutClass::Transient => "transient",
                            TimeoutClass::Degraded => "degraded",
                            TimeoutClass::Fatal => "fatal",
                        };
                        self.sink.counter_add_key(
                            Key::labeled2(
                                "chaos.replacement_retries",
                                "class",
                                label,
                                "cell",
                                self.cell,
                            ),
                            1,
                        );
                        match self.retry.backoff(attempt) {
                            Some(backoff) => {
                                self.sink.event(now, || TelemetryEvent::RetryAttempt {
                                    operation: "cluster.replacement".to_string(),
                                    attempt,
                                    backoff,
                                });
                                ctx.schedule_after(
                                    backoff,
                                    Ev::ReplacementAttempt {
                                        wave,
                                        rank,
                                        attempt: attempt + 1,
                                    },
                                );
                            }
                            None => {
                                // Fatal: the wave can never finish; the
                                // termination invariant reports it.
                                self.violations.push(format!(
                                    "replacement retry budget exhausted for rank {rank} \
                                     after {} attempts",
                                    attempt + 1
                                ));
                            }
                        }
                    }
                }
            }
            Ev::ReplacementReady { wave, rank } => {
                let active = self
                    .wave
                    .as_ref()
                    .is_some_and(|w| w.index == wave && w.replacements_pending.contains(&rank));
                if !active {
                    return;
                }
                self.sys
                    .cluster
                    .complete_replacement(rank, ctx.now())
                    .expect("rank was put in Replacing state");
                self.wave
                    .as_mut()
                    .expect("wave active")
                    .replacements_pending
                    .remove(&rank);
                self.push_trace(
                    Some(wave as u64),
                    ctx.now(),
                    CausalKind::ReplacementReady { rank },
                );
                self.sink
                    .event(ctx.now(), || TelemetryEvent::MachineReplaced { rank });
                self.maybe_start_retrieval(ctx);
            }
            Ev::RetrievalDone { wave } => {
                let active = self
                    .wave
                    .as_ref()
                    .is_some_and(|w| w.index == wave && w.plan.is_some());
                if !active {
                    return;
                }
                self.push_trace(Some(wave as u64), ctx.now(), CausalKind::RetrievalDone);
                self.sink
                    .event(ctx.now(), || TelemetryEvent::RetrievalFinished);
                ctx.schedule_after(
                    self.sys.scenario.config.restart_warmup,
                    Ev::WarmupDone { wave },
                );
            }
            Ev::WarmupDone { wave } => {
                if !self.wave.as_ref().is_some_and(|w| w.index == wave) {
                    return;
                }
                let now = ctx.now();
                let w = self.wave.take().expect("wave active");
                let plan = w.plan.expect("retrieval implies a plan");
                for &(rank, kind) in &w.failures {
                    if w.shrink.is_some() && kind == FailureKind::Hardware {
                        // Shrink-and-continue: the machine leaves the job
                        // instead of being replaced. It stays `handled`
                        // (its saturated streak can never re-confirm) and
                        // never re-registers or heartbeats again.
                        if self.down[rank].take().is_some() {
                            self.down_count -= 1;
                        }
                        if !self.detached[rank] {
                            self.detached[rank] = true;
                            self.detached_count += 1;
                        }
                        self.injected_at[rank] = None;
                        self.pending_trace[rank].clear();
                        continue;
                    }
                    if kind == FailureKind::Software {
                        self.sys.cluster.restart(rank).expect("rank exists");
                    }
                    if self.down[rank].take().is_some() {
                        self.down_count -= 1;
                    }
                    self.handled[rank] = false;
                    self.streak[rank] = 0;
                    self.confirm_noted[rank] = false;
                    self.injected_at[rank] = None;
                    self.pending_trace[rank].clear();
                    if !self.kv_out(now) {
                        self.workers[rank]
                            .register(&mut self.kv, now)
                            .expect("re-register");
                    }
                    ctx.schedule_after(
                        self.sys.scenario.config.heartbeat_period,
                        Ev::Heartbeat(rank),
                    );
                }
                if let Some(sp) = &w.shrink {
                    let n = self.sys.cluster.len();
                    let width = n.saturating_sub(self.detached_count).max(1);
                    self.slowdown = n as f64 / width as f64;
                    let factor = sp.throughput_factor;
                    self.sink.event(now, move || TelemetryEvent::Note {
                        message: format!("shrunk to {width} survivors (throughput x{factor:.3})"),
                    });
                    self.cell_count("chaos.shrinks");
                }
                // Wasted-time ledger (Eq. 1's terms, measured not modelled):
                // every iteration past the resume point must be re-trained,
                // and the whole detect→resume window was downtime.
                let rolled_back = self.current_iteration.saturating_sub(plan.iteration);
                self.ledger.record_failure(
                    rolled_back,
                    self.sys.iteration_time(),
                    now.saturating_since(w.detected_at),
                );
                let incident = w.index as u64;
                // Same expression as the ledger's rework contribution, so
                // the attribution invariant holds to the nanosecond.
                let rework = self.sys.iteration_time() * rolled_back;
                self.push_trace(
                    Some(incident),
                    now,
                    CausalKind::RolledBack {
                        from: self.current_iteration,
                        to: plan.iteration,
                        rework,
                    },
                );
                self.current_iteration = plan.iteration;
                // The rollback target is the newest commit of the resumed
                // timeline: anything committed past it was abandoned.
                self.last_committed = plan.iteration;
                self.push_trace(
                    Some(incident),
                    now,
                    CausalKind::Resumed {
                        iteration: plan.iteration,
                    },
                );
                self.sink.event(now, || TelemetryEvent::TrainingResumed {
                    iteration: plan.iteration,
                });
                self.cell_count("chaos.waves");
                if self.sink.is_enabled() {
                    let name = format!("wave-{}", w.index);
                    self.sink.span("chaos", || name.clone(), w.detected_at, now);
                }
                self.waves_done.push(WaveReport {
                    index: w.index,
                    failures: w
                        .failures
                        .iter()
                        .map(|&(r, k)| format!("{r}:{}", kind_label(k)))
                        .collect(),
                    detected_at: w.detected_at,
                    case: plan.case,
                    resumed_from_iteration: plan.iteration,
                    resumed_at: now,
                    downtime: now.saturating_since(w.detected_at),
                    degraded: plan.degraded.clone(),
                    available_at_detect: w.available_at_detect,
                });
                if let Some(drill) = self.drill.as_mut() {
                    // A drill measures one recovery: it ends at the resume.
                    drill.shrink = w.shrink;
                    ctx.stop();
                    return;
                }
                if self.down_count == 0 {
                    self.training_blocked = false;
                    let mut next_in = self.sys.iteration_time();
                    if self.slowdown > 1.0 {
                        next_in = next_in.mul_f64(self.slowdown);
                    }
                    ctx.schedule_after(next_in, Ev::IterationDone(plan.iteration + 1));
                }
                // Otherwise more ranks are still down (killed during the
                // retrieval); their saturated streaks start the next wave
                // on the next coordination tick.
            }
        }
    }
}

/// A drill-shaped run's hand-off to [`execute_chaos`]: the system the
/// drill already built to time its fault, and, filled in on return, what
/// the drill reads beyond the [`ChaosReport`].
#[derive(Default)]
pub(crate) struct DrillShape {
    /// The plan's system, built with the run's seed (taken by the
    /// executor instead of profiling the deployment a second time).
    pub(crate) system: Option<crate::scenario::GeminiSystem>,
    /// The root leader that opened the first wave.
    pub(crate) detecting_root: String,
    /// The first wave's executed shrink plan, when it shrank.
    pub(crate) shrink: Option<ShrinkPlan>,
    /// The recovery step that failed and ended the run, if any.
    pub(crate) error: Option<GeminiError>,
}

/// The single recovery executor behind every public entry point.
///
/// `drill: Some(..)` shapes the run as a drill: a failure is confirmed on
/// the first missing scan instead of after [`CONFIRM_TICKS`], the run
/// stops at the first resume, and the shape is filled in on return.
pub(crate) fn execute_chaos(
    plan: &ChaosPlan,
    seed: u64,
    sink: TelemetrySink,
    policy: Option<&PolicySpec>,
    mut drill: Option<&mut DrillShape>,
) -> Result<ChaosReport, GeminiError> {
    let mut sys = match drill.as_mut().and_then(|d| d.system.take()) {
        Some(sys) => sys,
        None => plan.scenario.build_system(seed)?,
    };
    // Jobs start from a persisted initial checkpoint (iteration 0) — what
    // the persistent-fallback path rolls back to.
    sys.store.persist(0);
    sys.schedule.record_telemetry(&sink, SimTime::ZERO);
    let n = sys.cluster.len();
    let groups = sys.placement.groups().len();
    for f in &plan.faults {
        match &f.fault {
            FaultKind::Kill { rank, .. } if *rank >= n => {
                return Err(GeminiError::UnknownRank(*rank));
            }
            FaultKind::KillGroup { group, .. } if *group >= groups => {
                return Err(GeminiError::InvalidPartitionInput(
                    "chaos plan references an unknown placement group",
                ));
            }
            FaultKind::SpotPreempt { rank, .. } if *rank >= n => {
                return Err(GeminiError::UnknownRank(*rank));
            }
            FaultKind::NicPartition { ranks, .. } => {
                if let Some(&r) = ranks.iter().find(|&&r| r >= n) {
                    return Err(GeminiError::UnknownRank(r));
                }
            }
            _ => {}
        }
    }

    // Precompute the window faults.
    let mut kv_outages = Vec::new();
    let mut hb_delays = Vec::new();
    let mut degrades = Vec::new();
    let mut partitions = Vec::new();
    let mut op_outages = Vec::new();
    for f in &plan.faults {
        match &f.fault {
            FaultKind::KvOutage { duration } => kv_outages.push((f.at, f.at + *duration)),
            FaultKind::OperatorOutage { duration } => {
                // Applied through the Inject event as before; the window
                // copy feeds the recovery-mode replacement-wait signal.
                op_outages.push((f.at, f.at + *duration));
            }
            FaultKind::HeartbeatDelay { duration } => {
                hb_delays.push((f.at, f.at + *duration));
            }
            FaultKind::NicDegrade { factor, duration } => {
                degrades.push((f.at, f.at + *duration, *factor));
            }
            FaultKind::NicPartition { ranks, duration } => {
                partitions.push((f.at, f.at + *duration, ranks.clone()));
            }
            _ => {}
        }
    }

    let gcfg = sys.scenario.config;
    let iter_time = sys.iteration_time();
    // Price the competing fault-tolerance schemes on this deployment once:
    // feasibility and static costs feed the policy engine's scheme choice
    // and the executor's retrieval/commit effects.
    let scheme_sig = scheme_signals(&sys.scheme_inputs());
    // Step-up feasibility and cost, priced once: the machine must hold
    // its own shard plus `m + 1` replica slots, and the extra replica
    // adds its proportional share of the bulk checkpoint traffic PLUS
    // the standing rent of the hot spare itself — one extra machine's
    // share of fleet time, paid every iteration whether or not anything
    // fails, with a 25% carry premium for keeping its CPU image warm.
    // Without the rent term a hot spare looks free and the mode
    // comparator would step up even on a quiet fleet.
    let step_up_feasible = sys.scenario.ckpt_bytes_per_machine() * (gcfg.replicas as u64 + 2)
        <= sys.scenario.instance.cpu_mem;
    let step_up_overhead = sys
        .bulk_ckpt_time()
        .mul_f64(1.0 / gcfg.replicas.max(1) as f64)
        + sys.iteration_time().mul_f64(1.25 / n.max(1) as f64);
    // A fixed step-up policy pre-allocates the hot spare it recovers
    // through (the operator activates it instead of reserving afresh).
    let mut operator_cfg = plan.operator;
    if let Some(PolicySpec::Fixed(f)) = policy {
        if f.knobs.mode == RecoveryMode::StepUp {
            operator_cfg.standbys += 1;
        }
    }
    let mut kv = KvStore::new().with_telemetry(sink.clone());
    let mut workers: Vec<WorkerAgent> = (0..n)
        .map(|r| WorkerAgent::new(r, r as u64, gcfg))
        .collect();
    for w in workers.iter_mut() {
        w.register(&mut kv, SimTime::ZERO).expect("register");
    }
    let roots: Vec<RootAgent> = (0..n)
        .map(|r| RootAgent::new(&format!("machine-{r}"), &gcfg))
        .collect();

    // The cell label scopes per-run counters to this (plan, seed); interning
    // only matters when metrics are actually recorded, so skip the global
    // intern table entirely on disabled sinks (campaign hot path).
    let (cell, plan_label) = if sink.is_enabled() {
        (
            intern_label(&format!("{}:{}", plan.name, seed)),
            intern_label(&plan.name),
        )
    } else {
        ("", "")
    };

    let mut model = ChaosModel {
        sys,
        kv,
        sink: sink.clone(),
        workers,
        roots,
        operator: CloudOperator::new(operator_cfg).with_telemetry(sink.clone()),
        retry: plan.retry,
        faults: plan.faults.clone(),
        kv_outages,
        hb_delays,
        degrades,
        partitions,
        op_outages,
        policy: policy.map(PolicyDriver::new),
        scheme_signals: scheme_sig,
        step_up_feasible,
        step_up_overhead,
        ledger: WastedLedger::default(),
        correlated_pending: BTreeSet::new(),
        down: vec![None; n],
        down_count: 0,
        detached: vec![false; n],
        detached_count: 0,
        slowdown: 1.0,
        muted_until: vec![SimTime::ZERO; n],
        streak: vec![0; n],
        handled: vec![false; n],
        wave: None,
        waves_done: Vec::new(),
        next_wave_index: 0,
        serialize_seq: 0,
        current_iteration: 0,
        last_committed: 0,
        training_blocked: false,
        injected: 0,
        max_leaders: 0,
        leader_changes: 0,
        last_leader: None,
        spurious: vec![false; n],
        spurious_count: 0,
        retry_attempts: 0,
        violations: Vec::new(),
        trace: Vec::new(),
        pending_trace: vec![Vec::new(); n],
        injected_at: vec![None; n],
        confirm_noted: vec![false; n],
        policy_epoch: 0,
        cell,
        plan_label,
        drill: drill.as_ref().map(|_| DrillShape::default()),
    };

    let mut engine = Engine::new(seed).with_probe(EngineTelemetryProbe::boxed(sink.clone(), 256));
    engine.prime_at(SimTime::ZERO, Ev::CoordinationTick);
    for r in 0..n {
        engine.prime_after(gcfg.heartbeat_period, Ev::Heartbeat(r));
    }
    engine.prime_after(iter_time, Ev::IterationDone(1));
    for (i, f) in plan.faults.iter().enumerate() {
        engine.prime_at(f.at, Ev::Inject(i));
    }
    engine.run(&mut model, Some(plan.horizon), 50_000_000);
    if let (Some(out), Some(shape)) = (drill, model.drill.take()) {
        *out = shape;
    }

    // Invariant 3: recovery terminates before the horizon.
    let mut violations = model.violations;
    if let Some(w) = &model.wave {
        violations.push(format!(
            "recovery wave {} still in flight at the horizon",
            w.index
        ));
    }
    if model.down_count > 0 {
        violations.push(format!(
            "{} rank(s) still down at the horizon",
            model.down_count
        ));
    }
    if sink.is_enabled() {
        sink.counter_add_key(Key::labeled("chaos.runs", "cell", cell), 1);
        sink.counter_add_key(
            Key::labeled("chaos.violations", "cell", cell),
            violations.len() as u64,
        );
    }

    let (
        policy_name,
        policy_decisions,
        persists_completed,
        tier_overrides,
        scheme,
        scheme_switches,
        mode,
        mode_switches,
    ) = match &model.policy {
        Some(d) => (
            d.name.clone(),
            d.engine.as_ref().map_or(0, |e| e.stats().applied),
            d.persists_done,
            d.tier_overrides,
            d.knobs.scheme.label().to_string(),
            d.scheme_switches,
            d.knobs.mode.label().to_string(),
            d.mode_switches,
        ),
        None => (
            "off".to_string(),
            0,
            0,
            0,
            "off".to_string(),
            0,
            "off".to_string(),
            0,
        ),
    };

    let report = ChaosReport {
        plan_name: plan.name.clone(),
        seed,
        horizon: plan.horizon,
        faults_injected: model.injected,
        waves: model.waves_done,
        max_concurrent_leaders: model.max_leaders,
        leader_changes: model.leader_changes,
        spurious_detections: model.spurious_count,
        retry_attempts: model.retry_attempts,
        replacements_denied: model.operator.requests_denied(),
        final_iteration: model.current_iteration,
        policy: policy_name,
        policy_decisions,
        persists_completed,
        tier_overrides,
        scheme,
        scheme_switches,
        mode,
        mode_switches,
        wasted: model.ledger,
        trace: model.trace,
        violations,
    };
    // Post-run sink artifacts (flight-recorder mirror, incident metrics,
    // phase spans, chrome-trace flow lane). Emitted *after* the run so the
    // enabled-sink event stream never perturbs model execution order.
    crate::incident::record_sink_artifacts(&report, &sink);
    Ok(report)
}

/// The cross-run policy-safety check: for every wave (matched by index),
/// the `candidate` run must have had at least as fresh a committed
/// checkpoint *recoverable at detection* as the `baseline` run of the
/// same plan and seed. An adaptive policy may deliberately roll back
/// further (tier override trades rollback for a faster path), but it must
/// never have *lost* a committed checkpoint a fixed policy would have
/// kept. Returns human-readable violations (empty ⇔ safe).
pub fn check_policy_preserves_commits(
    candidate: &ChaosReport,
    baseline: &ChaosReport,
) -> Vec<String> {
    let mut out = Vec::new();
    for (c, b) in candidate.waves.iter().zip(&baseline.waves) {
        if c.available_at_detect < b.available_at_detect {
            out.push(format!(
                "wave {}: policy '{}' had only iteration {} recoverable at \
                 detection where '{}' kept {}",
                c.index,
                candidate.policy,
                c.available_at_detect,
                baseline.policy,
                b.available_at_detect
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test-local shorthand for the executor with an explicit sink.
    fn chaos_with(
        plan: &ChaosPlan,
        seed: u64,
        sink: TelemetrySink,
    ) -> Result<ChaosReport, GeminiError> {
        execute_chaos(plan, seed, sink, None, None)
    }

    /// Test-local shorthand for a policy-driven run.
    fn chaos_policy(
        plan: &ChaosPlan,
        seed: u64,
        sink: TelemetrySink,
        policy: &PolicySpec,
    ) -> Result<ChaosReport, GeminiError> {
        execute_chaos(plan, seed, sink, Some(policy), None)
    }

    #[test]
    fn kill_mid_checkpoint_recovers_green() {
        let report = chaos_with(
            &ChaosPlan::kill_mid_checkpoint(),
            1,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::HardwareFromCpu);
        assert_eq!(report.max_concurrent_leaders, 1);
        assert_eq!(report.spurious_detections, 0);
        // Training resumed and kept iterating after the wave.
        assert!(report.final_iteration > report.waves[0].resumed_from_iteration);
    }

    #[test]
    fn confirmation_streak_delays_detection_but_bounds_it() {
        let report = chaos_with(
            &ChaosPlan::kill_mid_checkpoint(),
            1,
            TelemetrySink::enabled(),
        )
        .unwrap();
        let detected = report.waves[0].detected_at.as_secs_f64();
        // Kill at 500 s; TTL 15 s + CONFIRM_TICKS scans + scan granularity.
        assert!(
            (515.0..=525.0).contains(&detected),
            "detected at {detected:.1}s"
        );
    }

    #[test]
    fn group_loss_degrades_to_persistent_legitimately() {
        let report = chaos_with(
            &ChaosPlan::correlated_group_loss(),
            2,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::PersistentFallback);
        assert_eq!(report.waves[0].resumed_from_iteration, 0);
    }

    #[test]
    fn kv_outage_causes_no_spurious_recovery() {
        // Outage only — every lease expires, nothing must be "recovered".
        let mut plan = ChaosPlan::kv_outage_blackout();
        plan.faults.truncate(1); // keep only the KvOutage
        let report = chaos_with(&plan, 3, TelemetrySink::enabled()).unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert!(report.waves.is_empty());
        assert_eq!(report.spurious_detections, 0);
    }

    #[test]
    fn kv_outage_then_real_failure_still_detected() {
        let report = chaos_with(
            &ChaosPlan::kv_outage_blackout(),
            3,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::SoftwareLocal);
        assert_eq!(report.spurious_detections, 0);
    }

    #[test]
    fn root_churn_never_elects_two_leaders() {
        let report = chaos_with(&ChaosPlan::root_churn(), 4, TelemetrySink::enabled()).unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.max_concurrent_leaders, 1);
        // Three forced resignations → leadership moved at least three times.
        assert!(
            report.leader_changes >= 3,
            "leader_changes = {}",
            report.leader_changes
        );
        assert_eq!(report.waves.len(), 1);
    }

    #[test]
    fn replacement_exhaustion_retries_with_backoff_until_success() {
        let report = chaos_with(
            &ChaosPlan::replacement_exhaustion(),
            5,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert!(report.retry_attempts > 0, "expected denied-then-retried");
        assert_eq!(report.retry_attempts, report.replacements_denied);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::HardwareFromCpu);
    }

    #[test]
    fn nic_partition_degrades_to_persistent_gracefully() {
        let report = chaos_with(
            &ChaosPlan::degraded_nic_partition(),
            6,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::PersistentFallback);
        assert!(
            report.waves[0].degraded.is_some(),
            "degradation reason must be recorded"
        );
    }

    #[test]
    fn flaky_heartbeats_absorbed_by_the_streak() {
        let report =
            chaos_with(&ChaosPlan::flaky_heartbeats(), 7, TelemetrySink::enabled()).unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.spurious_detections, 0);
        assert_eq!(report.waves.len(), 1, "only the real kill recovers");
    }

    #[test]
    fn failure_during_serialization_merges_into_the_wave() {
        // First kill at 500 s → confirmed ≈ 522 s, serialization runs to
        // ≈ 684 s. A second victim confirmed ≈ 552 s lands mid-serialize
        // and must merge into the active wave (the snapshot restarts).
        let mut plan = ChaosPlan::kill_mid_checkpoint();
        plan.faults.push(TimedFault {
            at: SimTime::from_secs(530),
            fault: FaultKind::Kill {
                rank: 10,
                kind: FailureKind::Software,
            },
        });
        let report = chaos_with(&plan, 8, TelemetrySink::enabled()).unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1, "merged into one wave");
        assert_eq!(report.waves[0].failures.len(), 2);
        assert_eq!(report.waves[0].case, RecoveryCase::HardwareFromCpu);
    }

    #[test]
    fn failure_during_retrieval_starts_a_second_wave() {
        // The second kill strikes while wave 0 is retrieving/warming up:
        // it must not corrupt the in-flight wave, and must be recovered
        // by a follow-up wave once the first completes.
        let mut plan = ChaosPlan::kill_mid_checkpoint();
        plan.faults.push(TimedFault {
            at: SimTime::from_secs(1000),
            fault: FaultKind::Kill {
                rank: 2,
                kind: FailureKind::Software,
            },
        });
        plan.horizon = SimTime::from_secs(3600);
        let sink = TelemetrySink::enabled();
        let report = chaos_with(&plan, 8, sink.clone()).unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 2, "second failure gets its own wave");
        assert_eq!(report.waves[1].case, RecoveryCase::SoftwareLocal);
        // Rank 5's new machine has committed nothing since wave 0, so in
        // wave 1 it reads its shard from its group peer, not locally.
        use gemini_telemetry::Tier;
        let rank5: Vec<(Tier, Option<usize>)> = sink
            .find(|e| matches!(e, TelemetryEvent::RecoveryTierHit { rank: 5, .. }))
            .into_iter()
            .map(|te| match te.event {
                TelemetryEvent::RecoveryTierHit { tier, from, .. } => (tier, from),
                _ => unreachable!("filtered to tier hits"),
            })
            .collect();
        assert_eq!(
            rank5,
            vec![(Tier::RemoteCpu, Some(4)), (Tier::RemoteCpu, Some(4))],
            "wave 0 and wave 1 both read rank 5's shard from rank 4"
        );
    }

    #[test]
    fn same_seed_reruns_are_byte_identical() {
        for plan in [ChaosPlan::kill_mid_checkpoint(), ChaosPlan::root_churn()] {
            let a = chaos_with(&plan, 9, TelemetrySink::disabled()).unwrap();
            let b = chaos_with(&plan, 9, TelemetrySink::enabled()).unwrap();
            assert_eq!(a.render(), b.render(), "plan {}", plan.name);
        }
    }

    #[test]
    fn chaos_emits_typed_fault_and_retry_events() {
        use TelemetryEvent as E;
        let sink = TelemetrySink::enabled();
        chaos_with(&ChaosPlan::replacement_exhaustion(), 5, sink.clone()).unwrap();
        assert!(!sink.find(|e| matches!(e, E::ChaosFault { .. })).is_empty());
        assert!(!sink
            .find(|e| matches!(e, E::RetryAttempt { .. }))
            .is_empty());
        let snap = sink.metrics_snapshot();
        // Run-scoped counters carry the (plan, seed) cell label.
        let cell = intern_label("replacement_exhaustion:5");
        assert!(snap.counter(Key::labeled("chaos.faults", "cell", cell)) >= 2);
        assert_eq!(snap.counter(Key::labeled("chaos.runs", "cell", cell)), 1);
        assert!(snap.counter(gemini_telemetry::Key::plain("cluster.replacement_denied")) > 0);
    }

    #[test]
    fn unknown_rank_in_plan_rejected() {
        let mut plan = ChaosPlan::kill_mid_checkpoint();
        plan.faults[0].fault = FaultKind::Kill {
            rank: 99,
            kind: FailureKind::Hardware,
        };
        assert!(chaos_with(&plan, 1, TelemetrySink::enabled()).is_err());
    }

    #[test]
    fn campaign_runs_the_catalog_deterministically() {
        let plans = vec![ChaosPlan::kill_mid_checkpoint(), ChaosPlan::root_churn()];
        let seeds = [1, 2];
        let run = |jobs| {
            crate::Scenario::chaos_campaign(plans.clone())
                .seeds(&seeds)
                .jobs(jobs)
                .run()
                .unwrap()
        };
        let (a, b) = (run(1), run(2));
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.render(), y.render());
        }
    }

    // ------------------------------------------------------- policies ----

    fn paper_fixed() -> PolicySpec {
        PolicySpec::Fixed(gemini_core::FixedPolicy {
            name: "paper_3h",
            knobs: PolicyKnobs::paper_default(),
        })
    }

    #[test]
    fn policy_off_runs_are_unchanged_by_the_policy_layer() {
        // The fixed paper policy has the same knobs the legacy path hard-
        // codes; apart from persist scheduling (which never fires inside
        // this horizon) the wave structure must match policy-off exactly.
        let plan = ChaosPlan::kill_mid_checkpoint();
        let off = chaos_with(&plan, 11, TelemetrySink::disabled()).unwrap();
        let fixed = chaos_policy(&plan, 11, TelemetrySink::disabled(), &paper_fixed()).unwrap();
        assert_eq!(off.policy, "off");
        assert_eq!(fixed.policy, "paper_3h");
        assert_eq!(off.waves.len(), fixed.waves.len());
        for (a, b) in off.waves.iter().zip(&fixed.waves) {
            assert_eq!(a.detected_at, b.detected_at);
            assert_eq!(a.resumed_at, b.resumed_at);
            assert_eq!(a.case, b.case);
            assert_eq!(a.available_at_detect, b.available_at_detect);
        }
        assert_eq!(off.final_iteration, fixed.final_iteration);
        assert!(off.is_green() && fixed.is_green());
    }

    #[test]
    fn wasted_ledger_accounts_every_run() {
        let report = chaos_with(
            &ChaosPlan::kill_mid_checkpoint(),
            1,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert_eq!(report.wasted.failures, 1);
        // Ledger downtime equals the wave's reported downtime.
        assert_eq!(report.wasted.downtime, report.waves[0].downtime);
        assert!(report.wasted.total() >= report.wasted.downtime);
    }

    #[test]
    fn new_plans_are_green_policy_off() {
        for (plan, seed) in [
            (ChaosPlan::repeat_group_loss(), 1),
            (ChaosPlan::nic_collapse(), 1),
        ] {
            let report = chaos_with(&plan, seed, TelemetrySink::disabled()).unwrap();
            assert!(
                report.is_green(),
                "plan {}: {:?}",
                plan.name,
                report.violations
            );
            assert!(!report.waves.is_empty(), "plan {}", plan.name);
        }
    }

    #[test]
    fn adaptive_persists_ahead_of_the_second_group_loss() {
        let plan = ChaosPlan::repeat_group_loss();
        let sink = TelemetrySink::enabled();
        let adaptive = chaos_policy(&plan, 1, sink.clone(), &PolicySpec::adaptive()).unwrap();
        let fixed = chaos_policy(&plan, 1, TelemetrySink::disabled(), &paper_fixed()).unwrap();
        assert!(adaptive.is_green(), "violations: {:?}", adaptive.violations);
        assert!(fixed.is_green(), "violations: {:?}", fixed.violations);
        assert_eq!(adaptive.waves.len(), 2);
        assert_eq!(fixed.waves.len(), 2);
        // The first loss teaches the engine; it persists before the second.
        assert!(adaptive.policy_decisions >= 1, "no decision applied");
        assert!(adaptive.persists_completed >= 1, "no persist completed");
        assert!(
            adaptive.waves[1].resumed_from_iteration > fixed.waves[1].resumed_from_iteration,
            "adaptive {} vs fixed {}",
            adaptive.waves[1].resumed_from_iteration,
            fixed.waves[1].resumed_from_iteration
        );
        assert!(
            adaptive.wasted.total() < fixed.wasted.total(),
            "adaptive {:?} vs fixed {:?}",
            adaptive.wasted.total(),
            fixed.wasted.total()
        );
        // Safety: adaptive never lost a checkpoint the fixed policy kept.
        assert!(check_policy_preserves_commits(&adaptive, &fixed).is_empty());
        // Decisions surfaced as typed telemetry.
        assert!(!sink
            .find(|e| matches!(e, TelemetryEvent::PolicyDecision { .. }))
            .is_empty());
        let snap = sink.metrics_snapshot();
        let cell = intern_label("repeat_group_loss:1");
        assert!(snap.counter(Key::labeled("policy.evaluations", "cell", cell)) > 0);
        assert!(snap.counter(Key::labeled("policy.persists", "cell", cell)) >= 1);
    }

    #[test]
    fn adaptive_fans_in_when_the_nic_collapses() {
        // The engine pre-positions onto the sharded scheme during the
        // degrade window (the fan-in claws back the per-link slowdown),
        // and the tier rule — priced against the *sharded* remote path —
        // keeps CPU-first rather than paying a persistent rollback the
        // fan-in beats.
        let plan = ChaosPlan::nic_collapse();
        let adaptive =
            chaos_policy(&plan, 1, TelemetrySink::disabled(), &PolicySpec::adaptive()).unwrap();
        let fixed = chaos_policy(&plan, 1, TelemetrySink::disabled(), &paper_fixed()).unwrap();
        assert!(adaptive.is_green(), "violations: {:?}", adaptive.violations);
        assert!(fixed.is_green(), "violations: {:?}", fixed.violations);
        assert!(adaptive.scheme_switches >= 1, "scheme switch must fire");
        assert_eq!(adaptive.scheme, "sharded_hybrid");
        assert_eq!(adaptive.tier_overrides, 0, "fan-in supersedes the reroute");
        assert_eq!(adaptive.waves[0].case, RecoveryCase::HardwareFromCpu);
        assert_eq!(fixed.waves[0].case, RecoveryCase::HardwareFromCpu);
        // Fanning in beats grinding the 1500×-degraded fabric alone.
        assert!(
            adaptive.waves[0].downtime < fixed.waves[0].downtime,
            "adaptive {:?} vs fixed {:?}",
            adaptive.waves[0].downtime,
            fixed.waves[0].downtime
        );
        assert!(adaptive.wasted.total() < fixed.wasted.total());
        assert!(check_policy_preserves_commits(&adaptive, &fixed).is_empty());
    }

    #[test]
    fn adaptive_ties_fixed_on_quiet_plans() {
        // One uncorrelated kill over a healthy fabric: the engine has no
        // signal to act on, so the adaptive run must match the paper's
        // fixed policy wave-for-wave.
        let plan = ChaosPlan::kill_mid_checkpoint();
        let adaptive =
            chaos_policy(&plan, 3, TelemetrySink::disabled(), &PolicySpec::adaptive()).unwrap();
        let fixed = chaos_policy(&plan, 3, TelemetrySink::disabled(), &paper_fixed()).unwrap();
        assert_eq!(adaptive.policy_decisions, 0, "no signal, no decision");
        assert_eq!(adaptive.wasted, fixed.wasted);
        assert_eq!(adaptive.waves.len(), fixed.waves.len());
        assert_eq!(adaptive.waves[0].resumed_at, fixed.waves[0].resumed_at);
    }

    #[test]
    fn policy_runs_are_byte_identical_per_seed() {
        for spec in [PolicySpec::adaptive(), paper_fixed()] {
            let a = chaos_policy(
                &ChaosPlan::repeat_group_loss(),
                5,
                TelemetrySink::disabled(),
                &spec,
            )
            .unwrap();
            let b = chaos_policy(
                &ChaosPlan::repeat_group_loss(),
                5,
                TelemetrySink::enabled(),
                &spec,
            )
            .unwrap();
            assert_eq!(a.render(), b.render(), "policy {}", spec.name());
        }
    }

    // ------------------------------------------- spot / shrink / modes ----

    fn fixed_mode(mode: RecoveryMode) -> PolicySpec {
        PolicySpec::Fixed(gemini_core::FixedPolicy {
            name: match mode {
                RecoveryMode::Wait => "mode_wait",
                RecoveryMode::Shrink => "mode_shrink",
                RecoveryMode::StepUp => "mode_step_up",
            },
            knobs: PolicyKnobs::with_mode(mode),
        })
    }

    #[test]
    fn spot_preemption_flush_commits_before_the_kill() {
        let report = chaos_with(
            &ChaosPlan::spot_preemption_notice(),
            1,
            TelemetrySink::enabled(),
        )
        .unwrap();
        assert!(report.is_green(), "violations: {:?}", report.violations);
        assert_eq!(report.waves.len(), 1);
        assert_eq!(report.waves[0].case, RecoveryCase::HardwareFromCpu);
        // The notice-window flush committed the in-flight iteration, so
        // the wave resumes from the progress at preemption time (~520 s
        // at ~62 s/iteration), not an older checkpoint.
        assert!(
            report.waves[0].resumed_from_iteration >= 7,
            "resumed from {}",
            report.waves[0].resumed_from_iteration
        );
        // The flush itself is visible overhead in the ledger.
        assert!(report.wasted.overhead > SimDuration::ZERO);
    }

    #[test]
    fn shrink_mode_adopts_shards_and_continues_on_survivors() {
        let plan = ChaosPlan::spot_capacity_crunch();
        let wait = chaos_policy(
            &plan,
            1,
            TelemetrySink::disabled(),
            &fixed_mode(RecoveryMode::Wait),
        )
        .unwrap();
        let shrink = chaos_policy(
            &plan,
            1,
            TelemetrySink::disabled(),
            &fixed_mode(RecoveryMode::Shrink),
        )
        .unwrap();
        assert!(wait.is_green(), "wait violations: {:?}", wait.violations);
        assert!(
            shrink.is_green(),
            "shrink violations: {:?}",
            shrink.violations
        );
        assert_eq!(shrink.mode, "shrink");
        // Shrink never touches the (dead) control plane.
        assert_eq!(shrink.retry_attempts, 0);
        assert!(wait.retry_attempts > 0, "wait must stall on the outage");
        let sw = &shrink.waves[0];
        assert_eq!(sw.case, RecoveryCase::HardwareFromCpu);
        assert!(
            sw.degraded.as_deref().unwrap_or("").contains("shrink"),
            "degraded = {:?}",
            sw.degraded
        );
        // Both preemptions land in one wave; the survivors carry on at
        // 14/16 width long before the outage lifts.
        assert!(
            sw.downtime < wait.waves[0].downtime,
            "shrink {:?} vs wait {:?}",
            sw.downtime,
            wait.waves[0].downtime
        );
        assert!(shrink.final_iteration > sw.resumed_from_iteration);
        // During the crunch, shrinking wastes less total time than
        // waiting out the operator outage.
        assert!(
            shrink.wasted.total() < wait.wasted.total(),
            "shrink {:?} vs wait {:?}",
            shrink.wasted.total(),
            wait.wasted.total()
        );
        assert!(check_policy_preserves_commits(&shrink, &wait).is_empty());
    }

    #[test]
    fn step_up_mode_recovers_through_the_hot_spare() {
        // The step-up comparator pre-allocates a standby, so the benign
        // spot preemption recovers at activation speed instead of paying
        // a fresh reserve.
        let plan = ChaosPlan::spot_preemption_notice();
        let wait = chaos_policy(
            &plan,
            1,
            TelemetrySink::disabled(),
            &fixed_mode(RecoveryMode::Wait),
        )
        .unwrap();
        let step = chaos_policy(
            &plan,
            1,
            TelemetrySink::disabled(),
            &fixed_mode(RecoveryMode::StepUp),
        )
        .unwrap();
        assert!(wait.is_green() && step.is_green());
        assert_eq!(step.mode, "step_up");
        assert!(
            step.waves[0].downtime < wait.waves[0].downtime,
            "step {:?} vs wait {:?}",
            step.waves[0].downtime,
            wait.waves[0].downtime
        );
    }

    #[test]
    fn adaptive_switches_to_shrink_in_a_capacity_crunch() {
        let plan = ChaosPlan::spot_capacity_crunch();
        let adaptive =
            chaos_policy(&plan, 1, TelemetrySink::disabled(), &PolicySpec::adaptive()).unwrap();
        assert!(adaptive.is_green(), "violations: {:?}", adaptive.violations);
        // The 25-minute outage blows the replacement wait past the
        // shrink degradation cost well before the preemptions land, so
        // the engine switches to shrink, absorbs both preemptions by
        // repartitioning onto the survivors, and — once the outage lifts
        // and waiting is cheap again — switches back.
        assert!(adaptive.mode_switches >= 1, "no mode switch fired");
        assert!(adaptive.waves.iter().any(|w| w
            .degraded
            .as_deref()
            .unwrap_or("")
            .contains("shrink")));
        // Render carries the mode columns.
        assert!(adaptive.render().contains("mode="));
        assert!(adaptive.render().contains("mode_switches="));
    }

    #[test]
    fn moe_chaos_plan_is_green_and_byte_identical() {
        let plan = ChaosPlan::moe_kill_mid_checkpoint();
        let a = chaos_with(&plan, 1, TelemetrySink::disabled()).unwrap();
        let b = chaos_with(&plan, 1, TelemetrySink::enabled()).unwrap();
        assert!(a.is_green(), "violations: {:?}", a.violations);
        assert_eq!(a.waves.len(), 1);
        assert_eq!(a.waves[0].case, RecoveryCase::HardwareFromCpu);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn shrink_runs_are_byte_identical_across_sinks() {
        let plan = ChaosPlan::spot_capacity_crunch();
        let spec = fixed_mode(RecoveryMode::Shrink);
        let a = chaos_policy(&plan, 7, TelemetrySink::disabled(), &spec).unwrap();
        let b = chaos_policy(&plan, 7, TelemetrySink::enabled(), &spec).unwrap();
        assert_eq!(a.render(), b.render());
    }
}
