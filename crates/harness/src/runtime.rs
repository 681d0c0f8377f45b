//! A synchronous runtime façade over the whole system — the API a
//! downstream user drives.
//!
//! [`GeminiRuntime`] owns the assembled deployment (cluster, placement,
//! metadata store, byte-level replica vault, coordination agents, cloud
//! operator) behind three verbs:
//!
//! * [`GeminiRuntime::train`] — advance `n` iterations; every iteration
//!   checkpoints to CPU memory (metadata + real encoded bytes) and worker
//!   agents keep their health leases alive;
//! * [`GeminiRuntime::inject_failure`] — kill machines (software or
//!   hardware);
//! * [`GeminiRuntime::recover`] — run the full recovery pipeline
//!   (detection via lease expiry, serialization, replacement, retrieval
//!   with checksum verification, warmup) and roll the job back to the
//!   recovered iteration.
//!
//! The event-driven drill (`crate::drill`) exercises the same machinery at
//! event granularity; the runtime trades that fidelity for a simple,
//! imperative interface with the same measured costs.
//!
//! # Policies
//!
//! [`GeminiRuntime::launch_with_policy`] puts the fault-tolerance knobs
//! under a [`PolicySpec`]: a fixed policy freezes the checkpoint cadence,
//! persist interval, replica count and tier preference at launch; the
//! adaptive policy re-evaluates them at every iteration boundary through a
//! [`PolicyEngine`]. The runtime is the only layer allowed to apply a
//! replica-count (`m`) change: it rebuilds the placement, metadata store
//! and byte vault at a safe boundary and charges the extra replication
//! round as visible overhead. The plain [`GeminiRuntime::launch`] keeps
//! the historical manual behaviour (checkpoint every iteration, persist
//! only on [`GeminiRuntime::persist`]).

use std::collections::BTreeSet;

use crate::scenario::{Deployment, GeminiSystem};
use gemini_baselines::competing::scheme_signals;
use gemini_cluster::{CloudOperator, FailureKind, OperatorConfig};
use gemini_core::agents::{RootAgent, ScanReport, WorkerAgent};
use gemini_core::policy::{
    PolicyDecisionRecord, PolicyEngine, PolicyKnobs, PolicySpec, TierPreference,
};
use gemini_core::recovery::{RecoveryCase, RecoveryPlan, RecoveryPlanner};
use gemini_core::vault::ReplicaVault;
use gemini_core::{GeminiError, HierarchicalStore, PolicySignals, StorageTier, WastedLedger};
use gemini_kvstore::KvStore;
use gemini_net::ByteSize;
use gemini_sim::{SimDuration, SimTime};
use gemini_training::{DataLoader, DataLoaderState, SyntheticCorpus};

/// What [`GeminiRuntime::recover`] reports.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    /// Which recovery mechanism applied.
    pub case: RecoveryCase,
    /// The iteration the job rolled back to.
    pub resumed_from_iteration: u64,
    /// Iterations of progress lost.
    pub iterations_lost: u64,
    /// Wall-clock downtime of the recovery.
    pub downtime: SimDuration,
    /// The full plan, for inspection.
    pub plan: RecoveryPlan,
}

/// A live training job under GEMINI's protection.
pub struct GeminiRuntime {
    sys: GeminiSystem,
    kv: KvStore,
    workers: Vec<WorkerAgent>,
    root: RootAgent,
    operator: CloudOperator,
    vault: ReplicaVault,
    shard_bytes: usize,
    loader: DataLoader,
    persisted_loader: DataLoaderState,
    clock: SimTime,
    iteration: u64,
    last_committed: u64,
    pending_failures: Vec<(usize, FailureKind)>,
    // ---- policy layer ----
    policy_name: String,
    engine: Option<PolicyEngine>,
    knobs: PolicyKnobs,
    auto: bool,
    last_persist_at: SimTime,
    ledger: WastedLedger,
    replica_rebuilds: u64,
}

impl GeminiRuntime {
    /// Launches a runtime for `scenario`. `shard_bytes` sizes the synthetic
    /// model-state payload carried per machine in the byte vault (small in
    /// tests; the *timing* always uses the scenario's real shard sizes).
    ///
    /// Knobs stay manual: a checkpoint commits every iteration and
    /// persistent checkpoints happen only on [`GeminiRuntime::persist`].
    /// Use [`GeminiRuntime::launch_with_policy`] to put them under a
    /// policy.
    pub fn launch(
        scenario: Deployment,
        operator: OperatorConfig,
        shard_bytes: usize,
        seed: u64,
    ) -> Result<GeminiRuntime, GeminiError> {
        Self::launch_inner(scenario, operator, shard_bytes, seed, None)
    }

    /// Launches a runtime whose fault-tolerance knobs are driven by
    /// `policy`: checkpoint cadence, automatic persistent checkpoints,
    /// retrieval-tier preference and — for the adaptive policy — online
    /// re-planning of all of them (including the replica count `m`) at
    /// iteration boundaries.
    pub fn launch_with_policy(
        scenario: Deployment,
        operator: OperatorConfig,
        shard_bytes: usize,
        seed: u64,
        policy: &PolicySpec,
    ) -> Result<GeminiRuntime, GeminiError> {
        Self::launch_inner(scenario, operator, shard_bytes, seed, Some(policy))
    }

    fn launch_inner(
        scenario: Deployment,
        operator: OperatorConfig,
        shard_bytes: usize,
        seed: u64,
        policy: Option<&PolicySpec>,
    ) -> Result<GeminiRuntime, GeminiError> {
        let (policy_name, engine, knobs, auto) = match policy {
            None => (
                "manual".to_string(),
                None,
                PolicyKnobs::paper_default(),
                false,
            ),
            Some(PolicySpec::Fixed(f)) => (f.name.to_string(), None, f.knobs, true),
            Some(PolicySpec::Adaptive(cfg)) => {
                let knobs = PolicyKnobs::paper_default();
                (
                    "adaptive".to_string(),
                    Some(PolicyEngine::new(cfg.clone(), knobs)),
                    knobs,
                    true,
                )
            }
        };
        // A policy's launch `m` is authoritative: the deployment is built
        // with the placement the policy asks for.
        let mut scenario = scenario;
        if policy.is_some() {
            scenario.config.replicas = knobs.replicas;
        }
        let mut sys = scenario.build_system(seed)?;
        sys.store.persist(0);
        let n = sys.cluster.len();
        let mut kv = KvStore::new();
        let gcfg = sys.scenario.config;
        let mut workers: Vec<WorkerAgent> = (0..n)
            .map(|r| WorkerAgent::new(r, r as u64, gcfg))
            .collect();
        for w in workers.iter_mut() {
            w.register(&mut kv, SimTime::ZERO)
                .expect("fresh store accepts registrations");
        }
        let mut root = RootAgent::new("machine-0", &gcfg);
        root.campaign(&mut kv, SimTime::ZERO)
            .expect("fresh store runs the election");
        let vault = ReplicaVault::new(
            &sys.placement,
            // Byte-level capacity scaled to the synthetic shard size: the
            // same 2-buffers × m-replicas headroom as the real deployment.
            ByteSize::from_bytes((shard_bytes as u64 + 64) * 2 * gcfg.replicas as u64 + 4096),
        )?;
        // The data pipeline: a synthetic stand-in for Wikipedia-en, sharded
        // across the world. The loader's position is part of every
        // checkpoint so recovery replays the exact sample sequence.
        let world = (scenario.machines as u64) * scenario.instance.gpus as u64;
        let corpus = SyntheticCorpus::paper_sized(world * 8 * 100, seed);
        let loader = DataLoader::new(corpus, world, 8, DataLoaderState::initial());
        let mut rt = GeminiRuntime {
            sys,
            kv,
            workers,
            root,
            operator: CloudOperator::new(operator),
            vault,
            shard_bytes,
            loader,
            persisted_loader: DataLoaderState::initial(),
            clock: SimTime::ZERO,
            iteration: 0,
            last_committed: 0,
            pending_failures: Vec::new(),
            policy_name,
            engine,
            knobs,
            auto,
            last_persist_at: SimTime::ZERO,
            ledger: WastedLedger::default(),
            replica_rebuilds: 0,
        };
        // The job starts from a consistent state: checkpoint iteration 0.
        rt.commit_checkpoint(0)?;
        Ok(rt)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The current training iteration.
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Whether a failure is pending recovery.
    pub fn is_degraded(&self) -> bool {
        !self.pending_failures.is_empty()
    }

    /// The name of the policy in force (`manual`, a fixed policy's name,
    /// or `adaptive`).
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The fault-tolerance knobs currently applied.
    pub fn active_knobs(&self) -> PolicyKnobs {
        self.knobs
    }

    /// Every applied adaptive decision so far (empty for fixed/manual).
    pub fn policy_decisions(&self) -> &[PolicyDecisionRecord] {
        self.engine.as_ref().map_or(&[], |e| e.decisions())
    }

    /// The replica count `m` of the placement currently in force.
    pub fn replicas_in_force(&self) -> usize {
        self.sys.placement.replicas()
    }

    /// How many times the policy rebuilt the placement for a new `m`.
    pub fn replica_rebuilds(&self) -> u64 {
        self.replica_rebuilds
    }

    /// The wasted-time ledger: checkpoint/persist overhead plus rework
    /// and downtime of every recovery (Eq. 1's accounting).
    pub fn wasted(&self) -> WastedLedger {
        self.ledger
    }

    fn commit_checkpoint(&mut self, iteration: u64) -> Result<(), GeminiError> {
        self.last_committed = iteration;
        self.sys.store.record_complete(iteration);
        let placement = self.sys.placement.clone();
        let shard_bytes = self.shard_bytes;
        // Every shard carries the global data-loader position in its first
        // 16 bytes, followed by the (synthetic) model states.
        let loader_state = self.loader.state().encode();
        let mk = |owner: usize| {
            let mut payload = loader_state.to_vec();
            payload.extend(
                (0..shard_bytes)
                    .map(|i| (i as u64 ^ owner as u64 ^ iteration.rotate_left(3)) as u8),
            );
            payload
        };
        self.vault.checkpoint_round(&placement, iteration, mk)
    }

    /// The data batches for the next iteration (per GPU rank) — exposed so
    /// callers can verify trajectory preservation across recoveries.
    pub fn peek_next_batches(&self) -> Vec<Vec<u64>> {
        self.loader.clone().next_step()
    }

    /// Advances the clock by `d`, heartbeating alive workers every
    /// heartbeat period so their leases stay warm.
    fn advance(&mut self, d: SimDuration) {
        let period = self.sys.scenario.config.heartbeat_period;
        let target = self.clock + d;
        let failed: Vec<usize> = self.pending_failures.iter().map(|(r, _)| *r).collect();
        let mut t = self.clock + period;
        while t <= target {
            for w in self.workers.iter_mut() {
                if !failed.contains(&w.rank()) {
                    let _ = w.heartbeat(&mut self.kv, t);
                }
            }
            let _ = self.root.campaign(&mut self.kv, t);
            t += period;
        }
        self.clock = target;
    }

    /// Trains `n` iterations. Each takes the scheduled iteration time; an
    /// in-memory checkpoint (metadata + bytes) commits every
    /// `ckpt_every_iters` iterations (every iteration under the manual
    /// and paper-default knobs). Fails if the job is degraded (a
    /// synchronous job cannot advance past a failure, §1).
    pub fn train(&mut self, n: u64) -> Result<(), GeminiError> {
        if self.is_degraded() {
            return Err(GeminiError::InvalidPartitionInput(
                "job is degraded; call recover() first",
            ));
        }
        for _ in 0..n {
            self.loader.next_step(); // consume this iteration's data
            self.advance(self.sys.iteration_time());
            self.iteration += 1;
            if self.iteration % self.knobs.ckpt_every_iters.max(1) == 0 {
                self.commit_checkpoint(self.iteration)?;
            }
            self.policy_boundary()?;
        }
        Ok(())
    }

    /// The signals sampled at an iteration boundary for the policy engine.
    fn signals(&self) -> PolicySignals {
        PolicySignals {
            now: self.clock,
            committed: self.last_committed,
            iteration_time: self.sys.iteration_time(),
            ckpt_overhead: self.sys.schedule.outcome.overhead,
            retrieval_remote: self.sys.retrieval_time(StorageTier::RemoteCpu),
            retrieval_persistent: self.sys.retrieval_time(StorageTier::Persistent),
            persist_upload: self.sys.retrieval_time(StorageTier::Persistent),
            persist_anchor: self.sys.store.persistent().map(|m| m.iteration),
            healthy_machines: self.sys.cluster.len() - self.pending_failures.len(),
            machines: self.sys.cluster.len(),
            scheme: scheme_signals(&self.sys.scheme_inputs()),
            // The runtime trains a healthy fleet between explicit fault
            // injections; mode signals stay at the quiet defaults so the
            // engine never proposes leaving Wait here.
            mode: gemini_core::policy::ModeSignals::default(),
        }
    }

    /// The policy hook, run after every trained iteration: evaluate the
    /// adaptive engine (if any), apply knob changes — the runtime is the
    /// only layer that applies a replica-count change — and fire the
    /// automatic persistent checkpoint when its interval elapsed.
    fn policy_boundary(&mut self) -> Result<(), GeminiError> {
        if !self.auto {
            return Ok(());
        }
        if self.engine.is_some() {
            let s = self.signals();
            let rec = self.engine.as_mut().expect("checked above").evaluate(&s);
            if let Some(rec) = rec {
                let target_m = rec.knobs.replicas;
                // Cadence / persist / tier take effect immediately; `m`
                // goes through the placement rebuild below.
                self.knobs = PolicyKnobs {
                    replicas: self.knobs.replicas,
                    ..rec.knobs
                };
                if target_m != self.sys.placement.replicas() {
                    self.apply_replicas(target_m)?;
                }
            }
        }
        if let Some(interval) = self.knobs.persist_interval {
            if self.clock.saturating_since(self.last_persist_at) >= interval {
                // The upload runs asynchronously from the serialized CPU
                // copy; its cost is charged to the ledger as overhead, not
                // to the training clock.
                let upload = self.sys.retrieval_time(StorageTier::Persistent);
                self.persist();
                self.ledger.record_overhead(upload);
                self.last_persist_at = self.clock;
            }
        }
        Ok(())
    }

    /// Applies a new replica count `m` at a safe boundary: rebuild the
    /// placement (Algorithm 1 at the new `m`), metadata store and byte
    /// vault, re-replicate the last committed checkpoint to the new peer
    /// set, and charge that extra replication round as visible overhead.
    /// Infeasible targets (the extra replica does not fit in CPU RAM) are
    /// skipped; the active knobs keep the applied `m`.
    fn apply_replicas(&mut self, m: usize) -> Result<(), GeminiError> {
        let mut scenario = self.sys.scenario.clone();
        scenario.config.replicas = m;
        let placement = scenario.placement()?;
        let store = HierarchicalStore::new(
            placement.clone(),
            self.sys.scenario.ckpt_bytes_per_machine(),
        );
        if store
            .validate_memory(self.sys.scenario.instance.cpu_mem)
            .is_err()
        {
            return Ok(()); // target m does not fit; keep the current placement
        }
        // The checkpoint schedule changes with `m` (more replica traffic to
        // hide in the idle spans); re-plan it against the same profile.
        let schedule = gemini_core::schedule::schedule_checkpoint(
            &self.sys.profile,
            scenario.ckpt_bytes_per_machine(),
            scenario.instance.gpus,
            &scenario.config,
            &scenario.instance.ckpt_net_cost(),
            &scenario.instance.copy_cost(),
            scenario.instance.gpu_headroom,
        );
        let Ok(schedule) = schedule else {
            return Ok(()); // no interference-free schedule at the new m
        };
        // All feasibility checks passed: swap the deployment pieces.
        let mut store = store;
        if let Some(meta) = self.sys.store.persistent() {
            // The durable anchor survives the re-plan untouched.
            store.persist(meta.iteration);
        }
        self.sys.store = store;
        self.sys.schedule = schedule;
        self.sys.scenario.config.replicas = m;
        self.sys.placement = placement;
        self.vault = ReplicaVault::new(
            &self.sys.placement,
            ByteSize::from_bytes((self.shard_bytes as u64 + 64) * 2 * m as u64 + 4096),
        )?;
        // Re-replicate the committed state across the new peer set, and
        // pay for that bulk round (it cannot hide in idle spans).
        self.commit_checkpoint(self.last_committed)?;
        let rebuild = self.sys.bulk_ckpt_time();
        self.advance(rebuild);
        self.ledger.record_overhead(rebuild);
        self.replica_rebuilds += 1;
        self.knobs.replicas = m;
        Ok(())
    }

    /// Also persists the current state to remote persistent storage (the
    /// 3-hourly checkpoint for non-recovery purposes).
    pub fn persist(&mut self) {
        self.sys.store.persist(self.iteration);
        self.persisted_loader = self.loader.state();
    }

    /// Kills `rank` with the given failure kind. Training halts until
    /// [`GeminiRuntime::recover`].
    pub fn inject_failure(&mut self, rank: usize, kind: FailureKind) -> Result<(), GeminiError> {
        if rank >= self.sys.cluster.len() {
            return Err(GeminiError::UnknownRank(rank));
        }
        // A machine can only die once per outage; a second report on the
        // same rank at most *escalates* a software failure to a hardware
        // one (e.g. the restart attempt found broken hardware).
        if let Some(entry) = self.pending_failures.iter_mut().find(|(r, _)| *r == rank) {
            if kind == FailureKind::Hardware && entry.1 == FailureKind::Software {
                entry.1 = FailureKind::Hardware;
                self.sys
                    .cluster
                    .fail(rank, kind)
                    .map_err(|_| GeminiError::UnknownRank(rank))?;
                self.sys.store.machine_lost(rank);
                self.vault.wipe_host(rank);
            }
            return Ok(());
        }
        self.sys
            .cluster
            .fail(rank, kind)
            .map_err(|_| GeminiError::UnknownRank(rank))?;
        if kind == FailureKind::Hardware {
            self.sys.store.machine_lost(rank);
            self.vault.wipe_host(rank);
        }
        self.pending_failures.push((rank, kind));
        Ok(())
    }

    /// Runs the full recovery pipeline and resumes the job at the
    /// recovered iteration.
    pub fn recover(&mut self) -> Result<RecoveryReport, GeminiError> {
        if self.pending_failures.is_empty() {
            return Err(GeminiError::NoCheckpointAvailable);
        }
        let started = self.clock;
        let gcfg = self.sys.scenario.config;

        // 1. Detection: the victims stop heartbeating; their leases lapse
        //    after the TTL and the root's scan notices.
        self.advance(gcfg.health_ttl);
        let mut report = ScanReport::default();
        self.root.scan(
            &mut self.kv,
            self.clock,
            self.sys.cluster.len(),
            &mut report,
        );
        debug_assert!(!report.missing.is_empty(), "lease must have lapsed");

        // Feed the confirmed failures to the adaptive engine. A failure is
        // *correlated* when it defeats CPU replication: an entire placement
        // group went down with it.
        if let Some(engine) = self.engine.as_mut() {
            let hw_down: BTreeSet<usize> = self
                .pending_failures
                .iter()
                .filter(|&&(_, k)| k == FailureKind::Hardware)
                .map(|&(r, _)| r)
                .collect();
            let correlated = self
                .sys
                .placement
                .groups()
                .iter()
                .any(|g| g.members.iter().all(|m| hw_down.contains(m)));
            let now = self.clock;
            for &(_, kind) in &self.pending_failures {
                engine.observe_failure(now, correlated, kind == FailureKind::Software);
            }
        }

        // 2. Serialization of the surviving replicas (torch.save).
        self.advance(self.sys.serialize_time());

        // 3. Replacement machines for hardware failures (parallel requests;
        //    the wait is the slowest provision).
        let failures = self.pending_failures.clone();
        let mut ready = self.clock;
        for &(rank, kind) in &failures {
            if kind == FailureKind::Hardware {
                self.sys
                    .cluster
                    .begin_replacement(rank)
                    .map_err(|_| GeminiError::UnknownRank(rank))?;
                let provision = self
                    .operator
                    .request_replacement(self.clock, &mut self.sys.rng);
                ready = ready.max(provision.ready_at);
            }
        }
        if ready > self.clock {
            self.advance(ready - self.clock);
        }
        for &(rank, kind) in &failures {
            if kind == FailureKind::Hardware {
                self.sys
                    .cluster
                    .complete_replacement(rank, self.clock)
                    .map_err(|_| GeminiError::UnknownRank(rank))?;
            }
        }

        // 4. Plan and execute the retrieval, verifying real bytes for every
        //    rank that reads from CPU memory.
        let mut plan = RecoveryPlanner.plan(&self.sys.store, &failures, &BTreeSet::new())?;
        // Policy tier override: a persistent-first preference reroutes a
        // CPU-recoverable failure to the durable anchor when one exists.
        if self.auto
            && self.knobs.tier == TierPreference::PersistentFirst
            && plan.case == RecoveryCase::HardwareFromCpu
        {
            if let Some(anchor) = self.sys.store.persistent() {
                plan = plan.persistent_first(self.sys.cluster.len(), anchor.iteration);
            }
        }
        let slowest = self.sys.retrieval_makespan(&plan);
        if plan.case != RecoveryCase::PersistentFallback {
            let mut restored_loader = None;
            for src in &plan.sources {
                let host = src.from.unwrap_or(src.rank);
                let payload = self.vault.fetch_verified(host, src.rank)?;
                if payload.iteration != plan.iteration {
                    return Err(GeminiError::Codec(
                        "replica iteration does not match the plan",
                    ));
                }
                let state = DataLoaderState::decode(&payload.data[..16])
                    .ok_or(GeminiError::Codec("loader state missing from frame"))?;
                if let Some(prev) = restored_loader {
                    if prev != state {
                        return Err(GeminiError::Codec("replicas disagree on the loader state"));
                    }
                }
                restored_loader = Some(state);
            }
            if let Some(state) = restored_loader {
                self.loader.restore(state);
            }
        } else {
            self.loader.restore(self.persisted_loader);
        }
        self.advance(slowest);

        // 5. Restart warmup, then resume.
        self.advance(gcfg.restart_warmup);
        for &(rank, kind) in &failures {
            if kind == FailureKind::Software {
                self.sys
                    .cluster
                    .restart(rank)
                    .map_err(|_| GeminiError::UnknownRank(rank))?;
            }
        }
        // Replacement machines re-register their worker agents.
        for &(rank, _) in &failures {
            self.workers[rank]
                .heartbeat(&mut self.kv, self.clock)
                .expect("re-registration succeeds");
        }
        self.pending_failures.clear();

        let iterations_lost = self.iteration - plan.iteration;
        self.iteration = plan.iteration;
        // Rebuild the failed hosts' vault contents on the next checkpoint;
        // re-checkpoint the recovered state immediately so the job is
        // fully replicated again.
        self.commit_checkpoint(self.iteration)?;
        self.ledger.record_failure(
            iterations_lost,
            self.sys.iteration_time(),
            self.clock - started,
        );
        Ok(RecoveryReport {
            case: plan.case,
            resumed_from_iteration: plan.iteration,
            iterations_lost,
            downtime: self.clock - started,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> GeminiRuntime {
        GeminiRuntime::launch(
            Deployment::dense_gpt2_100b_p4d(),
            OperatorConfig::default(),
            2_048,
            7,
        )
        .unwrap()
    }

    #[test]
    fn train_advances_clock_and_checkpoints() {
        let mut rt = runtime();
        rt.train(5).unwrap();
        assert_eq!(rt.iteration(), 5);
        let expect = rt.sys.iteration_time() * 5;
        assert_eq!(rt.now() - SimTime::ZERO, expect);
    }

    #[test]
    fn full_lifecycle_software_failure() {
        let mut rt = runtime();
        rt.train(10).unwrap();
        rt.inject_failure(3, FailureKind::Software).unwrap();
        assert!(rt.is_degraded());
        assert!(rt.train(1).is_err(), "degraded job cannot train");
        let report = rt.recover().unwrap();
        assert_eq!(report.case, RecoveryCase::SoftwareLocal);
        assert_eq!(report.resumed_from_iteration, 10);
        assert_eq!(report.iterations_lost, 0);
        // ~7 minutes of downtime (§7.3).
        let mins = report.downtime.as_secs_f64() / 60.0;
        assert!((6.0..9.0).contains(&mins), "downtime = {mins:.1} min");
        // Training continues.
        rt.train(3).unwrap();
        assert_eq!(rt.iteration(), 13);
    }

    #[test]
    fn full_lifecycle_hardware_failure() {
        let mut rt = runtime();
        rt.train(4).unwrap();
        rt.inject_failure(5, FailureKind::Hardware).unwrap();
        let report = rt.recover().unwrap();
        assert_eq!(report.case, RecoveryCase::HardwareFromCpu);
        assert_eq!(report.resumed_from_iteration, 4);
        let mins = report.downtime.as_secs_f64() / 60.0;
        assert!((9.0..16.0).contains(&mins), "downtime = {mins:.1} min");
        // Rank 5's shard came from its group peer (rank 4), verified
        // byte-for-byte inside recover().
        let src = report.plan.sources.iter().find(|s| s.rank == 5).unwrap();
        assert_eq!(src.from, Some(4));
        rt.train(1).unwrap();
        assert_eq!(rt.iteration(), 5);
    }

    #[test]
    fn group_loss_rolls_back_to_persistent() {
        let mut rt = runtime();
        rt.train(6).unwrap();
        rt.persist(); // user-managed 3-hourly persistent checkpoint
        rt.train(6).unwrap();
        rt.inject_failure(0, FailureKind::Hardware).unwrap();
        rt.inject_failure(1, FailureKind::Hardware).unwrap();
        let report = rt.recover().unwrap();
        assert_eq!(report.case, RecoveryCase::PersistentFallback);
        assert_eq!(report.resumed_from_iteration, 6);
        assert_eq!(report.iterations_lost, 6);
    }

    #[test]
    fn recover_without_failure_errors() {
        let mut rt = runtime();
        assert!(rt.recover().is_err());
    }

    #[test]
    fn recovery_preserves_the_data_trajectory() {
        let mut rt = runtime();
        rt.train(7).unwrap();
        // The batches the job would consume next, had nothing failed.
        let expected = rt.peek_next_batches();
        rt.inject_failure(4, FailureKind::Hardware).unwrap();
        rt.recover().unwrap();
        // Rolled back to iteration 7's checkpoint: the very same batches
        // come next — no data skipped, none replayed twice.
        assert_eq!(rt.peek_next_batches(), expected);
        // And after training past the failure point, the loader advances.
        rt.train(1).unwrap();
        assert_ne!(rt.peek_next_batches(), expected);
    }

    #[test]
    fn persistent_fallback_restores_the_persisted_data_position() {
        let mut rt = runtime();
        rt.train(3).unwrap();
        rt.persist();
        let at_persist = rt.peek_next_batches();
        rt.train(5).unwrap();
        rt.inject_failure(0, FailureKind::Hardware).unwrap();
        rt.inject_failure(1, FailureKind::Hardware).unwrap();
        let report = rt.recover().unwrap();
        assert_eq!(report.case, RecoveryCase::PersistentFallback);
        assert_eq!(rt.peek_next_batches(), at_persist);
    }

    #[test]
    fn vault_bytes_rebuilt_after_recovery() {
        let mut rt = runtime();
        rt.train(2).unwrap();
        rt.inject_failure(7, FailureKind::Hardware).unwrap();
        rt.recover().unwrap();
        // The replacement host holds fresh replicas of the recovered
        // iteration again.
        let payload = rt.vault.fetch_verified(7, 7).unwrap();
        assert_eq!(payload.iteration, 2);
    }

    fn fixed(name: &'static str, knobs: PolicyKnobs) -> PolicySpec {
        PolicySpec::Fixed(gemini_core::FixedPolicy { name, knobs })
    }

    #[test]
    fn manual_launch_keeps_knobs_manual() {
        let mut rt = runtime();
        assert_eq!(rt.policy_name(), "manual");
        rt.train(15).unwrap();
        // No automatic persistent checkpoint, no policy overhead.
        assert_eq!(rt.wasted().overhead, SimDuration::ZERO);
        assert!(rt.policy_decisions().is_empty());
    }

    #[test]
    fn fixed_cadence_commits_every_kth_iteration() {
        let spec = fixed(
            "every_4",
            PolicyKnobs {
                ckpt_every_iters: 4,
                persist_interval: None,
                replicas: 2,
                tier: TierPreference::CpuFirst,
                ..PolicyKnobs::paper_default()
            },
        );
        let mut rt = GeminiRuntime::launch_with_policy(
            Deployment::dense_gpt2_100b_p4d(),
            OperatorConfig::default(),
            1_024,
            7,
            &spec,
        )
        .unwrap();
        rt.train(10).unwrap();
        rt.inject_failure(5, FailureKind::Hardware).unwrap();
        let report = rt.recover().unwrap();
        // Last committed checkpoint was iteration 8 (the cadence skipped
        // 9 and 10); two iterations of rework.
        assert_eq!(report.case, RecoveryCase::HardwareFromCpu);
        assert_eq!(report.resumed_from_iteration, 8);
        assert_eq!(report.iterations_lost, 2);
        assert_eq!(rt.wasted().rework_iters, 2);
    }

    #[test]
    fn auto_persist_and_tier_override_reroute_to_persistent() {
        let spec = fixed(
            "persistent_first",
            PolicyKnobs {
                ckpt_every_iters: 1,
                persist_interval: Some(SimDuration::from_mins(10)),
                replicas: 2,
                tier: TierPreference::PersistentFirst,
                ..PolicyKnobs::paper_default()
            },
        );
        let mut rt = GeminiRuntime::launch_with_policy(
            Deployment::dense_gpt2_100b_p4d(),
            OperatorConfig::default(),
            1_024,
            7,
            &spec,
        )
        .unwrap();
        // 12 iterations ≈ 744 s: the 10-minute auto-persist fires mid-run.
        rt.train(12).unwrap();
        assert!(rt.wasted().overhead > SimDuration::ZERO, "upload charged");
        rt.inject_failure(5, FailureKind::Hardware).unwrap();
        let report = rt.recover().unwrap();
        // A single hardware failure is CPU-recoverable, but the policy
        // prefers the durable anchor.
        assert_eq!(report.case, RecoveryCase::PersistentFallback);
        assert!(report.resumed_from_iteration > 0, "anchor is post-launch");
        assert!(report
            .plan
            .degraded
            .as_deref()
            .unwrap_or("")
            .contains("tier override"));
        // The data trajectory follows the persisted position.
        rt.train(1).unwrap();
    }

    #[test]
    fn adaptive_policy_raises_replicas_after_correlated_losses() {
        let run = || {
            let spec = PolicySpec::adaptive();
            let mut rt = GeminiRuntime::launch_with_policy(
                Deployment::dense_gpt2_100b_p4d(),
                OperatorConfig::default(),
                1_024,
                7,
                &spec,
            )
            .unwrap();
            rt.train(3).unwrap();
            rt.inject_failure(0, FailureKind::Hardware).unwrap();
            rt.inject_failure(1, FailureKind::Hardware).unwrap();
            rt.recover().unwrap();
            rt.train(3).unwrap();
            rt.inject_failure(2, FailureKind::Hardware).unwrap();
            rt.inject_failure(3, FailureKind::Hardware).unwrap();
            rt.recover().unwrap();
            rt.train(12).unwrap();
            rt
        };
        let rt = run();
        assert_eq!(rt.policy_name(), "adaptive");
        assert!(
            !rt.policy_decisions().is_empty(),
            "sustained correlated losses must apply a decision"
        );
        // Two whole-group losses within the hour push the correlated rate
        // far above the m+1 threshold: the runtime rebuilt the placement.
        assert_eq!(rt.active_knobs().replicas, 3);
        assert_eq!(rt.replicas_in_force(), 3);
        assert!(rt.replica_rebuilds() >= 1);
        assert!(rt.wasted().failures == 2 && rt.wasted().total() > SimDuration::ZERO);
        // And the whole trajectory is deterministic.
        let rt2 = run();
        assert_eq!(rt.now(), rt2.now());
        assert_eq!(rt.iteration(), rt2.iteration());
        assert_eq!(rt.policy_decisions(), rt2.policy_decisions());
        assert_eq!(rt.wasted(), rt2.wasted());
    }

    #[test]
    fn standby_operator_shrinks_downtime() {
        let mk = |standbys| {
            let mut rt = GeminiRuntime::launch(
                Deployment::dense_gpt2_100b_p4d(),
                OperatorConfig::with_standbys(standbys),
                1_024,
                7,
            )
            .unwrap();
            rt.train(2).unwrap();
            rt.inject_failure(3, FailureKind::Hardware).unwrap();
            rt.recover().unwrap().downtime
        };
        assert!(mk(1) < mk(0));
    }
}
