//! Hierarchical in-memory checkpoint storage (paper §3.1).
//!
//! GEMINI keeps recovery checkpoints in CPU memory — each machine holds its
//! own shard plus replicas for the peers its placement group assigns — and
//! decouples them from the low-frequency checkpoints users keep in remote
//! persistent storage. Each (host, owner) slot is double-buffered: "There
//! are two CPU memory buffers to store the checkpoints: one for the
//! completed checkpoint and the other for the ongoing one" (§7.1), so a
//! failure mid-checkpoint can always fall back to the previous complete
//! one (Fig. 1's ckpt-3-incomplete scenario).

use crate::error::GeminiError;
use crate::placement::Placement;
use gemini_net::ByteSize;
use std::collections::{BTreeMap, BTreeSet};

/// Where a checkpoint replica lives.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StorageTier {
    /// The machine's own CPU memory (fastest; survives software failures).
    LocalCpu,
    /// A peer machine's CPU memory (fetched over the training network).
    RemoteCpu,
    /// Remote persistent storage (slow shared pipe; the last resort).
    Persistent,
}

/// Metadata of one checkpoint replica.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointMeta {
    /// The machine whose model-state shard this is.
    pub owner: usize,
    /// Training iteration the states correspond to.
    pub iteration: u64,
    /// Shard size.
    pub bytes: ByteSize,
}

/// One (host, owner) slot with double buffering.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct CpuSlot {
    completed: Option<CheckpointMeta>,
    in_progress: Option<CheckpointMeta>,
}

/// The hierarchical checkpoint store of one training job.
#[derive(Clone, Debug)]
pub struct HierarchicalStore {
    placement: Placement,
    bytes_per_machine: ByteSize,
    slots: BTreeMap<(usize, usize), CpuSlot>,
    persistent: Option<CheckpointMeta>,
}

impl HierarchicalStore {
    /// Creates the store for a placement with the given per-machine shard
    /// size.
    pub fn new(placement: Placement, bytes_per_machine: ByteSize) -> Self {
        let mut slots = BTreeMap::new();
        for owner in 0..placement.machines() {
            for &host in placement.replica_hosts(owner).expect("owner in range") {
                slots.insert((host, owner), CpuSlot::default());
            }
        }
        HierarchicalStore {
            placement,
            bytes_per_machine,
            slots,
            persistent: None,
        }
    }

    /// The placement in force.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Per-machine shard size.
    pub fn bytes_per_machine(&self) -> ByteSize {
        self.bytes_per_machine
    }

    /// CPU memory one host needs for its slots (both buffers of every
    /// hosted replica). With `m` replicas this is `2·m·C` per machine.
    pub fn cpu_bytes_per_host(&self, host: usize) -> ByteSize {
        let hosted = self.slots.range((host, 0)..(host + 1, 0)).count() as u64;
        self.bytes_per_machine * hosted * 2
    }

    /// Verifies every host's slots fit in `cpu_mem` (§2.3.1's premise).
    pub fn validate_memory(&self, cpu_mem: ByteSize) -> Result<(), GeminiError> {
        for host in 0..self.placement.machines() {
            let need = self.cpu_bytes_per_host(host);
            if need > cpu_mem {
                return Err(GeminiError::BufferTooLarge {
                    requested: need,
                    available: cpu_mem,
                });
            }
        }
        Ok(())
    }

    /// Starts checkpointing `iteration`: every slot's in-progress buffer is
    /// claimed. A still-pending previous in-progress checkpoint is simply
    /// overwritten (it never completed).
    pub fn begin(&mut self, iteration: u64) {
        let meta_bytes = self.bytes_per_machine;
        for ((_, owner), slot) in self.slots.iter_mut() {
            slot.in_progress = Some(CheckpointMeta {
                owner: *owner,
                iteration,
                bytes: meta_bytes,
            });
        }
    }

    /// Completes checkpointing `iteration`: in-progress buffers whose
    /// iteration matches flip to completed.
    pub fn commit(&mut self, iteration: u64) {
        for slot in self.slots.values_mut() {
            if slot.in_progress.map(|m| m.iteration) == Some(iteration) {
                slot.completed = slot.in_progress.take();
            }
        }
    }

    /// Begins + commits in one step (used by coarse-grained simulations
    /// where the checkpoint provably fits within the iteration).
    pub fn record_complete(&mut self, iteration: u64) {
        self.begin(iteration);
        self.commit(iteration);
    }

    /// A hardware failure wipes a host's CPU memory: every slot it held is
    /// cleared (both buffers). Replicas of this host's shard on *other*
    /// machines survive.
    pub fn machine_lost(&mut self, host: usize) {
        for ((h, _), slot) in self.slots.iter_mut() {
            if *h == host {
                *slot = CpuSlot::default();
            }
        }
    }

    /// The store's shard map: for every owner (the index), the hosts
    /// holding a *completed* replica of its shard with the iteration each
    /// one has, in host order. Read in one pass over the slots.
    pub fn holders(&self) -> Vec<Vec<(usize, u64)>> {
        let mut holders = vec![Vec::new(); self.placement.machines()];
        for (&(host, owner), slot) in &self.slots {
            if let Some(meta) = slot.completed {
                holders[owner].push((host, meta.iteration));
            }
        }
        holders
    }

    /// The most recent iteration for which **every** machine's shard has a
    /// completed replica on a host whose CPU memory is intact. `None` means
    /// CPU-memory recovery is impossible and the job must fall back to
    /// persistent storage (§6.2 Case 2).
    pub fn latest_recoverable(&self, cpu_intact: &BTreeSet<usize>) -> Option<u64> {
        latest_common(&self.holders(), |h| cpu_intact.contains(&h))
    }

    /// Copies a completed replica of `owner`'s shard at `iteration` into
    /// `host`'s CPU memory, creating the (host, owner) slot if the
    /// placement never assigned one. This is the storage half of a shrink
    /// repartition: a survivor *adopts* a failed machine's shard so the
    /// shrunken job can keep protecting it. Fails when no intact host
    /// holds the shard at that iteration (the shrink planner never asks
    /// in that situation — it falls back to persistent storage instead).
    pub fn adopt_shard(
        &mut self,
        owner: usize,
        host: usize,
        iteration: u64,
    ) -> Result<(), GeminiError> {
        let meta = self
            .slots
            .iter()
            .filter(|((_, o), _)| *o == owner)
            .filter_map(|(_, slot)| slot.completed)
            .find(|m| m.iteration == iteration)
            .ok_or(GeminiError::NoCheckpointAvailable)?;
        self.slots.entry((host, owner)).or_default().completed = Some(meta);
        Ok(())
    }

    /// Records a persistent-storage checkpoint of the full model state.
    pub fn persist(&mut self, iteration: u64) {
        self.persistent = Some(CheckpointMeta {
            owner: usize::MAX,
            iteration,
            bytes: self.bytes_per_machine * self.placement.machines() as u64,
        });
    }

    /// The latest persistent checkpoint, if any.
    pub fn persistent(&self) -> Option<CheckpointMeta> {
        self.persistent
    }
}

/// [`HierarchicalStore::latest_recoverable`] over a
/// [`HierarchicalStore::holders`] table: the freshest iteration every
/// owner has on some host `intact` accepts.
pub(crate) fn latest_common(
    holders: &[Vec<(usize, u64)>],
    intact: impl Fn(usize) -> bool,
) -> Option<u64> {
    holders
        .iter()
        .map(|hosts| {
            hosts
                .iter()
                .filter(|&&(h, _)| intact(h))
                .map(|&(_, it)| it)
                .max()
        })
        .min()
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::RecoveryPlanner;
    use gemini_cluster::FailureKind;

    fn store(n: usize, m: usize) -> HierarchicalStore {
        HierarchicalStore::new(Placement::mixed(n, m).unwrap(), ByteSize::from_gb(75))
    }

    fn intact(all: usize, lost: &[usize]) -> BTreeSet<usize> {
        (0..all).filter(|r| !lost.contains(r)).collect()
    }

    #[test]
    fn begin_commit_flips_buffers() {
        let mut s = store(4, 2);
        s.begin(10);
        // Nothing completed yet.
        assert!(s.latest_recoverable(&intact(4, &[])).is_none());
        s.commit(10);
        assert_eq!(s.latest_recoverable(&intact(4, &[])), Some(10));
    }

    #[test]
    fn commit_of_stale_iteration_is_noop() {
        let mut s = store(4, 2);
        s.begin(10);
        s.commit(9);
        assert!(s.latest_recoverable(&intact(4, &[])).is_none());
    }

    #[test]
    fn incomplete_checkpoint_falls_back_to_previous() {
        // Fig. 1: a failure at iteration 310 while ckpt 3 is incomplete
        // recovers from ckpt 2.
        let mut s = store(4, 2);
        s.record_complete(200);
        s.begin(300);
        assert_eq!(s.latest_recoverable(&intact(4, &[])), Some(200));
        s.commit(300);
        assert_eq!(s.latest_recoverable(&intact(4, &[])), Some(300));
    }

    #[test]
    fn machine_loss_uses_surviving_replica() {
        let mut s = store(4, 2);
        s.record_complete(50);
        s.machine_lost(1);
        // Machine 1's shard survives on its group peer 0.
        let alive = intact(4, &[1]);
        assert_eq!(s.latest_recoverable(&alive), Some(50));
        assert_eq!(s.holders()[1], vec![(0, 50)]);
        // The planner reads it from there, and machine 0 reads its local
        // copy.
        let plan = RecoveryPlanner
            .plan(&s, &[(1, FailureKind::Hardware)], &BTreeSet::new())
            .unwrap();
        assert_eq!(
            (plan.sources[1].tier, plan.sources[1].from),
            (StorageTier::RemoteCpu, Some(0))
        );
        assert_eq!(
            (plan.sources[0].tier, plan.sources[0].from),
            (StorageTier::LocalCpu, None)
        );
    }

    #[test]
    fn whole_group_loss_is_unrecoverable() {
        let mut s = store(4, 2);
        s.record_complete(50);
        s.machine_lost(0);
        s.machine_lost(1);
        assert_eq!(s.latest_recoverable(&intact(4, &[0, 1])), None);
    }

    #[test]
    fn cross_group_loss_is_recoverable() {
        let mut s = store(4, 2);
        s.record_complete(50);
        s.machine_lost(0);
        s.machine_lost(2);
        assert_eq!(s.latest_recoverable(&intact(4, &[0, 2])), Some(50));
    }

    #[test]
    fn replacement_catches_up_on_next_commit() {
        let mut s = store(4, 2);
        s.record_complete(50);
        s.machine_lost(3);
        s.record_complete(51);
        assert_eq!(s.latest_recoverable(&intact(4, &[])), Some(51));
        // The replacement holds its own shard again, beside its peer's copy.
        assert_eq!(s.holders()[3], vec![(2, 51), (3, 51)]);
    }

    #[test]
    fn memory_accounting_matches_2mc() {
        let s = store(16, 2);
        // m=2 → each host stores 2 shards × 2 buffers × 75 GB = 300 GB.
        assert_eq!(s.cpu_bytes_per_host(0), ByteSize::from_gb(300));
        // Fits p4d's 1152 GB CPU memory.
        s.validate_memory(ByteSize::from_gb(1152)).unwrap();
        // But not a tiny machine.
        assert!(s.validate_memory(ByteSize::from_gb(200)).is_err());
    }

    #[test]
    fn per_host_bytes_match_the_placement() {
        for n in 1..=24 {
            for m in 1..=n.min(5) {
                let s = store(n, m);
                for host in 0..n {
                    let hosted = (0..n)
                        .filter(|&owner| {
                            s.placement().replica_hosts(owner).unwrap().contains(&host)
                        })
                        .count() as u64;
                    assert_eq!(
                        s.cpu_bytes_per_host(host),
                        s.bytes_per_machine() * hosted * 2,
                        "N={n} m={m} host={host}"
                    );
                }
            }
        }
    }

    #[test]
    fn persistent_checkpoint_recorded() {
        let mut s = store(4, 2);
        assert!(s.persistent().is_none());
        s.persist(100);
        let p = s.persistent().unwrap();
        assert_eq!(p.iteration, 100);
        assert_eq!(p.bytes, ByteSize::from_gb(300));
    }

    #[test]
    fn adopt_shard_copies_a_surviving_replica() {
        let mut s = store(4, 2);
        s.record_complete(50);
        s.machine_lost(1);
        // Host 3 never hosted shard 1; adoption creates the slot from the
        // surviving replica on host 0.
        s.adopt_shard(1, 3, 50).unwrap();
        let alive = intact(4, &[1]);
        assert_eq!(s.holders()[1], vec![(0, 50), (3, 50)]);
        assert_eq!(s.latest_recoverable(&alive), Some(50));
        // Asking for an iteration nobody holds is an error.
        assert_eq!(
            s.adopt_shard(1, 3, 99).unwrap_err(),
            GeminiError::NoCheckpointAvailable
        );
        // A wholly-lost shard cannot be adopted.
        let mut gone = store(4, 2);
        gone.record_complete(50);
        gone.machine_lost(0);
        gone.machine_lost(1);
        assert_eq!(
            gone.adopt_shard(1, 2, 50).unwrap_err(),
            GeminiError::NoCheckpointAvailable
        );
    }

    #[test]
    fn source_preference_is_local_then_lowest() {
        let s = {
            let mut s = store(6, 3);
            s.record_complete(7);
            s
        };
        // Owner 4's hosts are {3, 4, 5}.
        assert_eq!(s.holders()[4], vec![(3, 7), (4, 7), (5, 7)]);
        // It prefers itself.
        let source = |failures: &[(usize, FailureKind)]| {
            let plan = RecoveryPlanner
                .plan(&s, failures, &BTreeSet::new())
                .unwrap();
            (plan.sources[4].tier, plan.sources[4].from)
        };
        assert_eq!(
            source(&[(4, FailureKind::Software)]),
            (StorageTier::LocalCpu, None)
        );
        // If owner 4 is gone, the lowest surviving host serves.
        assert_eq!(
            source(&[(4, FailureKind::Hardware)]),
            (StorageTier::RemoteCpu, Some(3))
        );
    }
}
