//! Integration of the coordination plane (agents ↔ KV store ↔ election)
//! with the checkpoint data plane (hierarchical store + codec): real bytes
//! survive a simulated failure and recovery.

use gemini_cluster::FailureKind;
use gemini_core::agents::{RootAgent, ScanReport, WorkerAgent};
use gemini_core::codec;
use gemini_core::recovery::{RecoveryCase, RecoveryPlanner};
use gemini_core::{GeminiConfig, HierarchicalStore, Placement};
use gemini_kvstore::KvStore;
use gemini_net::ByteSize;
use gemini_sim::SimTime;
use std::collections::{BTreeSet, HashMap};

fn t(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

/// A byte-level mirror of the metadata store: (host, owner) → encoded
/// checkpoint frames, as a real deployment would hold them in CPU memory.
struct ByteStore {
    frames: HashMap<(usize, usize), Vec<u8>>,
}

impl ByteStore {
    fn checkpoint(placement: &Placement, iteration: u64) -> ByteStore {
        let mut frames = HashMap::new();
        for owner in 0..placement.machines() {
            // Each owner's "model states": deterministic bytes derived from
            // its rank and the iteration.
            let data: Vec<u8> = (0..4096u32)
                .flat_map(|i| (i ^ owner as u32 ^ iteration as u32).to_le_bytes())
                .collect();
            let frame = codec::encode(owner as u32, iteration, &data).to_vec();
            for &host in placement.replica_hosts(owner).unwrap() {
                frames.insert((host, owner), frame.clone());
            }
        }
        ByteStore { frames }
    }

    fn machine_lost(&mut self, host: usize) {
        self.frames.retain(|(h, _), _| *h != host);
    }
}

#[test]
fn full_coordination_and_byte_recovery_pipeline() {
    let n = 8;
    let cfg = GeminiConfig::default();
    let placement = Placement::mixed(n, 2).unwrap();
    let mut meta = HierarchicalStore::new(placement.clone(), ByteSize::from_gb(75));
    meta.persist(0);

    // Coordination plane comes up.
    let mut kv = KvStore::new();
    let mut workers: Vec<WorkerAgent> =
        (0..n).map(|r| WorkerAgent::new(r, r as u64, cfg)).collect();
    for w in workers.iter_mut() {
        w.register(&mut kv, t(0)).unwrap();
    }
    let mut root = RootAgent::new("machine-0", &cfg);
    assert!(root.campaign(&mut kv, t(0)).unwrap());

    // Training proceeds; checkpoint 42 commits in metadata and bytes.
    meta.record_complete(42);
    let mut bytes = ByteStore::checkpoint(&placement, 42);

    // Machine 5 dies (hardware): heartbeats stop, CPU memory is wiped.
    meta.machine_lost(5);
    bytes.machine_lost(5);
    let mut detected = None;
    let mut report = ScanReport::default();
    for s in 1..60 {
        if s % 5 == 0 {
            for w in workers.iter_mut() {
                if w.rank() != 5 {
                    w.heartbeat(&mut kv, t(s)).unwrap();
                }
            }
            root.campaign(&mut kv, t(s)).unwrap();
        }
        root.scan(&mut kv, t(s), n, &mut report);
        if report.missing == vec![5] {
            detected = Some(s);
            break;
        }
    }
    let detected = detected.expect("failure detected");
    assert!(detected <= 15, "detected at {detected}s");

    // The root plans recovery; rank 5 must fetch from its group peer 4.
    let plan = RecoveryPlanner
        .plan(&meta, &[(5, FailureKind::Hardware)], &BTreeSet::new())
        .unwrap();
    assert_eq!(plan.case, RecoveryCase::HardwareFromCpu);
    assert_eq!(plan.iteration, 42);
    let src = plan.sources.iter().find(|s| s.rank == 5).unwrap();
    let serving_host = src.from.unwrap();
    assert_eq!(serving_host, 4);

    // The replacement machine pulls the actual frame from the serving host
    // and decodes it — byte-for-byte recovery of rank 5's model states.
    let frame = bytes
        .frames
        .get(&(serving_host, 5))
        .expect("surviving replica holds the bytes");
    let payload = codec::decode(frame).unwrap();
    assert_eq!(payload.owner, 5);
    assert_eq!(payload.iteration, 42);
    let expected: Vec<u8> = (0..4096u32)
        .flat_map(|i| (i ^ 5u32 ^ 42u32).to_le_bytes())
        .collect();
    assert_eq!(&payload.data[..], &expected[..]);
}

#[test]
fn corrupted_replica_is_rejected_and_alternative_found() {
    let n = 6;
    let placement = Placement::mixed(n, 3).unwrap();
    let bytes = ByteStore::checkpoint(&placement, 7);

    // Rank 1's hosts are {0, 1, 2}. Suppose host 0's copy got corrupted
    // in transit; the checksum catches it and host 2 serves instead.
    let mut corrupted = bytes.frames.get(&(0, 1)).unwrap().clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0xFF;
    assert!(codec::decode(&corrupted).is_err());

    let fallback = bytes.frames.get(&(2, 1)).expect("third replica");
    let payload = codec::decode(fallback).unwrap();
    assert_eq!(payload.owner, 1);
}

#[test]
fn root_failover_and_continued_detection() {
    let n = 4;
    let cfg = GeminiConfig::default();
    let mut kv = KvStore::new();
    let mut workers: Vec<WorkerAgent> =
        (0..n).map(|r| WorkerAgent::new(r, r as u64, cfg)).collect();
    for w in workers.iter_mut() {
        w.register(&mut kv, t(0)).unwrap();
    }
    let mut roots: Vec<RootAgent> = (0..n)
        .map(|r| RootAgent::new(&format!("machine-{r}"), &cfg))
        .collect();

    // machine-0 leads; machines 0 AND 2 die at t = 10.
    let mut leader_history = Vec::new();
    let mut detected_missing: Option<Vec<usize>> = None;
    let mut report = ScanReport::default();
    for s in 0..80u64 {
        for rank in 0..n {
            let dead = s >= 10 && (rank == 0 || rank == 2);
            if dead {
                continue;
            }
            if s % 5 == 0 {
                workers[rank].heartbeat(&mut kv, t(s)).unwrap();
            }
            let _ = roots[rank].campaign(&mut kv, t(s));
        }
        for (rank, root) in roots.iter_mut().enumerate() {
            let dead = s >= 10 && (rank == 0 || rank == 2);
            if !dead && root.leader(&mut kv, t(s)) == Some(root.identity()) {
                leader_history.push((s, rank));
                root.scan(&mut kv, t(s), n, &mut report);
                if report.missing.len() == 2 && detected_missing.is_none() {
                    detected_missing = Some(report.missing.clone());
                }
            }
        }
    }
    // Leadership moved off machine-0 and detection still happened.
    let last_leader = leader_history.last().unwrap().1;
    assert_ne!(last_leader, 0);
    assert_eq!(detected_missing, Some(vec![0, 2]));
}
