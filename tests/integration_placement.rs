//! Cross-crate integration of the placement extensions: rack-aware
//! placement against correlated switch failures, the fluid-flow model
//! against the FIFO storage pipe, and hierarchical collectives against
//! the flat timeline model.

use gemini_cluster::FailureKind;
use gemini_collectives::hierarchical::hierarchy_overhead_factor;
use gemini_core::placement::topology::{rack_aware_mixed, rack_survival_rate, Topology};
use gemini_core::recovery::{RecoveryCase, RecoveryPlanner};
use gemini_core::{HierarchicalStore, Placement};
use gemini_harness::{Deployment, DrillConfig, Scenario};
use gemini_net::{
    fluid_completion_times, Bandwidth, ByteSize, FlowResource, FluidFlow, FluidNetwork,
    PersistentStorage, TransferCost,
};
use gemini_sim::SimTime;
use std::collections::BTreeSet;

#[test]
fn switch_failure_with_rack_aware_placement_recovers_from_cpu() {
    // 16 machines in 4 racks; a top-of-rack switch takes rack 2 down
    // (machines 8-11, all hardware failures at once).
    let topology = Topology::contiguous(16, 4).unwrap();
    let rack = 2usize;
    let victims: Vec<usize> = topology.machines_in_rack(rack);
    assert_eq!(victims, vec![8, 9, 10, 11]);

    let run = |placement: Placement| {
        let mut store = HierarchicalStore::new(placement, ByteSize::from_gb(75));
        store.persist(0);
        store.record_complete(42);
        for &v in &victims {
            store.machine_lost(v);
        }
        let failures: Vec<(usize, FailureKind)> = victims
            .iter()
            .map(|&v| (v, FailureKind::Hardware))
            .collect();
        RecoveryPlanner
            .plan(&store, &failures, &BTreeSet::new())
            .unwrap()
    };

    // Rack-oblivious: groups {8,9} and {10,11} sit inside the dead rack →
    // persistent fallback, rolling all the way back to iteration 0.
    let oblivious_plan = run(Placement::mixed(16, 2).unwrap());
    assert_eq!(oblivious_plan.case, RecoveryCase::PersistentFallback);
    assert_eq!(oblivious_plan.iteration, 0);

    // Rack-aware: every group spans two racks → all four victims fetch
    // from peers in surviving racks, keeping iteration 42.
    let aware_plan = run(rack_aware_mixed(&topology, 2).unwrap());
    assert_eq!(aware_plan.case, RecoveryCase::HardwareFromCpu);
    assert_eq!(aware_plan.iteration, 42);
    for &v in &victims {
        let src = aware_plan.sources.iter().find(|s| s.rank == v).unwrap();
        let from = src.from.unwrap();
        assert_ne!(topology.rack_of(from).unwrap(), rack);
    }
}

#[test]
fn end_to_end_rack_failure_drill_with_topology() {
    // The full event-driven drill with a rack-aware scenario: an entire
    // 4-machine rack dies and training still recovers from CPU memory.
    let topology = Topology::contiguous(16, 4).unwrap();
    let victims = topology.machines_in_rack(1);
    let mut scenario = Deployment::dense_gpt2_100b_p4d();
    scenario.rack_topology = Some(topology);
    let mut cfg = DrillConfig::fig14();
    cfg.scenario = scenario;
    cfg.failures = victims
        .iter()
        .map(|&v| (v, FailureKind::Hardware))
        .collect();
    let report = Scenario::drill(cfg).run().unwrap();
    assert_eq!(report.case, RecoveryCase::HardwareFromCpu);
    assert_eq!(report.resumed_from_iteration, 3);

    // The same drill without the topology degrades to the persistent
    // fallback — the whole point of the extension.
    let mut oblivious = DrillConfig::fig14();
    oblivious.failures = victims
        .iter()
        .map(|&v| (v, FailureKind::Hardware))
        .collect();
    let report = Scenario::drill(oblivious).run().unwrap();
    assert_eq!(report.case, RecoveryCase::PersistentFallback);
}

#[test]
fn rack_survival_summary_matches_planner_behaviour() {
    let topology = Topology::contiguous(16, 4).unwrap();
    assert_eq!(
        rack_survival_rate(&Placement::mixed(16, 2).unwrap(), &topology),
        0.0
    );
    assert_eq!(
        rack_survival_rate(&rack_aware_mixed(&topology, 2).unwrap(), &topology),
        1.0
    );
}

#[test]
fn fluid_fan_in_agrees_with_fifo_pipe_on_the_last_finisher() {
    // §6.2 Case 2: 16 machines re-read the full model state through the
    // 20 Gbps FSx pipe. The FIFO model serializes the reads; the fluid
    // model shares the pipe fairly. The recovery completes when the *last*
    // machine finishes — identical in both models.
    let agg = Bandwidth::from_gbps(20.0);
    let per_machine = ByteSize::from_gb(75);

    let mut fifo = PersistentStorage::new(TransferCost::pure_bandwidth(agg));
    let mut last_fifo = SimTime::ZERO;
    for _ in 0..16 {
        last_fifo = last_fifo.max(fifo.read(SimTime::ZERO, per_machine).end);
    }

    let net = FluidNetwork::symmetric(16, Bandwidth::from_gbytes_per_sec(50.0), Some(agg));
    let flows: Vec<FluidFlow> = (0..16)
        .map(|m| FluidFlow {
            resources: vec![FlowResource::Shared, FlowResource::Rx(m)],
            bytes: per_machine,
        })
        .collect();
    let fluid = fluid_completion_times(&net, &flows);
    let last_fluid = fluid.iter().max().unwrap();

    let fifo_secs = (last_fifo - SimTime::ZERO).as_secs_f64();
    assert!(
        (fifo_secs - last_fluid.as_secs_f64()).abs() < 1e-3,
        "FIFO {fifo_secs:.1}s vs fluid {last_fluid}"
    );
    // But fluid fairness means *every* reader finishes at that time, while
    // FIFO finishes the first reader 16× sooner.
    let first_fluid = fluid.iter().min().unwrap();
    assert_eq!(first_fluid, last_fluid);
}

#[test]
fn hierarchical_collectives_justify_the_flat_timeline_model() {
    // The timeline generator charges only inter-node time; the hierarchical
    // model shows the NVSwitch phases add under 6% on p4d-class hardware —
    // the documented approximation.
    let inter = TransferCost::new(
        gemini_sim::SimDuration::from_micros(100),
        Bandwidth::from_gbps(400.0).scaled(0.23),
    );
    let nvswitch = TransferCost::new(
        gemini_sim::SimDuration::from_micros(5),
        Bandwidth::from_gbytes_per_sec(600.0),
    );
    // A GPT-2 100B layer's fp16 parameters: ≈1.6 GB gathered.
    let layer = ByteSize::from_gb_f64(1.6);
    let factor = hierarchy_overhead_factor(layer, 16, 8, &inter, &nvswitch);
    assert!(
        (1.0..1.06).contains(&factor),
        "hierarchy overhead factor = {factor:.4}"
    );
}
