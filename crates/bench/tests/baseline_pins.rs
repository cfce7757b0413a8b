//! Pins of the three baseline systems (TAPIR-style, TxHotstuff,
//! TxBFT-SMaRt), captured before their client was rebased on the shared
//! transaction session: no golden trace or corpus entry covers the
//! baselines, so these runs are what shows that a change under
//! `BaselineClient` moved no commit, abort or decision.
//!
//! Every number is a function of the seed alone. A pin that moves means a
//! send, timer, PRNG draw or reply count of a baseline client moved; say why
//! in the PR that moves it.

use basil::baselines::SystemKind;
use basil_bench::{run_baseline, RunParams, Workload};
use basil_core::byzantine::ClientStrategy;
use basil_scenario::{run_baseline_spec, FaultBudget, ScenarioSpec, WorkloadSpec};

const KINDS: [SystemKind; 3] = [
    SystemKind::Tapir,
    SystemKind::TxHotstuff,
    SystemKind::TxBftSmart,
];

/// A fault-free RW-Z scenario: 6 clients, Zipf 0.9 over 200 keys (contended,
/// so aborts and retry backoffs are on the path), 300 ms.
fn rwz_spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "baseline-pin-rwz".into(),
        seed: 23,
        clients: 6,
        byz_clients: 0,
        byz_strategy: ClientStrategy::Correct,
        byz_fraction: 0.0,
        f: 1,
        batch_size: 4,
        relax_st2: false,
        warmup_ms: 30,
        duration_ms: 300,
        tail_ms: 60,
        budget: FaultBudget {
            crash: 0,
            deceit: 0,
        },
        workload: WorkloadSpec::RwZipf {
            reads: 2,
            writes: 2,
            keys: 200,
            theta: 0.9,
        },
        faults: vec![],
        expect: None,
    }
}

#[test]
fn baseline_scenario_outcomes_are_pinned() {
    // (committed, aborted attempts, committed-set digest, decisions digest)
    let pins: [(u64, u64, &str, &str); 3] = [
        (
            1081,
            386,
            "921c91e4f9716fd8819776d15adf695afc307707cd906995db92b61ba57d4caa",
            "3a3e44d789418eef09e8d03716bcf96053e2ff2272a695d704b3838f21e7683b",
        ),
        (
            108,
            66,
            "ec91ca6e05dfae8d7b82e9144e7351d80b5dee2843cff634650018b20624c004",
            "5080f1838b98947e2a6ec1fcf85242e28ecf2c847150882e56cf8f362fe771c9",
        ),
        (
            148,
            87,
            "e4a4e493e82adeb6ebbd873fba9bafdb3eb0ed5b5744525e41b74caa7c6a8efb",
            "81ee4feac6b1869836ed8b0350126a8a587c06eef9dda3a295c0200da4500540",
        ),
    ];
    let spec = rwz_spec();
    spec.validate().expect("valid spec");
    for (kind, pin) in KINDS.into_iter().zip(pins) {
        let out = run_baseline_spec(&spec, kind);
        assert!(out.audit_failure.is_none(), "{kind:?}: {out:?}");
        let got = (
            out.committed,
            out.aborted_attempts,
            out.digest.as_str(),
            out.decisions_digest.as_str(),
        );
        assert_eq!(got, pin, "{kind:?}");
    }
}

#[test]
fn baseline_quick_runs_are_pinned() {
    // (committed, aborted attempts, bits of the mean commit latency in ms):
    // the window counts plus the exact sum of the window's latencies.
    let pins: [(u64, u64, u64); 3] = [
        (1617, 117, 4604715380657971115),
        (135, 9, 4621027655399117395),
        (205, 3, 4618198423893256865),
    ];
    let workload = Workload::RwZipf {
        reads: 2,
        writes: 2,
    };
    for (kind, pin) in KINDS.into_iter().zip(pins) {
        let report = run_baseline(kind, 1, workload, &RunParams::quick());
        let got = (
            report.committed,
            report.aborted_attempts,
            report.mean_latency_ms.to_bits(),
        );
        assert_eq!(got, pin, "{kind:?}");
    }
}
