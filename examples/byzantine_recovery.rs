//! Byzantine-recovery example: a Byzantine client prepares a transaction on a
//! hot key and stalls; a correct client that reads the key acquires a
//! dependency on the stalled transaction and uses Basil's per-transaction
//! fallback (Section 5) to finish it and commit its own transaction.
//!
//! **That is what it is meant to show, not what it runs today** (ROADMAP open
//! item 1, "Make the fallback live"): the client's
//! Byzantine hooks read `BasilConfig::client_strategy`, which nothing here
//! sets, and never the `FaultProfile`'s strategy, so client 1 follows the
//! protocol, the run prints `fallback invocations  : 0` and the closing banner
//! overstates it. `tests/fallback_recovery.rs` (`really_byzantine_config`)
//! shows the two knobs that turn the behaviour on; the example is left as it
//! is until the wiring is fixed.
//!
//! Run with: `cargo run --example byzantine_recovery`

use basil::harness::{BasilCluster, ClusterConfig};
use basil::{ClientId, Duration, Key, NodeId, Op, ScriptedGenerator, TxProfile, Value};
use basil_core::byzantine::{ClientStrategy, FaultProfile};
use basil_core::BasilClient;

fn main() {
    // Two clients: client 0 is correct, client 1 follows the stall-early
    // strategy (sends ST1 and then disappears).
    let config = ClusterConfig::basil_default(2)
        .with_initial_data(vec![(Key::new("hot"), Value::from_u64(1))])
        .with_byzantine_clients(1, FaultProfile::always(ClientStrategy::StallEarly));

    let mut cluster = BasilCluster::build(config, |client: ClientId| {
        if client.0 == 1 {
            // The Byzantine client writes the hot key and stalls.
            Box::new(ScriptedGenerator::new([TxProfile::new(
                "byzantine-write",
                vec![Op::Write(Key::new("hot"), Value::from_u64(999))],
            )]))
        } else {
            // The correct client reads the hot key (acquiring a dependency on
            // the stalled write) and records what it saw.
            Box::new(ScriptedGenerator::new(vec![
                TxProfile::new(
                    "dependent-read",
                    vec![
                        Op::Read(Key::new("hot")),
                        Op::RmwAdd {
                            key: Key::new("observations"),
                            delta: 1,
                        },
                    ],
                );
                3
            ]))
        }
    });

    cluster.run_for(Duration::from_secs(2));

    let honest = cluster
        .sim()
        .actor::<BasilClient>(NodeId::Client(ClientId(0)))
        .expect("client 0 exists");
    let stats = honest.stats();
    println!("correct client:");
    println!("  committed             : {}", stats.committed);
    println!("  dependent reads       : {}", stats.dependent_reads);
    println!("  fallback invocations  : {}", stats.fallback_invocations);
    println!("  fallback elections    : {}", stats.fallback_elections);
    println!(
        "hot key final value     : {:?}",
        cluster
            .latest_value(&Key::new("hot"))
            .and_then(|v| v.as_u64())
    );
    println!(
        "observations counter    : {:?}",
        cluster
            .latest_value(&Key::new("observations"))
            .and_then(|v| v.as_u64())
    );

    cluster.audit().expect("history is serializable");
    println!("serializability audit   : ok");
    assert_eq!(
        stats.committed, 3,
        "the correct client must commit all its transactions despite the stalled dependency"
    );
    println!("\nDespite the Byzantine client never finishing its transaction, the correct\nclient finished it on its behalf and committed all of its own transactions.");
}
