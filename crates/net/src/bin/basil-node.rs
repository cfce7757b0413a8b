//! `basil-node`: one Basil participant as an OS process.
//!
//! Runs the unmodified `BasilReplica` or `BasilClient` state machine from
//! `basil-core` over localhost TCP (see `basil_net`). Launched by the
//! supervisor harness or by hand:
//!
//! ```text
//! basil-node --role replica --who 0 --clients 2 --seed 42 \
//!   --base-port 4600 --epoch-nanos <unix-nanos> --duration-ms 2000 \
//!   --wal /tmp/replica-0.wal --results /tmp/replica-0.results
//! ```
//!
//! Exits 0 after writing the results file, 2 on a usage error, and 1 on an
//! IO error — in particular a WAL file it cannot read or write, which the
//! message names.

use basil_net::node::{deployment_config, run_node, NodeConfig, Role};
use std::path::PathBuf;

fn usage(err: &str) -> ! {
    eprintln!("basil-node: {err}");
    eprintln!(
        "usage: basil-node --role replica|client --who N --clients N --seed N \
         --base-port N --epoch-nanos N --duration-ms N [--wal PATH] --results PATH \
         [--keys N] [--reads N] [--writes N]"
    );
    std::process::exit(2);
}

/// Parses a numeric flag value. A typo must not fall back to a default: a
/// node started with a different `--seed` derives a different key registry
/// and every cross-process signature check then fails without a diagnostic.
fn number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: invalid value {raw:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut role: Option<String> = None;
    let mut who: Option<u64> = None;
    let mut clients: Option<u32> = None;
    let mut seed: u64 = 42;
    let mut base_port: Option<u16> = None;
    let mut epoch_nanos: Option<u64> = None;
    let mut duration_ms: u64 = 2_000;
    let mut wal: Option<PathBuf> = None;
    let mut results: Option<PathBuf> = None;
    let mut keys: u64 = 1_000;
    let mut reads: usize = 2;
    let mut writes: usize = 2;

    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || -> String {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--role" => role = Some(value()),
            "--who" => who = Some(number(flag, &value())),
            "--clients" => clients = Some(number(flag, &value())),
            "--seed" => seed = number(flag, &value()),
            "--base-port" => base_port = Some(number(flag, &value())),
            "--epoch-nanos" => epoch_nanos = Some(number(flag, &value())),
            "--duration-ms" => duration_ms = number(flag, &value()),
            "--wal" => wal = Some(PathBuf::from(value())),
            "--results" => results = Some(PathBuf::from(value())),
            "--keys" => keys = number(flag, &value()),
            "--reads" => reads = number(flag, &value()),
            "--writes" => writes = number(flag, &value()),
            other => usage(&format!("unknown flag {other}")),
        }
    }

    let who = who.unwrap_or_else(|| usage("--who is required"));
    let num_clients = clients.unwrap_or_else(|| usage("--clients is required"));
    let base_port = base_port.unwrap_or_else(|| usage("--base-port is required"));
    // Every node's port must exist: replicas sit at `base_port + index` and
    // clients at `base_port + 100 + id`.
    if u64::from(base_port) + 100 + u64::from(num_clients) > u64::from(u16::MAX) {
        usage(&format!(
            "--base-port {base_port}: no room for {num_clients} client ports above it"
        ));
    }
    let replicas = deployment_config().system.shard.n();
    let role = match role.as_deref() {
        Some("replica") if who < u64::from(replicas) => Role::Replica { index: who as u32 },
        Some("replica") => usage(&format!(
            "--who {who}: replica index out of range (n = {replicas})"
        )),
        Some("client") if who < u64::from(num_clients) => Role::Client { id: who },
        Some("client") => usage(&format!(
            "--who {who}: client id out of range (--clients {num_clients})"
        )),
        _ => usage("--role must be replica or client"),
    };
    let cfg = NodeConfig {
        role,
        num_clients,
        seed,
        base_port,
        epoch_unix_nanos: epoch_nanos.unwrap_or_else(|| usage("--epoch-nanos is required")),
        duration_ms,
        wal_path: wal,
        results_path: results.unwrap_or_else(|| usage("--results is required")),
        keys,
        reads,
        writes,
    };
    if let Err(e) = run_node(&cfg) {
        eprintln!("basil-node: {e}");
        std::process::exit(1);
    }
}
