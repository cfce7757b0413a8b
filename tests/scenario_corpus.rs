//! Seed-corpus regression test: every committed scenario under
//! `tests/corpus/*.ron` is replayed on each `cargo test` and must reproduce
//! its pinned outcome exactly — commit/abort counts, Byzantine commits, and
//! the digest of the committed transaction set. The corpus holds minimized
//! specs worth keeping forever: once a fuzz failure is fixed, its shrunk
//! spec lands here so the schedule that found the bug is re-run for the rest
//! of the repository's life.
//!
//! Re-pinning after an intentional behaviour change:
//!
//! ```text
//! BASIL_CORPUS_PIN=1 cargo test -p basil-scenario --test scenario_corpus -- --nocapture
//! ```
//!
//! prints the freshly computed `expect` block for every entry instead of
//! asserting, ready to paste into the corpus file.

use basil::cluster::RuntimeMode;
use basil_scenario::ron;
use basil_scenario::runner::run_basil_spec;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn corpus_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ron"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the corpus is never empty");
    files
}

// Named for the two runtimes it used to replay on; one is left.
#[test]
fn corpus_replays_match_pinned_outcomes_on_both_runtimes() {
    let pin = std::env::var("BASIL_CORPUS_PIN").is_ok();
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("readable corpus entry");
        let spec = ron::decode(&text).unwrap_or_else(|e| panic!("{name}: parse error: {e}"));
        spec.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid spec: {e}"));

        let out = run_basil_spec(&spec, RuntimeMode::Serial);
        if pin {
            println!(
                "{name}: check={:?} tail_committed={} dropped={} corrupted={} replayed={}\n    \
                 expect: Some((\n        committed: {},\n        \
                 aborted_attempts: {},\n        byz_committed: {},\n        \
                 digest: \"{}\",\n    )),",
                out.check(&spec),
                out.tail_committed,
                out.messages_dropped,
                out.messages_corrupted,
                out.messages_replayed,
                out.committed,
                out.aborted_attempts,
                out.byz_committed,
                out.digest
            );
            continue;
        }

        assert_eq!(
            out.check(&spec),
            None,
            "{name}: scenario checks failed: {:?}",
            out.audit_failure
        );

        let expect = spec
            .expect
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: corpus entries must pin an expect block"));
        assert_eq!(out.committed, expect.committed, "{name}: committed");
        assert_eq!(
            out.aborted_attempts, expect.aborted_attempts,
            "{name}: aborted_attempts"
        );
        assert_eq!(
            out.byz_committed, expect.byz_committed,
            "{name}: byz_committed"
        );
        assert_eq!(out.digest, expect.digest, "{name}: committed-set digest");
    }
}

/// The corpus stays canonical: each file, its `//` comment lines aside, is
/// byte for byte what the codec writes for the spec it decodes to, so hand
/// edits can't drift from the encoder.
#[test]
fn corpus_entries_round_trip_through_the_codec() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("readable");
        let spec = ron::decode(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let body: String = text
            .lines()
            .filter(|line| !line.starts_with("//"))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(
            ron::encode(&spec),
            body,
            "{name}: not the canonical encoding"
        );
    }
}

/// A time field at `u64::MAX` is refused as an error, not a panic: not in
/// `validate`'s arithmetic, and not later, where the runner turns every
/// window into simulated time.
#[test]
fn corpus_entries_with_a_u64_max_time_field_are_errors() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let text = std::fs::read_to_string(&path).expect("readable");
        let mut tried = 0;
        for line in text.lines().filter(|line| !line.starts_with("//")) {
            // Every `*_ms` and `*_us` field, bare (`at_ms: 50`) or optional
            // (`restart_ms: Some(90)`).
            for (at, _) in line.match_indices(':') {
                let field = line[..at]
                    .rsplit(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .next()
                    .unwrap_or_default();
                if !(field.ends_with("_ms") || field.ends_with("_us")) {
                    continue;
                }
                let value = line[at + 1..].trim_start();
                let value = value.strip_prefix("Some(").unwrap_or(value);
                let digits = value
                    .find(|c: char| !(c.is_ascii_digit() || c == '-'))
                    .unwrap_or(value.len());
                if digits == 0 {
                    continue; // `None`
                }
                let start = line.len() - value.len();
                let maxed_line = format!("{}{}{}", &line[..start], u64::MAX, &value[digits..]);
                let maxed = text.replacen(line, &maxed_line, 1);
                let verdict = ron::decode(&maxed).and_then(|spec| spec.validate());
                assert!(verdict.is_err(), "{name}: {field} = u64::MAX was accepted");
                tried += 1;
            }
        }
        assert!(tried >= 4, "{name}: only {tried} time fields found");
    }
}
