//! Parsing and diffing of the criterion shim's `BENCH_<bin>.json` files.
//!
//! Every benchmark binary serializes its results when `BASIL_BENCH_JSON`
//! names a directory (see the workspace `criterion` shim). A canonical set
//! of those snapshots is committed under `bench/baseline/`, which turns the
//! repository's perf trajectory into data: the `bench_diff` binary loads
//! the committed baseline and a freshly generated directory, matches
//! benchmarks label-wise, and flags deltas beyond a noise band. CI runs it
//! as a non-blocking report step; locally it is a one-command regression
//! check after a perf-sensitive change.
//!
//! The parser is hand-rolled for the shim's fixed output shape (the
//! workspace has no serde): a flat object with `"bin"`, `"mode"`, and a
//! `"results"` map of `label -> ns_per_iter | null` (null for untimed
//! `--test` passes).

use std::collections::BTreeMap;
use std::path::Path;

/// One parsed `BENCH_<bin>.json` file.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchSnapshot {
    /// Benchmark binary name (`crypto_bench`, `store_bench`, ...).
    pub bin: String,
    /// `"timed"` or `"test"` (untimed smoke pass).
    pub mode: String,
    /// `label -> mean ns/iter` in file order; `None` for untimed entries.
    pub results: Vec<(String, Option<f64>)>,
}

/// Reads one quoted JSON string from the start of `s`, returning the
/// unescaped contents and the remainder after the closing quote.
fn parse_quoted(s: &str) -> Option<(String, &str)> {
    let rest = s.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '\\' => {
                let (_, escaped) = chars.next()?;
                out.push(escaped);
            }
            '"' => return Some((out, &rest[i + 1..])),
            _ => out.push(c),
        }
    }
    None
}

/// Parses the body of a `BENCH_<bin>.json` file written by the criterion
/// shim. Tolerates whitespace and ordering but not arbitrary JSON — the
/// shape is the shim's and nothing else writes these files.
pub fn parse_snapshot(body: &str) -> Result<BenchSnapshot, String> {
    let mut bin = None;
    let mut mode = None;
    let mut results = Vec::new();
    let mut in_results = false;
    for raw in body.lines() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "{" || line == "}" {
            if in_results && line == "}" {
                in_results = false;
            }
            continue;
        }
        let Some((key, rest)) = parse_quoted(line) else {
            continue;
        };
        let value = rest
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("missing ':' after key {key:?}"))?
            .trim();
        if in_results {
            let ns = if value == "null" {
                None
            } else {
                Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("bad ns value for {key:?}: {e}"))?,
                )
            };
            results.push((key, ns));
        } else {
            match key.as_str() {
                "bin" => bin = parse_quoted(value).map(|(s, _)| s),
                "mode" => mode = parse_quoted(value).map(|(s, _)| s),
                "results" => in_results = true,
                other => return Err(format!("unexpected top-level key {other:?}")),
            }
        }
    }
    Ok(BenchSnapshot {
        bin: bin.ok_or("missing \"bin\"")?,
        mode: mode.ok_or("missing \"mode\"")?,
        results,
    })
}

/// Loads every `BENCH_*.json` under `dir`, sorted by file name so runs are
/// reproducible regardless of directory iteration order.
pub fn load_snapshot_dir(dir: &Path) -> Result<Vec<BenchSnapshot>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .map(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                .unwrap_or(false)
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", dir.display()));
    }
    files
        .into_iter()
        .map(|p| {
            let body = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_snapshot(&body).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

/// Outcome of comparing one benchmark label between baseline and current.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Current is slower than baseline by more than the noise band.
    Regression,
    /// Current is faster than baseline by more than the noise band.
    Improvement,
    /// Delta within the noise band.
    Within,
    /// Present (timed) only in the current run.
    New,
    /// Present (timed) in the baseline but absent from the current run.
    Missing,
    /// Present in both but untimed in the current run (`--test` mode).
    Untimed,
}

/// One row of a snapshot comparison.
#[derive(Clone, Debug)]
pub struct DiffLine {
    /// Benchmark binary the label belongs to.
    pub bin: String,
    /// Benchmark label (`group/case`).
    pub label: String,
    /// Baseline mean ns/iter, if the baseline entry was timed.
    pub baseline_ns: Option<f64>,
    /// Current mean ns/iter, if the current entry was timed.
    pub current_ns: Option<f64>,
    /// `(current - baseline) / baseline`, when both sides are timed.
    pub delta: Option<f64>,
    /// Classification under the configured noise band.
    pub verdict: Verdict,
}

/// Compares two snapshot sets label-wise. `noise` is the fractional band
/// (0.30 = ±30%) within which a delta is attributed to machine noise — the
/// shim is a single-sample wall-clock harness, so the band must be generous.
pub fn diff_snapshots(
    baseline: &[BenchSnapshot],
    current: &[BenchSnapshot],
    noise: f64,
) -> Vec<DiffLine> {
    let index = |snaps: &[BenchSnapshot]| -> BTreeMap<(String, String), Option<f64>> {
        snaps
            .iter()
            .flat_map(|s| {
                s.results
                    .iter()
                    .map(move |(label, ns)| ((s.bin.clone(), label.clone()), *ns))
            })
            .collect()
    };
    let base = index(baseline);
    let cur = index(current);
    let mut lines = Vec::new();
    for ((bin, label), base_ns) in &base {
        let (current_ns, verdict, delta) = match (base_ns, cur.get(&(bin.clone(), label.clone()))) {
            (_, None) => (None, Verdict::Missing, None),
            (_, Some(None)) => (None, Verdict::Untimed, None),
            (None, Some(&Some(ns))) => (Some(ns), Verdict::New, None),
            (Some(base_ns), Some(&Some(ns))) => {
                let delta = (ns - base_ns) / base_ns;
                let verdict = if delta > noise {
                    Verdict::Regression
                } else if delta < -noise {
                    Verdict::Improvement
                } else {
                    Verdict::Within
                };
                (Some(ns), verdict, Some(delta))
            }
        };
        lines.push(DiffLine {
            bin: bin.clone(),
            label: label.clone(),
            baseline_ns: *base_ns,
            current_ns,
            delta,
            verdict,
        });
    }
    for ((bin, label), cur_ns) in &cur {
        if base.contains_key(&(bin.clone(), label.clone())) {
            continue;
        }
        if let Some(ns) = cur_ns {
            lines.push(DiffLine {
                bin: bin.clone(),
                label: label.clone(),
                baseline_ns: None,
                current_ns: Some(*ns),
                delta: None,
                verdict: Verdict::New,
            });
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "bin": "store_bench",
  "mode": "timed",
  "results": {
    "store_contention/prepare_zipf_hot": 51000.5,
    "store_contention/prepare_zipf_stale": 103188.4,
    "store/gc_sweep": null
  }
}
"#;

    #[test]
    fn parses_the_shim_format() {
        let snap = parse_snapshot(SAMPLE).expect("parses");
        assert_eq!(snap.bin, "store_bench");
        assert_eq!(snap.mode, "timed");
        assert_eq!(snap.results.len(), 3);
        assert_eq!(
            snap.results[0],
            (
                "store_contention/prepare_zipf_hot".to_string(),
                Some(51000.5)
            )
        );
        assert_eq!(snap.results[2], ("store/gc_sweep".to_string(), None));
    }

    #[test]
    fn parses_escaped_labels() {
        let body = "{\n  \"bin\": \"b\",\n  \"mode\": \"test\",\n  \"results\": {\n    \"case \\\"quoted\\\"\": null\n  }\n}\n";
        let snap = parse_snapshot(body).expect("parses");
        assert_eq!(snap.results[0].0, "case \"quoted\"");
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(parse_snapshot("{\n  \"results\": {\n  }\n}\n").is_err());
    }

    fn snap(bin: &str, results: &[(&str, Option<f64>)]) -> BenchSnapshot {
        BenchSnapshot {
            bin: bin.to_string(),
            mode: "timed".to_string(),
            results: results.iter().map(|(l, ns)| (l.to_string(), *ns)).collect(),
        }
    }

    #[test]
    fn diff_classifies_against_the_noise_band() {
        let baseline = [snap(
            "b",
            &[
                ("g/same", Some(100.0)),
                ("g/slower", Some(100.0)),
                ("g/faster", Some(100.0)),
                ("g/gone", Some(100.0)),
                ("g/now_untimed", Some(100.0)),
                ("g/was_untimed", None),
            ],
        )];
        let current = [snap(
            "b",
            &[
                ("g/same", Some(110.0)),
                ("g/slower", Some(140.0)),
                ("g/faster", Some(60.0)),
                ("g/now_untimed", None),
                ("g/was_untimed", Some(50.0)),
                ("g/brand_new", Some(10.0)),
            ],
        )];
        let lines = diff_snapshots(&baseline, &current, 0.30);
        let verdict = |label: &str| {
            lines
                .iter()
                .find(|l| l.label == label)
                .map(|l| l.verdict)
                .expect("line present")
        };
        assert_eq!(verdict("g/same"), Verdict::Within);
        assert_eq!(verdict("g/slower"), Verdict::Regression);
        assert_eq!(verdict("g/faster"), Verdict::Improvement);
        assert_eq!(verdict("g/gone"), Verdict::Missing);
        assert_eq!(verdict("g/now_untimed"), Verdict::Untimed);
        assert_eq!(verdict("g/was_untimed"), Verdict::New);
        assert_eq!(verdict("g/brand_new"), Verdict::New);
        let slower = lines.iter().find(|l| l.label == "g/slower").unwrap();
        assert!((slower.delta.unwrap() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn labels_only_collide_within_the_same_bin() {
        let baseline = [snap("a", &[("g/case", Some(100.0))])];
        let current = [snap("b", &[("g/case", Some(100.0))])];
        let lines = diff_snapshots(&baseline, &current, 0.30);
        assert_eq!(lines.len(), 2);
        assert!(lines
            .iter()
            .any(|l| l.bin == "a" && l.verdict == Verdict::Missing));
        assert!(lines
            .iter()
            .any(|l| l.bin == "b" && l.verdict == Verdict::New));
    }

    #[test]
    fn snapshot_roundtrips_through_a_directory() {
        let dir = std::env::temp_dir().join(format!("bench-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("BENCH_store_bench.json"), SAMPLE).expect("write");
        std::fs::write(dir.join("ignored.txt"), "not a snapshot").expect("write");
        let snaps = load_snapshot_dir(&dir).expect("loads");
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].bin, "store_bench");
        std::fs::remove_dir_all(&dir).ok();
    }
}
