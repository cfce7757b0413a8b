//! Offline stand-in for the [`criterion`](https://crates.io/crates/criterion)
//! benchmark harness.
//!
//! The build environment has no network access, so this workspace-local shim
//! implements the API subset the `basil-bench` crate uses:
//! [`criterion_group!`] / [`criterion_main!`], [`Criterion::bench_function`],
//! benchmark groups with [`BenchmarkGroup::bench_with_input`] /
//! [`BenchmarkGroup::throughput`], and [`Bencher::iter`] /
//! [`Bencher::iter_batched`].
//!
//! It is a plain wall-clock harness: each benchmark is warmed up briefly,
//! then timed over enough iterations to fill the configured measurement
//! time, and mean ns/iter is printed. There is no statistical analysis or
//! HTML report — the goal is that `cargo bench` builds, runs, and produces
//! comparable numbers offline.
//!
//! Like real criterion, the generated `main` understands a subset of the
//! CLI: positional arguments are substring filters on benchmark labels
//! (`a|b` selects either, the one piece of criterion's regex filters CI
//! uses), and `--test` runs each selected benchmark exactly once without
//! timing (the mode CI smoke steps use:
//! `cargo bench --bench foo -- --test 'zipf|cold'`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Runtime options parsed from the benchmark binary's CLI arguments.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    /// Run each benchmark once, untimed (criterion's `--test` smoke mode).
    pub test_mode: bool,
    /// Substring filters, each possibly several alternatives joined by `|`;
    /// a benchmark runs when any filter matches its label (all run when
    /// empty).
    pub filters: Vec<String>,
}

static CLI_OPTIONS: OnceLock<CliOptions> = OnceLock::new();
static BENCHES_RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// `(label, mean ns/iter)` of every benchmark this process ran; `None` ns
/// for untimed `--test` passes. Serialized to `BENCH_<bin>.json` when
/// `BASIL_BENCH_JSON` names a directory (see [`finish_cli`]).
static RESULTS: std::sync::Mutex<Vec<(String, Option<f64>)>> = std::sync::Mutex::new(Vec::new());

/// Criterion flags that consume the next argument; their values must not be
/// mistaken for label filters.
fn takes_value(flag: &str) -> bool {
    matches!(
        flag,
        "--profile-time"
            | "--sample-size"
            | "--measurement-time"
            | "--warm-up-time"
            | "--save-baseline"
            | "--baseline"
            | "--load-baseline"
            | "--color"
    )
}

/// Parses `std::env::args` into the global [`CliOptions`]. Called by the
/// `main` that [`criterion_main!`] generates; calling it again is a no-op.
pub fn init_cli_from_args() {
    let mut options = CliOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--test" => options.test_mode = true,
            // Flags real criterion accepts but the shim times its own way.
            "--bench" | "--noplot" | "--quiet" | "--verbose" => {}
            flag if takes_value(flag) => {
                let _ = args.next();
            }
            other => {
                if !other.starts_with('-') {
                    options.filters.push(other.to_string());
                }
            }
        }
    }
    let _ = CLI_OPTIONS.set(options);
}

/// Called by the generated `main` after all groups ran: a filter that
/// selected nothing is an error, not a silent success — otherwise a renamed
/// benchmark would turn a CI smoke gate into a no-op that still passes.
/// Additionally, when `BASIL_BENCH_JSON` names a directory, writes the
/// machine-readable results file (`BENCH_<bin>.json`) CI archives to track
/// the perf trajectory across PRs.
pub fn finish_cli() {
    let options = cli_options();
    let ran = BENCHES_RUN.load(std::sync::atomic::Ordering::Relaxed);
    if no_selection(options, ran) {
        eprintln!(
            "error: filter(s) {:?} matched no benchmark — nothing was run",
            options.filters
        );
        std::process::exit(1);
    }
    if let Ok(dir) = std::env::var("BASIL_BENCH_JSON") {
        if let Err(e) = write_json_results(&dir) {
            eprintln!("error: failed to write BENCH json to {dir}: {e}");
            std::process::exit(1);
        }
    }
}

/// The benchmark binary's stem with cargo's trailing `-<hash>` stripped:
/// `target/release/deps/protocol_bench-1a2b3c` -> `protocol_bench`.
fn bench_bin_name() -> String {
    let arg0 = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&arg0)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    match stem.rsplit_once('-') {
        Some((name, hash))
            if !name.is_empty()
                && hash.len() == 16
                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            name.to_string()
        }
        _ => stem,
    }
}

/// Resolves a `BASIL_BENCH_JSON` directory. `cargo bench` runs benchmark
/// binaries with the *package* directory as cwd, so a relative path would
/// silently land under `crates/bench/` while CI and humans expect it at the
/// workspace root; relative paths are therefore anchored at the nearest
/// enclosing directory with a `Cargo.lock` (the workspace root), falling
/// back to the cwd when none is found.
fn resolve_json_dir(dir: &str) -> std::path::PathBuf {
    let path = std::path::Path::new(dir);
    if path.is_absolute() {
        return path.to_path_buf();
    }
    let mut probe = std::env::current_dir().unwrap_or_default();
    loop {
        if probe.join("Cargo.lock").is_file() {
            return probe.join(path);
        }
        if !probe.pop() {
            return path.to_path_buf();
        }
    }
}

/// Serializes the run's results as `BENCH_<bin>.json` under `dir` (relative
/// paths resolve against the workspace root, see [`resolve_json_dir`]):
/// `{"bin": ..., "mode": "timed"|"test", "results": {label: ns_per_iter|null}}`.
/// Hand-rolled JSON (labels are plain ASCII benchmark ids; quotes and
/// backslashes escaped defensively), so the offline shim needs no serde.
fn write_json_results(dir: &str) -> std::io::Result<()> {
    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let results = RESULTS.lock().expect("results poisoned");
    let bin = bench_bin_name();
    let mode = if cli_options().test_mode {
        "test"
    } else {
        "timed"
    };
    let mut body = String::new();
    body.push_str(&format!(
        "{{\n  \"bin\": \"{}\",\n  \"mode\": \"{mode}\",\n  \"results\": {{\n",
        escape(&bin)
    ));
    for (i, (label, ns)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        match ns {
            Some(ns) => body.push_str(&format!("    \"{}\": {ns:.1}{sep}\n", escape(label))),
            None => body.push_str(&format!("    \"{}\": null{sep}\n", escape(label))),
        }
    }
    body.push_str("  }\n}\n");
    let dir = resolve_json_dir(dir);
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(format!("BENCH_{bin}.json")), body)
}

/// Whether a run with `options` that executed `ran` benchmarks constitutes
/// a zero-match filter error.
fn no_selection(options: &CliOptions, ran: usize) -> bool {
    !options.filters.is_empty() && ran == 0
}

fn cli_options() -> &'static CliOptions {
    CLI_OPTIONS.get_or_init(CliOptions::default)
}

fn label_selected(label: &str) -> bool {
    filters_select(&cli_options().filters, label)
}

fn filters_select(filters: &[String], label: &str) -> bool {
    filters.is_empty()
        || filters
            .iter()
            .flat_map(|f| f.split('|'))
            .any(|alternative| label.contains(alternative))
}

/// How batched inputs are sized (accepted for API compatibility; the shim
/// re-runs the setup closure per batch regardless).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration input.
    SmallInput,
    /// Large per-iteration input.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Throughput annotation for a benchmark (printed next to the timing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter value only.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher {
    measurement_time: Duration,
    /// Run the routine once, untimed (`--test` smoke mode).
    test_mode: bool,
    /// Mean nanoseconds per iteration, filled in by the timing loop.
    elapsed_ns_per_iter: f64,
}

impl Bencher {
    /// Times `routine`, running it repeatedly until the measurement window
    /// is filled.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if self.test_mode {
            std::hint::black_box(routine());
            return;
        }
        // Warmup and per-iteration estimate.
        let warmup_start = Instant::now();
        let mut warmup_iters = 0u64;
        while warmup_start.elapsed() < self.measurement_time / 10 || warmup_iters < 1 {
            std::hint::black_box(routine());
            warmup_iters += 1;
            if warmup_iters >= 1_000_000 {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let target_iters = ((self.measurement_time.as_secs_f64() / per_iter.max(1e-9)) as u64)
            .clamp(1, 10_000_000);
        let start = Instant::now();
        for _ in 0..target_iters {
            std::hint::black_box(routine());
        }
        self.elapsed_ns_per_iter = start.elapsed().as_secs_f64() * 1e9 / target_iters as f64;
    }

    /// Times `routine` over inputs produced by `setup`; setup time is not
    /// counted.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        if self.test_mode {
            std::hint::black_box(routine(setup()));
            return;
        }
        let mut measured = Duration::ZERO;
        let mut iters = 0u64;
        // One warmup pass.
        std::hint::black_box(routine(setup()));
        while measured < self.measurement_time && iters < 10_000_000 {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            measured += start.elapsed();
            iters += 1;
        }
        self.elapsed_ns_per_iter = measured.as_secs_f64() * 1e9 / iters.max(1) as f64;
    }
}

fn run_one(
    label: &str,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    if !label_selected(label) {
        return;
    }
    BENCHES_RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let test_mode = cli_options().test_mode;
    let mut bencher = Bencher {
        measurement_time,
        test_mode,
        elapsed_ns_per_iter: 0.0,
    };
    f(&mut bencher);
    if test_mode {
        RESULTS
            .lock()
            .expect("results poisoned")
            .push((label.to_string(), None));
        println!("{label:<50} test: ok (one untimed pass)");
        return;
    }
    let ns = bencher.elapsed_ns_per_iter;
    RESULTS
        .lock()
        .expect("results poisoned")
        .push((label.to_string(), Some(ns)));
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) if ns > 0.0 => {
            format!(
                "  ({:.1} MiB/s)",
                bytes as f64 / (ns / 1e9) / (1024.0 * 1024.0)
            )
        }
        Some(Throughput::Elements(n)) if ns > 0.0 => {
            format!("  ({:.0} elem/s)", n as f64 / (ns / 1e9))
        }
        _ => String::new(),
    };
    println!("{label:<50} time: {:>12.1} ns/iter{rate}", ns);
}

/// The benchmark driver (shim of `criterion::Criterion`).
pub struct Criterion {
    measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            // The real default is 5 s per benchmark; the shim keeps runs
            // short so `cargo bench` over the whole workspace stays quick.
            measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Sets the nominal sample count (accepted for API compatibility; the
    /// shim times one aggregate sample).
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    /// Sets the measurement window per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        run_one(id, self.measurement_time, None, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        let measurement_time = self.measurement_time;
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            measurement_time,
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the nominal sample count (accepted for API compatibility).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement window for benchmarks in this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.measurement_time, self.throughput, &mut f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id);
        run_one(&label, self.measurement_time, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Declares a group of benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_cli_from_args();
            $( $group(); )+
            $crate::finish_cli();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_times_something() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
    }

    #[test]
    fn groups_and_batched_iteration_work() {
        let mut c = Criterion::default().measurement_time(Duration::from_millis(5));
        let mut group = c.benchmark_group("g");
        group
            .sample_size(10)
            .measurement_time(Duration::from_millis(5));
        group.throughput(Throughput::Bytes(64));
        group.bench_with_input(BenchmarkId::new("sum", 64), &vec![1u8; 64], |b, data| {
            b.iter(|| data.iter().map(|x| *x as u64).sum::<u64>())
        });
        group.bench_function("batched", |b| {
            b.iter_batched(Vec::<u64>::new, |mut v| v.push(1), BatchSize::SmallInput)
        });
        group.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 64).to_string(), "f/64");
        assert_eq!(BenchmarkId::from_parameter(8).to_string(), "8");
    }

    #[test]
    fn test_mode_runs_routine_exactly_once() {
        let mut bencher = Bencher {
            measurement_time: Duration::from_secs(60),
            test_mode: true,
            elapsed_ns_per_iter: 0.0,
        };
        let mut runs = 0u32;
        bencher.iter(|| runs += 1);
        assert_eq!(runs, 1, "untimed single pass");

        let mut batched_runs = 0u32;
        bencher.iter_batched(|| 1u32, |x| batched_runs += x, BatchSize::SmallInput);
        assert_eq!(batched_runs, 1);
    }

    #[test]
    fn filters_select_by_substring() {
        // The global options default to "run everything" when main never
        // parsed arguments (e.g. under `cargo test`).
        assert!(label_selected("anything/at-all"));
        let zipf = ["zipf".to_string()];
        assert!(filters_select(&zipf, "store/prepare_zipf_hot"));
        assert!(!filters_select(&zipf, "store/gc_sweep"));
        let either = ["zipf|cold".to_string()];
        assert!(filters_select(&either, "store/prepare_zipf_hot"));
        assert!(filters_select(&either, "store_cold_keys/prepare_commit"));
        assert!(!filters_select(&either, "store/gc_sweep"));
    }

    #[test]
    fn zero_match_filters_are_an_error_not_a_silent_pass() {
        let filtered = CliOptions {
            test_mode: true,
            filters: vec!["zipf".into()],
        };
        assert!(no_selection(&filtered, 0), "filter matched nothing: error");
        assert!(!no_selection(&filtered, 2), "filter matched: fine");
        let unfiltered = CliOptions::default();
        assert!(
            !no_selection(&unfiltered, 0),
            "no filters given: an empty bench binary is not an error"
        );
    }

    #[test]
    fn value_taking_flags_do_not_become_filters() {
        assert!(takes_value("--sample-size"));
        assert!(takes_value("--profile-time"));
        assert!(!takes_value("--test"));
        assert!(!takes_value("--bench"));
    }

    #[test]
    fn bench_bin_name_strips_cargo_hash() {
        // The parsing only strips a 16-hex-digit cargo hash suffix.
        // (bench_bin_name itself reads argv; exercise the rule directly.)
        let strip = |stem: &str| -> String {
            match stem.rsplit_once('-') {
                Some((name, hash))
                    if !name.is_empty()
                        && hash.len() == 16
                        && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                {
                    name.to_string()
                }
                _ => stem.to_string(),
            }
        };
        assert_eq!(strip("protocol_bench-1a2b3c4d5e6f7081"), "protocol_bench");
        assert_eq!(strip("store_bench"), "store_bench");
        assert_eq!(strip("my-bench-notahash"), "my-bench-notahash");
    }

    #[test]
    fn json_results_file_is_written_and_well_formed() {
        RESULTS
            .lock()
            .expect("results")
            .push(("group/case_a".to_string(), Some(123.4)));
        RESULTS
            .lock()
            .expect("results")
            .push(("group/case_b".to_string(), None));
        let dir = std::env::temp_dir().join(format!("bench-json-{}", std::process::id()));
        let dir_s = dir.to_str().expect("utf8 temp dir");
        write_json_results(dir_s).expect("written");
        let bin = bench_bin_name();
        let body =
            std::fs::read_to_string(dir.join(format!("BENCH_{bin}.json"))).expect("file exists");
        assert!(body.contains("\"group/case_a\": 123.4"));
        assert!(body.contains("\"group/case_b\": null"));
        assert!(body.trim_end().ends_with('}'));
        std::fs::remove_dir_all(&dir).ok();
    }
}
