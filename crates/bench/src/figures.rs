//! The paper's evaluation (§6, Figs. 4–7) as one table of experiments.
//!
//! Every point is a [`Point`]: its series and x-value, how it runs, the
//! number the paper reports for it, and the mechanism whose firing the run
//! must show. [`FIGURES`] lists the figures, each with the function that
//! lays out its points at a [`Scale`] and the one that derives its summary
//! lines from the measured rows. At full scale a point of Figs. 4–6b runs
//! at every client count of [`PEAK_CLIENTS`] and reports its peak. The `figures` binary runs a selection,
//! prints one table per figure and exits 1 when a row's `fired` differs
//! from what the table expects.

use crate::{basil_default, run_baseline, run_basil, RunParams, Workload};
use basil::baselines::SystemKind;
use basil::cluster::RuntimeMode;
use basil::{BasilConfig, ClientStrategy, ReadQuorum, RunReport, ShardConfig};
use basil_scenario::{run_basil_spec, FaultBudget, ScenarioSpec, WorkloadSpec};
use std::cmp::Reverse;

/// How large a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// [`RunParams::quick`] and the short grids: the CI smoke and the tests.
    Quick,
    /// [`RunParams::default`], the full grids and the peak search: the
    /// README's numbers.
    Full,
}

impl Scale {
    /// The run parameters every point of this scale starts from.
    pub fn params(self) -> RunParams {
        self.pick((RunParams::quick(), RunParams::default()))
    }

    fn pick<T>(self, (quick, full): (T, T)) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Fig. 5c: the widest `f = 1` deployment in shards, and the shard count of
/// the `f = 2` (n = 11) row, as (quick, full). The paper stops at 3.
const FIG5C_SHARDS: (u32, u32) = (3, 8);
const FIG5C_F2_SHARDS: (u32, u32) = (1, 3);
/// The client counts a full-scale capacity point runs at, 24·2^k for
/// k = 0..5; it reports the one that commits most. The paper compares peak
/// throughputs, and the peaks lie far apart: TPC-C on TxHotstuff peaks at
/// 48 clients, RW-Z at batch 64 still rises at 768.
pub const PEAK_CLIENTS: [u32; 6] = [24, 48, 96, 192, 384, 768];
/// A system, its baseline kind (`None` is Basil), and its paper tx/s (4a)
/// and mean ms (4b) on TPC-C, Smallbank and Retwis.
type Fig4System = (&'static str, Option<SystemKind>, [f64; 3], [f64; 3]);
#[rustfmt::skip]
const FIG4_PAPER: [Fig4System; 4] = [
    ("TAPIR", Some(SystemKind::Tapir), [19_801.0, 61_445.0, 43_286.0], [7.3, 2.3, 2.0]),
    ("Basil", None, [4_862.0, 23_536.0, 24_549.0], [30.7, 11.7, 10.0]),
    ("TxHotstuff", Some(SystemKind::TxHotstuff), [924.0, 6_401.0, 5_159.0], [73.1, 42.6, 48.9]),
    ("TxBFT-SMaRt", Some(SystemKind::TxBftSmart), [1_294.0, 8_746.0, 6_253.0], [59.4, 18.7, 23.3]),
];
const RW_U: Workload = Workload::RwUniform {
    reads: 2,
    writes: 2,
};
const RW_Z: Workload = Workload::RwZipf {
    reads: 2,
    writes: 2,
};

/// How a point runs.
#[derive(Clone, Debug)]
pub enum Run {
    /// Closed-loop Basil under a protocol configuration ([`run_basil`]).
    Basil(BasilConfig, Workload),
    /// A closed-loop baseline system on one shard ([`run_baseline`]).
    Baseline(SystemKind, Workload),
    /// A scenario through the scenario runner: Fig. 7's Byzantine clients.
    Spec(Box<ScenarioSpec>),
}

/// The number a point reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Committed tx/s across correct clients.
    Throughput,
    /// Committed tx/s per correct client (Fig. 7).
    PerCorrectClient,
}

impl Metric {
    /// The [`RunReport`] field this metric reads.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Throughput => "throughput_tps",
            Metric::PerCorrectClient => "throughput_per_correct_client",
        }
    }
}

/// The mechanism a point's run must show firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mechanism {
    /// Correct clients committed something.
    Commits,
    /// Some decisions took the fast path.
    FastPath,
    /// Decisions were made, and none took the fast path (the Basil-NoFP
    /// ablation held).
    SlowPathOnly,
    /// A fallback recovery started.
    Fallback,
}

impl Mechanism {
    /// Whether the run in `report` shows the mechanism.
    pub fn fired(self, report: &RunReport) -> bool {
        match self {
            Mechanism::Commits => report.committed > 0,
            Mechanism::FastPath => report.fast_path_fraction > 0.0,
            Mechanism::SlowPathOnly => {
                report.slow_path_decisions > 0 && report.fast_path_fraction == 0.0
            }
            Mechanism::Fallback => report.fallbacks > 0,
        }
    }
}

/// Whether a point's mechanism is expected to fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// It must fire.
    Fires,
    /// It is known not to fire, for the stated reason. A run where it fires
    /// is a surprise as well, so the marker cannot outlive its cause.
    Inert(&'static str),
}

/// One row of the experiment table.
#[derive(Clone, Debug)]
pub struct Point {
    /// The line the point belongs to (system, configuration, workload).
    pub series: String,
    /// The point's position on that line.
    pub x: String,
    /// Clients, warmup, window and seed. Once a peak search has run, the
    /// clients are the peak's.
    pub params: RunParams,
    /// Whether [`Point::run`] searches [`PEAK_CLIENTS`] for the peak instead
    /// of running at `params.clients`.
    pub at_peak: bool,
    /// How the point runs.
    pub run: Run,
    /// The number the point reports.
    pub metric: Metric,
    /// The paper's value of `metric`, where the paper reports one.
    pub paper: Option<f64>,
    /// The paper's mean latency in ms, where the paper reports one (Fig. 4b).
    pub paper_ms: Option<f64>,
    /// The mechanism whose firing the run must show.
    pub mechanism: Mechanism,
    /// Whether it is expected to fire.
    pub expect: Expect,
}

impl Point {
    fn new(series: impl Into<String>, x: impl Into<String>, params: RunParams, run: Run) -> Point {
        Point {
            series: series.into(),
            x: x.into(),
            params,
            at_peak: false,
            run,
            metric: Metric::Throughput,
            paper: None,
            paper_ms: None,
            mechanism: Mechanism::Commits,
            expect: Expect::Fires,
        }
    }

    fn paper(self, value: f64) -> Point {
        let paper = Some(value);
        Point { paper, ..self }
    }

    fn checks(self, mechanism: Mechanism, expect: Expect) -> Point {
        Point {
            mechanism,
            expect,
            ..self
        }
    }

    /// Runs the point's experiment.
    pub fn measure(&self) -> RunReport {
        match &self.run {
            Run::Basil(cfg, workload) => run_basil(cfg.clone(), *workload, &self.params),
            Run::Baseline(kind, workload) => run_baseline(*kind, 1, *workload, &self.params),
            Run::Spec(spec) => run_basil_spec(spec, RuntimeMode::Serial).report,
        }
    }

    /// Runs the point and checks its mechanism. A point `at_peak` is
    /// measured at every count of [`PEAK_CLIENTS`] and keeps the one that
    /// committed most.
    pub fn run(mut self) -> Row {
        let report = if self.at_peak {
            let rungs = PEAK_CLIENTS.map(|clients| {
                self.params.clients = clients;
                (clients, self.measure())
            });
            let (clients, report) = peak(rungs);
            self.params.clients = clients;
            report
        } else {
            self.measure()
        };
        let fired = self.mechanism.fired(&report);
        Row {
            point: self,
            report,
            fired,
        }
    }
}

/// The (clients, report) rung that committed most; the one with fewer
/// clients on a tie.
fn peak(rungs: impl IntoIterator<Item = (u32, RunReport)>) -> (u32, RunReport) {
    let most_committed = |(_, report): &(u32, RunReport)| Reverse(report.committed);
    rungs
        .into_iter()
        .min_by_key(most_committed)
        .expect("a rung")
}

/// A measured point.
#[derive(Clone, Debug)]
pub struct Row {
    /// The point that ran.
    pub point: Point,
    /// What it measured.
    pub report: RunReport,
    /// Whether its mechanism fired.
    pub fired: bool,
}

impl Row {
    /// The point's metric.
    pub fn value(&self) -> f64 {
        match self.point.metric {
            Metric::Throughput => self.report.throughput_tps,
            Metric::PerCorrectClient => self.report.throughput_per_correct_client,
        }
    }

    /// Whether `fired` differs from the table's expectation.
    pub fn surprise(&self) -> bool {
        self.fired != (self.point.expect == Expect::Fires)
    }
}

/// One figure: its points and its summary.
pub struct Figure {
    /// The name that selects it on the `figures` command line.
    pub id: &'static str,
    /// Table heading.
    pub title: &'static str,
    /// Lays out the figure's points.
    pub points: fn(Scale) -> Vec<Point>,
    /// Derives the figure's summary lines from its measured rows.
    pub summary: fn(&[Row]) -> Vec<String>,
}

/// Every figure, in the paper's order.
#[rustfmt::skip]
pub const FIGURES: [Figure; 7] = [
    Figure { id: "fig4", title: "Figure 4: Basil vs baselines on TPC-C, Smallbank, Retwis",
        points: fig4, summary: fig4_summary },
    Figure { id: "fig5a", title: "Figure 5a: impact of signatures",
        points: fig5a, summary: |rows| paired(rows, "Basil", "Basil-NoProofs", "NoProofs speedup") },
    Figure { id: "fig5b", title: "Figure 5b: read quorum size (read-only, 24 ops/txn)",
        points: fig5b, summary: |rows| changes(rows, "one read",
            "Paper: -20% at f+1 reads, a further -16% at 2f+1 reads.") },
    Figure { id: "fig5c", title: "Figure 5c: shard scaling (RW-U 3r3w, 24 clients per shard at full scale)",
        points: fig5c, summary: fig5c_summary },
    Figure { id: "fig6a", title: "Figure 6a: fast path ablation",
        points: fig6a, summary: |rows| paired(rows, "Basil-NoFP", "Basil", "fast-path gain") },
    Figure { id: "fig6b", title: "Figure 6b: throughput vs reply batch size",
        points: fig6b, summary: |_| vec!["Paper shape: RW-U rises ~4x and peaks at b=16; \
            RW-Z peaks around b=4 (~1.4x) then degrades.".into()] },
    Figure { id: "fig7", title: "Figure 7: throughput per correct client vs fraction of Byzantine clients",
        points: fig7, summary: |rows| changes(rows, "0%", "Paper shape: graceful, near-linear \
            degradation; <25% drop at 30% Byzantine for realistic strategies; forced \
            equivocation worst on the contended workload.") },
];

/// The figure named `id`.
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// A capacity figure's points: at full scale each searches for its peak,
/// and `--quick` keeps the fixed count.
fn at_peak(scale: Scale, points: Vec<Point>) -> Vec<Point> {
    let at_peak = scale == Scale::Full;
    points.into_iter().map(|p| Point { at_peak, ..p }).collect()
}

fn fig4(scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for (system, kind, tps, ms) in FIG4_PAPER {
        for (i, w) in [Workload::Tpcc, Workload::Smallbank, Workload::Retwis]
            .into_iter()
            .enumerate()
        {
            let run = match kind {
                Some(kind) => Run::Baseline(kind, w),
                // The paper's batch size on the contended TPC-C is 4.
                None if w == Workload::Tpcc => Run::Basil(basil_default(1).with_batch_size(4), w),
                None => Run::Basil(basil_default(1), w),
            };
            let point = Point::new(system, w.name(), scale.params(), run).paper(tps[i]);
            points.push(Point {
                paper_ms: Some(ms[i]),
                ..point
            });
        }
    }
    at_peak(scale, points)
}

fn fig5a(scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for (w, basil, noproofs) in [(RW_U, 38_241.0, 143_880.0), (RW_Z, 4_777.0, 21_978.0)] {
        let run = Run::Basil(basil_default(1), w);
        points.push(Point::new("Basil", w.name(), scale.params(), run).paper(basil));
        let run = Run::Basil(basil_default(1).without_proofs(), w);
        points.push(Point::new("Basil-NoProofs", w.name(), scale.params(), run).paper(noproofs));
    }
    at_peak(scale, points)
}

fn fig5b(scale: Scale) -> Vec<Point> {
    let quorums = [
        ("one read", ReadQuorum::One),
        ("f+1 reads", ReadQuorum::FPlusOne),
        ("2f+1 reads", ReadQuorum::TwoFPlusOne),
    ];
    let point = |(x, quorum)| {
        let mut cfg = basil_default(1);
        cfg.system.read_quorum = quorum;
        let run = Run::Basil(cfg, Workload::ReadOnly { ops: 24 });
        Point::new("Basil", x, scale.params(), run)
    };
    at_peak(scale, quorums.into_iter().map(point).collect())
}

fn fig5c(scale: Scale) -> Vec<Point> {
    let w = Workload::RwUniform {
        reads: 3,
        writes: 3,
    };
    let f1 = (1..=scale.pick(FIG5C_SHARDS)).map(|shards| (shards, 1));
    let mut points = Vec::new();
    for (shards, f) in f1.chain([(scale.pick(FIG5C_F2_SHARDS), 2)]) {
        // The offered load grows with the deployment: 24 clients per shard
        // at full scale. There is no peak search here; it would run every
        // shard count six times.
        let base = scale.params();
        let clients = base.clients * shards;
        let params = RunParams { clients, ..base };
        let mut cfg = basil_default(shards);
        cfg.system.shard = ShardConfig::new(f);
        for (series, cfg) in [("Basil", cfg.clone()), ("NoProofs", cfg.without_proofs())] {
            let (series, x) = (format!("{series} f={f}"), format!("shards={shards}"));
            points.push(Point::new(series, x, params.clone(), Run::Basil(cfg, w)));
        }
    }
    points
}

fn fig6a(scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for (w, nofp, fp) in [(RW_U, 32_027.0, 38_241.0), (RW_Z, 2_454.0, 4_777.0)] {
        let run = Run::Basil(basil_default(1).without_fast_path(), w);
        let point = Point::new("Basil-NoFP", w.name(), scale.params(), run).paper(nofp);
        points.push(point.checks(Mechanism::SlowPathOnly, Expect::Fires));
        let run = Run::Basil(basil_default(1), w);
        let point = Point::new("Basil", w.name(), scale.params(), run).paper(fp);
        points.push(point.checks(Mechanism::FastPath, Expect::Fires));
    }
    at_peak(scale, points)
}

fn fig6b(scale: Scale) -> Vec<Point> {
    let mut points = Vec::new();
    for w in [RW_U, RW_Z] {
        for batch in [1, 2, 4, 8, 16, 32, 64] {
            let run = Run::Basil(basil_default(1).with_batch_size(batch), w);
            let x = format!("b={batch}");
            points.push(Point::new(w.name(), x, scale.params(), run));
        }
    }
    at_peak(scale, points)
}

fn fig7(scale: Scale) -> Vec<Point> {
    let (p, keys) = (scale.params(), Workload::YCSB_KEYS);
    #[rustfmt::skip]
    let workloads = [
        (RW_U, WorkloadSpec::RwUniform { reads: 2, writes: 2, keys }),
        (RW_Z, WorkloadSpec::RwZipf { reads: 2, writes: 2, keys, theta: 0.9 }),
    ];
    let strategies = [
        ("stall-early", ClientStrategy::StallEarly),
        ("stall-late", ClientStrategy::StallLate),
        ("equiv-forced", ClientStrategy::EquivForced),
        ("equiv-real", ClientStrategy::EquivReal),
    ];
    let mut points = Vec::new();
    for ((w, workload), (name, strategy)) in workloads
        .into_iter()
        .flat_map(|w| strategies.map(|s| (w, s)))
    {
        for fraction in [0.0f64, 0.1, 0.2, 0.3, 0.4] {
            let x = format!("{:.0}%", fraction * 100.0);
            let spec = ScenarioSpec {
                name: format!("fig7 {name} {x}"),
                seed: p.seed,
                clients: p.clients,
                byz_clients: ((p.clients as f64) * fraction).round() as u32,
                byz_strategy: strategy,
                byz_fraction: 1.0,
                f: 1,
                batch_size: 16,
                relax_st2: strategy == ClientStrategy::EquivForced,
                warmup_ms: p.warmup.as_millis(),
                duration_ms: (p.warmup + p.window).as_millis(),
                // A figure sweep measures steady-state throughput; no quiet
                // tail, no fault budget to keep within.
                tail_ms: 0,
                budget: FaultBudget {
                    crash: 0,
                    deceit: 0,
                },
                workload,
                faults: vec![],
                expect: None,
            };
            spec.validate().expect("figure cell spec is well-formed");
            let series = format!("{} {name}", w.name());
            let point = Point {
                metric: Metric::PerCorrectClient,
                ..Point::new(series, x, p.clone(), Run::Spec(Box::new(spec)))
            };
            points.push(if fraction > 0.0 {
                let why = "ROADMAP item 1: client hooks read `cfg.client_strategy`";
                point.checks(Mechanism::Fallback, Expect::Inert(why))
            } else {
                point
            });
        }
    }
    points
}

/// The distinct values of `key` over `rows`, in row order.
fn distinct(rows: &[Row], key: fn(&Row) -> &String) -> Vec<&String> {
    let mut seen = Vec::new();
    for row in rows {
        if !seen.contains(&key(row)) {
            seen.push(key(row));
        }
    }
    seen
}

/// The row at (`series`, `x`), which the figure has by construction.
fn find<'a>(rows: &'a [Row], series: &str, x: &str) -> &'a Row {
    let row = rows
        .iter()
        .find(|r| r.point.series == series && r.point.x == x);
    row.unwrap_or_else(|| panic!("no row {series} at {x}"))
}

fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(1.0)
}

fn fig4_summary(rows: &[Row]) -> Vec<String> {
    let lines = distinct(rows, |r| &r.point.x).into_iter().map(|x| {
        let tps = |series| find(rows, series, x).value();
        let (basil, tapir) = (tps("Basil"), tps("TAPIR"));
        format!(
            "{x:10} Basil/TxHotstuff = {:.1}x (paper 3.7-5.2x), Basil/TxBFT-SMaRt = {:.1}x (paper 2.7-3.9x), TAPIR/Basil = {:.1}x (paper 1.8-4.1x)",
            ratio(basil, tps("TxHotstuff")),
            ratio(basil, tps("TxBFT-SMaRt")),
            ratio(tapir, basil),
        )
    });
    lines.collect()
}

/// `better` over `base` at every x, measured and as the paper reports it.
fn paired(rows: &[Row], base: &str, better: &str, what: &str) -> Vec<String> {
    let lines = distinct(rows, |r| &r.point.x).into_iter().map(|x| {
        let (b, v) = (find(rows, base, x), find(rows, better, x));
        let paper = v.point.paper.zip(b.point.paper).map(|(v, b)| v / b);
        let paper = paper.map_or("-".into(), |p| format!("{p:.2}x"));
        format!(
            "{x}: {what} {:.2}x (paper {paper})",
            ratio(v.value(), b.value())
        )
    });
    lines.collect()
}

/// Each series' change against its `base` column, then the paper's shape.
fn changes(rows: &[Row], base: &str, paper: &str) -> Vec<String> {
    let mut lines: Vec<String> = distinct(rows, |r| &r.point.series)
        .into_iter()
        .map(|series| {
            let from = find(rows, series, base).value().max(1e-9);
            let cells: Vec<String> = rows
                .iter()
                .filter(|r| &r.point.series == series && r.point.x != base)
                .map(|r| format!("{} {:+.0}%", r.point.x, (r.value() / from - 1.0) * 100.0))
                .collect();
            format!("{series} vs {base}: {}", cells.join(", "))
        })
        .collect();
    lines.push(paper.into());
    lines
}

fn fig5c_summary(rows: &[Row]) -> Vec<String> {
    let mut lines = Vec::new();
    for (to, paper) in [
        (3, "paper: Basil 1.3x, NoProofs 1.9x"),
        (8, "beyond the paper"),
    ] {
        let x = format!("shards={to}");
        if rows.iter().any(|r| r.point.x == x) {
            let up = |series| {
                ratio(
                    find(rows, series, &x).value(),
                    find(rows, series, "shards=1").value(),
                )
            };
            let (basil, noproofs) = (up("Basil f=1"), up("NoProofs f=1"));
            lines.push(format!(
                "Scale-up 1 -> {to} shards: Basil {basil:.1}x, NoProofs {noproofs:.1}x ({paper})"
            ));
        }
    }
    for f2 in rows.iter().filter(|r| r.point.series.ends_with("f=2")) {
        let f1_series = f2.point.series.replace("f=2", "f=1");
        let (f1, f2, x) = (
            find(rows, &f1_series, &f2.point.x).value(),
            f2.value(),
            &f2.point.x,
        );
        let r = ratio(f2, f1);
        lines.push(format!(
            "{f1_series} -> f=2 at {x}: {f1:.0} -> {f2:.0} tx/s ({r:.2}x)"
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(id: &str, scale: Scale) -> Vec<Point> {
        (figure(id).expect("figure in the table").points)(scale)
    }

    #[test]
    fn figure_ids_and_points_are_unique_and_no_figure_is_empty() {
        for (i, fig) in FIGURES.iter().enumerate() {
            assert!(
                FIGURES[i + 1..].iter().all(|g| g.id != fig.id),
                "{}",
                fig.id
            );
            for scale in [Scale::Quick, Scale::Full] {
                let points = (fig.points)(scale);
                assert!(!points.is_empty(), "{} at {scale:?}", fig.id);
                for (j, p) in points.iter().enumerate() {
                    let twin = points[j + 1..]
                        .iter()
                        .any(|q| (&q.series, &q.x) == (&p.series, &p.x));
                    assert!(!twin, "{}: two points at {} {}", fig.id, p.series, p.x);
                }
            }
        }
    }

    #[test]
    fn the_peak_is_the_rung_that_commits_most_and_the_fewer_clients_on_a_tie() {
        let report = |committed| {
            let end = basil::report::Snapshot {
                committed,
                ..Default::default()
            };
            RunReport::between(&Default::default(), &end, basil::Duration::from_secs(1))
        };
        let pick = |committed: [u64; 6]| {
            let rungs = PEAK_CLIENTS.into_iter().zip(committed.map(report));
            peak(rungs).0
        };
        // Fig. 6b RW-Z at b=64 in tx/s at seed 42: a dip at 96, then a rise
        // to the last rung. A search that stops at the first small gain stops
        // at 48.
        assert_eq!(pick([5_168, 6_975, 6_912, 8_548, 10_065, 10_618]), 768);
        // TPC-C's shape: a rise, then a collapse under contention.
        assert_eq!(pick([1_318, 1_658, 1_182, 600, 95, 40]), 48);
        assert_eq!(pick([900, 1_000, 1_000, 1_000, 700, 500]), 48);
    }

    #[test]
    fn only_the_full_scale_capacity_points_search_for_their_peak() {
        for fig in &FIGURES {
            let quick = (fig.points)(Scale::Quick);
            assert!(quick.iter().all(|p| !p.at_peak), "{} at quick", fig.id);
            let search = !["fig5c", "fig7"].contains(&fig.id);
            for p in (fig.points)(Scale::Full) {
                assert_eq!(p.at_peak, search, "{} {} {}", fig.id, p.series, p.x);
            }
        }
    }

    #[test]
    fn slow_path_only_needs_slow_path_decisions() {
        let report = |fast_path, slow_path| {
            let end = basil::report::Snapshot {
                fast_path,
                slow_path,
                ..Default::default()
            };
            RunReport::between(&Default::default(), &end, basil::Duration::from_millis(1))
        };
        let fired = |fast, slow| Mechanism::SlowPathOnly.fired(&report(fast, slow));
        assert!(!fired(0, 0), "nothing was decided");
        assert!(fired(0, 3));
        assert!(!fired(1, 3));
    }

    #[test]
    fn figures_4_5a_and_6a_carry_the_paper_value_of_every_point() {
        for id in ["fig4", "fig5a", "fig6a"] {
            for scale in [Scale::Quick, Scale::Full] {
                assert!(points(id, scale).iter().all(|p| p.paper.is_some()), "{id}");
            }
        }
    }

    #[test]
    fn the_quick_grid_has_every_reproduced_point_once() {
        // fig4: 4 systems x 3 apps; fig5a, fig6a: 2 configs x 2 workloads;
        // fig5b: 3 quorums; fig5c: shards 1..3 at f=1 and 1 at f=2, with and
        // without proofs; fig6b: 2 workloads x 7 batch sizes; fig7: 2
        // workloads x 4 strategies x 5 fractions.
        let counts: Vec<usize> = FIGURES
            .iter()
            .map(|f| (f.points)(Scale::Quick).len())
            .collect();
        assert_eq!(counts, [12, 4, 3, 8, 4, 14, 40]);
        let quick = RunParams::quick();
        let fig5c: Vec<_> = points("fig5c", Scale::Quick)
            .into_iter()
            .map(|p| (p.series, p.x, p.params.clients))
            .collect();
        for (shards, f) in [(1, 1), (2, 1), (3, 1), (1, 2)] {
            for series in ["Basil", "NoProofs"] {
                let (s, x) = (format!("{series} f={f}"), format!("shards={shards}"));
                let want = (s, x, quick.clients * shards);
                assert!(fig5c.contains(&want), "fig5c lacks {want:?}");
            }
        }
        let byz: Vec<u32> = points("fig7", Scale::Quick)[..5]
            .iter()
            .filter_map(|p| match &p.run {
                Run::Spec(spec) => Some(spec.byz_clients),
                _ => None,
            })
            .collect();
        assert_eq!(byz, [0, 1, 2, 2, 3]);
        for p in FIGURES.iter().flat_map(|f| (f.points)(Scale::Quick)) {
            assert_eq!((p.params.seed, p.params.window), (quick.seed, quick.window));
        }
    }

    #[test]
    fn quick_fig6a_rwz_rows_fire_as_expected() {
        let rows: Vec<Row> = points("fig6a", Scale::Quick)
            .into_iter()
            .filter(|p| p.x == RW_Z.name())
            .map(Point::run)
            .collect();
        let fast: Vec<(&str, bool, bool)> = rows
            .iter()
            .map(|r| {
                (
                    r.point.series.as_str(),
                    r.fired,
                    r.report.fast_path_fraction > 0.0,
                )
            })
            .collect();
        assert_eq!(fast, [("Basil-NoFP", true, false), ("Basil", true, true)]);
        assert!(rows.iter().all(|r| !r.surprise()));
    }
}
