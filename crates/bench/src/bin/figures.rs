//! Runs the paper's figure experiments from the one table in
//! `basil_bench::figures`: one table per figure with the measured value
//! next to the paper's, the figure's summary lines, and a `fired` column
//! saying whether each point's mechanism ran. At full scale the `clients`
//! column of a capacity point is its peak's client count.
//!
//! ```sh
//! figures                      # every figure at full scale
//! figures --quick fig6a fig5c  # a selection at CI scale
//! ```
//!
//! When `BASIL_BENCH_JSON` names a directory, every row is also written to
//! `FIGURES.json` there. Exits 1 when a row's `fired` differs from the
//! table's expectation, and 2 on a bad argument or an unwritable directory.

use basil_bench::figures::{figure, Expect, Figure, Row, Scale, FIGURES};
use std::path::Path;

fn main() {
    let mut scale = Scale::Full;
    let mut picked = Vec::new();
    for arg in std::env::args().skip(1) {
        match (arg.as_str(), figure(&arg)) {
            ("--quick", _) => scale = Scale::Quick,
            (_, Some(fig)) => picked.push(fig.id),
            _ => {
                let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                let usage = format!("usage: figures [--quick] [{}]...", ids.join("|"));
                fail(&format!("unknown argument {arg:?}\n{usage}"));
            }
        }
    }
    let (mut json, mut surprises) = (Vec::new(), 0);
    for fig in FIGURES
        .iter()
        .filter(|f| picked.is_empty() || picked.contains(&f.id))
    {
        let rows: Vec<Row> = (fig.points)(scale).into_iter().map(|p| p.run()).collect();
        print_figure(fig, &rows);
        json.extend(rows.iter().map(|row| row_json(fig.id, row)));
        surprises += rows.iter().filter(|r| r.surprise()).count();
    }
    if let Ok(dir) = std::env::var("BASIL_BENCH_JSON") {
        write_json(Path::new(&dir), scale, &json);
    }
    if surprises > 0 {
        eprintln!("figures: {surprises} row(s) marked UNEXPECTED differ from the table");
        std::process::exit(1);
    }
}

fn fail(problem: &str) -> ! {
    eprintln!("figures: {problem}");
    std::process::exit(2);
}

fn print_figure(fig: &Figure, rows: &[Row]) {
    println!("\n=== {} ({}) ===", fig.title, rows[0].point.metric.name());
    println!(
        "{:>22} {:>10} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8}  fired",
        "series", "x", "clients", "value", "mean ms", "p50 ms", "p99 ms", "paper", "paper ms"
    );
    let opt = |v: Option<f64>, digits: usize| v.map_or("-".into(), |v| format!("{v:.digits$}"));
    for r in rows {
        let (p, m) = (&r.point, &r.report);
        let note = match (r.surprise(), p.expect) {
            (true, _) => " UNEXPECTED",
            (false, Expect::Inert(_)) => " (expected)",
            (false, Expect::Fires) => "",
        };
        println!(
            "{:>22} {:>10} {:>7} {:>9.0} {:>7.2} {:>7.2} {:>7.2} {:>7} {:>8}  {:?}: {}{note}",
            p.series,
            p.x,
            p.params.clients,
            r.value(),
            m.mean_latency_ms,
            m.p50_latency_ms,
            m.p99_latency_ms,
            opt(p.paper, 0),
            opt(p.paper_ms, 1),
            p.mechanism,
            if r.fired { "yes" } else { "no" },
        );
    }
    let mut reasons = Vec::new();
    for r in rows {
        match r.point.expect {
            Expect::Inert(why) if !reasons.contains(&why) => reasons.push(why),
            _ => {}
        }
    }
    for why in reasons {
        println!("  expected not to fire: {why}");
    }
    for line in (fig.summary)(rows) {
        println!("  {line}");
    }
}

/// One row as a JSON object (the workspace carries no serde; every string
/// is a table literal, so `{:?}` quoting is valid JSON).
fn row_json(figure: &str, row: &Row) -> String {
    let (p, r) = (&row.point, &row.report);
    let opt = |v: Option<f64>| v.map_or("null".into(), |v| v.to_string());
    format!(
        "{{\"figure\": {figure:?}, \"series\": {:?}, \"x\": {:?}, \"clients\": {}, \
         \"metric\": {:?}, \"value\": {}, \"paper\": {}, \"paper_ms\": {}, \
         \"throughput_tps\": {}, \"mean_latency_ms\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \
         \"offered_tps\": {}, \"fast_path_fraction\": {}, \
         \"fallbacks\": {}, \"committed\": {}, \"mechanism\": \"{:?}\", \"fired\": {}, \
         \"expect_fired\": {}}}",
        p.series,
        p.x,
        p.params.clients,
        p.metric.name(),
        row.value(),
        opt(p.paper),
        opt(p.paper_ms),
        r.throughput_tps,
        r.mean_latency_ms,
        r.p50_latency_ms,
        r.p99_latency_ms,
        r.offered_tps,
        r.fast_path_fraction,
        r.fallbacks,
        r.committed,
        p.mechanism,
        row.fired,
        p.expect == Expect::Fires,
    )
}

fn write_json(dir: &Path, scale: Scale, rows: &[String]) {
    let scale = format!("{scale:?}").to_lowercase();
    let rows = rows.join(",\n    ");
    let body = format!("{{\n  \"scale\": \"{scale}\",\n  \"rows\": [\n    {rows}\n  ]\n}}\n");
    let path = dir.join("FIGURES.json");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        fail(&format!("cannot write {}: {e}", path.display()));
    }
}
