//! Quick points of the paper's figure experiments, timed through
//! `cargo bench`. Each benchmark runs one simulated deployment of the figure
//! table (`basil_bench::figures`) for its short quick-scale window; the
//! `figures` binary runs the whole table with the paper-vs-measured tables.

use basil_bench::figures::{figure, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration as StdDuration;

/// A timed point: (label, series, x).
type Case = (&'static str, &'static str, &'static str);

/// (criterion group, figure, its timed points).
const CASES: [(&str, &str, &[Case]); 3] = [
    (
        "fig4_smallbank_point",
        "fig4",
        &[
            ("basil", "Basil", "Smallbank"),
            ("tapir", "TAPIR", "Smallbank"),
            ("txhotstuff", "TxHotstuff", "Smallbank"),
            ("txbftsmart", "TxBFT-SMaRt", "Smallbank"),
        ],
    ),
    (
        "fig5a_signature_ablation",
        "fig5a",
        &[
            ("basil", "Basil", "RW-U 2r2w"),
            ("basil_noproofs", "Basil-NoProofs", "RW-U 2r2w"),
        ],
    ),
    (
        "fig6a_fastpath_ablation",
        "fig6a",
        &[
            ("basil", "Basil", "RW-Z 2r2w"),
            ("basil_nofp", "Basil-NoFP", "RW-Z 2r2w"),
        ],
    ),
];

fn bench_figure_points(c: &mut Criterion) {
    for (group, id, cases) in CASES {
        let points = (figure(id).expect("figure in the table").points)(Scale::Quick);
        let mut group = c.benchmark_group(group);
        group
            .sample_size(10)
            .measurement_time(StdDuration::from_secs(20));
        for (label, series, x) in cases {
            let point = points
                .iter()
                .find(|p| p.series == *series && p.x == *x)
                .expect("point in the figure table");
            group.bench_function(label, |b| b.iter(|| point.measure()));
        }
        group.finish();
    }
}

criterion_group!(benches, bench_figure_points);
criterion_main!(benches);
