//! Pins every figure in `figures::ALL`: an FNV-1a digest of its report
//! text and the number of simulations it executes, at one tiny scale
//! through one uncached campaign.
//!
//! A refactor of the figure layer must leave this table unchanged: the
//! same text byte for byte, and the same simulations (a figure that
//! submitted different requests or split its batches differently would
//! execute a different count).

use itpx_bench::{figures, Campaign, RunScale, SimCache};
use itpx_types::Fnv1a;

const SCALE: RunScale = RunScale {
    workloads: 2,
    smt_pairs: 1,
    instructions: 2_000,
    warmup: 500,
    host_threads: 2,
};

/// `(figure, FNV-1a of the report text, simulations executed)`, in
/// `figures::ALL` order.
const PINNED: &[(&str, u64, u64)] = &[
    ("calibrate", 0xac26125f99c2c752, 4),
    ("fig01", 0xe39847d94c3e23b2, 20),
    ("fig02", 0x3affaea30ed69a9c, 4),
    ("fig03", 0x2a7f92206266a511, 2),
    ("fig04", 0x44805f1520ec993c, 2),
    ("fig08", 0x316a3c8ba7efff9f, 30),
    ("fig09", 0xbb79960f680b33cb, 30),
    ("fig11", 0x3d6fc8ec55398735, 27),
    ("fig12", 0x3ca7d5ca61b9db9c, 36),
    ("fig13", 0x315b83adeb1fbdc2, 60),
    ("fig14", 0x814a2697ed3240ba, 15),
    ("ablations", 0x37ae4485ba9d2b9d, 58),
    ("ext_emissary", 0x50f6743d3fc17630, 6),
    ("ext_tship", 0x5d06432160cc2903, 14),
    ("depth_sweep", 0xceaecbdc5ae559ad, 36),
    ("consolidation", 0xbae22bf2d855400a, 16),
];

/// `(figure, FNV-1a of one attached CSV)`, in attachment order: the
/// bytes `run_all --figure fig08` writes to `fig08a.csv` and `fig08b.csv`
/// at [`SCALE`] with the cache off.
const PINNED_CSVS: &[(&str, u64)] = &[("fig08", 0x23b64d345060ae7d), ("fig08", 0xbbb6a2aa1cdc5a1e)];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

#[test]
fn every_figure_matches_its_pinned_digest() {
    assert!(
        std::env::var_os("ITPX_TENANTS").is_none(),
        "ITPX_TENANTS is set: it caps the consolidation sweep, so the \
         consolidation digest cannot match; unset it to run this test"
    );
    let campaign = Campaign::new(SCALE, SimCache::disabled());
    let (mut actual, mut csvs) = (Vec::new(), Vec::new());
    for fig in figures::ALL {
        let before = campaign.executed();
        let report = (fig.build)(&campaign);
        actual.push((
            fig.name,
            fnv1a(report.text().as_bytes()),
            campaign.executed() - before,
        ));
        for csv in report.csvs() {
            csvs.push((fig.name, fnv1a(csv.to_csv().as_bytes())));
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, digest, executed)| format!("    ({name:?}, {digest:#018x}, {executed}),\n"))
        .collect();
    assert_eq!(
        actual, PINNED,
        "figure digests changed; the measured table is:\n{table}"
    );
    assert_eq!(csvs, PINNED_CSVS, "attached CSV digests changed");
}
