//! Head-to-head preset comparison with bootstrap confidence intervals and
//! terminal violin plots.
//!
//! ```sh
//! cargo run -p itpx-bench --release --bin compare -- iTP+xPTP LRU
//! cargo run -p itpx-bench --release --bin compare -- TDRRIP PTP
//! ```

use itpx_bench::plot::violin_panel;
use itpx_bench::{Campaign, Comparison, Distribution, Report, SimRequest};
use itpx_core::Preset;
use itpx_cpu::SystemConfig;
use itpx_trace::qualcomm_like_suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cand, base) = match (args.first(), args.get(1)) {
        (Some(a), Some(b)) => match (Preset::from_name(a), Preset::from_name(b)) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                eprintln!(
                    "unknown preset; valid names: {:?}",
                    Preset::ALL.map(Preset::name)
                );
                std::process::exit(1);
            }
        },
        _ => (Preset::ItpXptp, Preset::Lru),
    };

    let campaign = Campaign::from_env();
    let scale = campaign.scale();
    let config = SystemConfig::asplos25();
    let suite: Vec<_> = qualcomm_like_suite(scale.workloads)
        .into_iter()
        .map(|w| scale.apply(w))
        .collect();
    let requests = [base, cand]
        .iter()
        .flat_map(|&p| suite.iter().map(move |w| SimRequest::single(&config, p, w)))
        .collect();
    let ipc: Vec<f64> = campaign
        .run_batch(requests)
        .iter()
        .map(|o| o.ipc())
        .collect();
    let (base_ipc, cand_ipc) = ipc.split_at(suite.len());
    let cmp = Comparison::summarize(cand.name(), base.name(), cand_ipc, base_ipc);

    let mut report = Report::new(format!("Compare {} vs {}", cand.name(), base.name()));
    report.line(cmp.to_string());
    report.line("");
    report.line("per-workload IPC improvement distribution (%):");
    report.line(violin_panel(
        &[(cand.name(), Distribution::of(&cmp.improvements_pct))],
        60,
    ));
    report.finish();
}
