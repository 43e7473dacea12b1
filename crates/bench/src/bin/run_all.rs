//! Regenerates every reproduced table and figure in-process, or one with
//! `--figure <name>`, writing text reports to `target/experiments/`.
//!
//! All figures share one [`Campaign`]: a single job queue across
//! `ITPX_THREADS` host threads and one simulation cache, so baselines
//! repeated between figures (the LRU columns of fig08/fig09/fig11/..., the
//! calibration table) simulate exactly once per campaign — and zero times
//! on a warm cache.
//!
//! ```sh
//! ITPX_WORKLOADS=16 ITPX_INSTRUCTIONS=600000 \
//!     cargo run -p itpx-bench --release --bin run_all
//! cargo run -p itpx-bench --release --bin run_all -- --figure fig08
//! ```

use itpx_bench::{figures, Campaign};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: &[figures::Figure] = match args.as_slice() {
        [] => figures::ALL,
        [flag, name] if flag == "--figure" => match figures::by_name(name) {
            Some(fig) => std::slice::from_ref(fig),
            None => {
                let known: Vec<&str> = figures::ALL.iter().map(|f| f.name).collect();
                eprintln!("unknown figure {name:?}; known: {}", known.join(", "));
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: run_all [--figure <name>]");
            std::process::exit(2);
        }
    };
    let campaign = Campaign::from_env();
    let mut failures = Vec::new();
    for fig in selected {
        println!("==== {} ====", fig.name);
        if (fig.build)(&campaign).finish().is_none() {
            failures.push(fig.name);
        }
    }
    let cache = campaign.cache();
    println!(
        "cache: {} simulations served, {} executed",
        cache.hits(),
        cache.misses()
    );
    if failures.is_empty() {
        println!("all experiments completed; reports in target/experiments/");
    } else {
        eprintln!("failed to write reports: {failures:?}");
        std::process::exit(1);
    }
}
