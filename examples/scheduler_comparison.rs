//! The "apples-to-apples" comparison the benchmark standard enables: the canonical
//! workload suite crossed with the canonical scheduler line-up, printed as the
//! WARMstones-style scenario table (experiment E8 at a reduced scale), followed by
//! the outage experiment (E5).
//!
//! Run with: `cargo run --release --example scheduler_comparison`

use psbench::core::{
    canonical_schedulers, canonical_suite, results_table, run_all_parallel, Format, Scale, Scenario,
};

fn main() {
    // Every canonical workload crossed with every canonical scheduler.
    let mut scenarios = Vec::new();
    for def in canonical_suite(600) {
        for sched in canonical_schedulers() {
            scenarios.push(Scenario::new(
                format!("{}/{}", def.kind.name(), sched),
                def,
                sched,
            ));
        }
    }
    println!(
        "running {} scenarios ({} workloads x {} schedulers) in parallel...",
        scenarios.len(),
        canonical_suite(600).len(),
        canonical_schedulers().len()
    );
    let results = run_all_parallel(&scenarios, 8);
    let table = results_table("Canonical suite x canonical schedulers", &results);
    println!("{}", table.render(Format::Markdown));

    // The outage experiment: what ignoring outage information costs.
    let e5 = psbench::core::run_experiment("E5", Scale::quick()).unwrap();
    println!("{}", e5.render(Format::Markdown));
}
