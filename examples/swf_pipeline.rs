//! The SWF standardization pipeline: heterogeneous raw accounting logs in, one
//! clean anonymized standard format out, plus the companion outage log.
//!
//! Run with: `cargo run --release --example swf_pipeline`

use psbench::swf::convert::{ConvertOptions, Dialect, RawStream};
use psbench::swf::{validate, write_string, JobSource};
use psbench::workload::{generate_raw_log, OutageGenerator, RawLogProfile};

fn main() {
    println!("== converting four raw accounting-log dialects to SWF v2 ==");
    for &dialect in Dialect::all() {
        let profile = RawLogProfile::canonical(dialect);
        let raw = generate_raw_log(&profile, 1_000, 7);
        let mut stream = RawStream::new(
            dialect.name(),
            raw.as_bytes(),
            dialect,
            profile.machine_size,
            &ConvertOptions::default(),
        );
        let log = (&mut stream).collect_log().expect("conversion succeeds");
        let report = validate(&log);
        let cleaning = stream.report();
        println!(
            "{:>14}: {} raw lines -> {} SWF jobs, {} users, {} executables, {} violations, cleaned: dropped={} clamped_procs={}",
            dialect.name(),
            raw.lines().count(),
            log.len(),
            stream.key().users.len(),
            stream.key().executables.len(),
            report.violations.len(),
            cleaning.dropped,
            cleaning.clamped_procs,
        );
        // The converted log round-trips through the textual format.
        let text = write_string(&log);
        let back = psbench::swf::parse(&text).unwrap();
        assert_eq!(back.jobs, log.jobs);
    }

    println!("\n== the standard outage format (Section 2.2) ==");
    let outages = OutageGenerator::for_machine(128).generate(30 * 86_400, 99);
    println!(
        "{} outages over 30 days, {} node-seconds lost, {} announced in advance",
        outages.len(),
        outages.lost_node_seconds(30 * 86_400),
        outages
            .outages
            .iter()
            .filter(|o| o.was_announced_in_advance())
            .count()
    );
    let text = outages.write_string();
    println!("first outage line: {}", text.lines().nth(1).unwrap_or(""));
}
