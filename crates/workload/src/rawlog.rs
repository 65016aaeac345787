//! Synthetic raw accounting logs in the dialects of the machines the paper cites.
//!
//! We do not ship the Parallel Workloads Archive traces; instead this module emits
//! *raw-format* text logs (NASA iPSC/860-, SDSC Paragon-, CTC SP2-, and LANL
//! CM-5-style) from an underlying synthetic workload, so the SWF conversion pipeline
//! of [`mod@psbench_swf::convert`] can be exercised and benchmarked end to end
//! (experiment E6). The emitted dialects match what the converters expect.

use crate::lublin99::Lublin99;
use crate::model::WorkloadModel;
use psbench_swf::convert::Dialect;
use psbench_swf::SwfLog;
use serde::{Deserialize, Serialize};

/// Machine profile used when emitting a raw log: the machine size and a base epoch
/// so timestamps look like real Unix times.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RawLogProfile {
    /// The dialect to emit.
    pub dialect: Dialect,
    /// Machine size in processors.
    pub machine_size: u32,
    /// Unix epoch (seconds) of the first job submission.
    pub base_epoch: i64,
}

impl RawLogProfile {
    /// The historical machine size of the system each dialect mimics.
    pub fn canonical(dialect: Dialect) -> Self {
        let (machine_size, base_epoch) = match dialect {
            Dialect::NasaIpsc => (128, 749_400_000), // iPSC/860, late 1993
            Dialect::SdscParagon => (416, 757_400_000), // Paragon, 1994
            Dialect::CtcSp2 => (430, 835_000_000),   // SP2, 1996
            Dialect::LanlCm5 => (1024, 749_000_000), // CM-5, 1994
        };
        RawLogProfile {
            dialect,
            machine_size,
            base_epoch,
        }
    }
}

fn user_name(dialect: Dialect, id: u32) -> String {
    match dialect {
        Dialect::NasaIpsc => format!("user{id:03}"),
        Dialect::SdscParagon => format!("u{id}"),
        Dialect::CtcSp2 => format!("ctc{id:04}"),
        Dialect::LanlCm5 => format!("u_{id}"),
    }
}

fn exe_name(id: u32) -> String {
    const NAMES: [&str; 8] = [
        "cfd_solver",
        "qcd_lattice",
        "climate",
        "nbody",
        "render",
        "fft_bench",
        "md_sim",
        "ocean",
    ];
    format!("{}_{id}", NAMES[(id as usize - 1) % NAMES.len()])
}

/// Emit a raw accounting-log text for the given profile from an SWF workload.
///
/// Only summary records with known wait time, runtime and processor count are
/// emitted (raw logs record what actually ran).
pub fn emit_raw(log: &SwfLog, profile: &RawLogProfile) -> String {
    let mut out = String::new();
    match profile.dialect {
        Dialect::NasaIpsc => out.push_str("# jobid user exe nodes submit start runtime status\n"),
        Dialect::SdscParagon => out.push_str(
            "# jobid|user|group|queue|partition|submit|start|end|nodes|cpu_secs|mem_kb|status\n",
        ),
        Dialect::CtcSp2 => out.push_str("# LoadLeveler-style accounting records\n"),
        Dialect::LanlCm5 => out.push_str(
            "# jobid,user,group,exe,partition_size,submit,start,end,avg_cpu,mem_kb,outcome\n",
        ),
    }
    let mut emitted = 0u64;
    for j in log.summaries() {
        let (wait, run, procs) = match (j.wait_time, j.run_time, j.procs()) {
            (Some(w), Some(r), Some(p)) => (w, r, p),
            _ => continue,
        };
        emitted += 1;
        let submit = profile.base_epoch + j.submit_time;
        let start = submit + wait;
        let end = start + run;
        let user = j.user_id.unwrap_or(1);
        let group = j.group_id.unwrap_or(1);
        let exe = j.executable_id.unwrap_or(1);
        let ok = j.status.is_successful() || j.status == psbench_swf::CompletionStatus::Unknown;
        let cpu = j.avg_cpu_time.unwrap_or((run as f64 * 0.92) as i64);
        let mem = j.used_memory_kb.unwrap_or(procs as i64 * 2048);
        match profile.dialect {
            Dialect::NasaIpsc => {
                out.push_str(&format!(
                    "{} {} {} {} {} {} {} {}\n",
                    emitted,
                    user_name(profile.dialect, user),
                    exe_name(exe),
                    procs,
                    submit,
                    start,
                    run,
                    if ok { "ok" } else { "failed" }
                ));
            }
            Dialect::SdscParagon => {
                let queue = if j.queue_id == Some(0) {
                    "interactive"
                } else {
                    "batch"
                };
                out.push_str(&format!(
                    "{}|{}|g{}|{}|main|{}|{}|{}|{}|{}|{}|{}\n",
                    emitted,
                    user_name(profile.dialect, user),
                    group,
                    queue,
                    submit,
                    start,
                    end,
                    procs,
                    cpu,
                    mem,
                    if ok { "C" } else { "F" }
                ));
            }
            Dialect::CtcSp2 => {
                let class = if j.queue_id == Some(0) {
                    "interactive"
                } else {
                    "batch"
                };
                let req = j.requested_time.unwrap_or(run * 2);
                out.push_str(&format!(
                    "job={} user={} group=g{} class={} submit={} start={} end={} procs={} req_procs={} wall_req={} mem_used={} cpu={} exe={} completion={}\n",
                    emitted,
                    user_name(profile.dialect, user),
                    group,
                    class,
                    submit,
                    start,
                    end,
                    procs,
                    j.requested_procs.unwrap_or(procs),
                    req,
                    mem,
                    cpu,
                    exe_name(exe),
                    if ok { "ok" } else { "removed" }
                ));
            }
            Dialect::LanlCm5 => {
                // The CM-5 only ran jobs in power-of-two partitions of at least 32 nodes.
                let psize = procs.next_power_of_two().max(32).min(profile.machine_size);
                out.push_str(&format!(
                    "{},{},grp{},{},{},{},{},{},{},{},{}\n",
                    emitted,
                    user_name(profile.dialect, user),
                    group,
                    exe_name(exe),
                    psize,
                    submit,
                    start,
                    end,
                    cpu,
                    mem,
                    if ok { "success" } else { "failure" }
                ));
            }
        }
    }
    out
}

/// Generate a synthetic raw log directly: an underlying Lublin'99 workload sized to
/// the profile's machine, emitted in the profile's dialect. This is the input
/// fixture of experiment E6.
pub fn generate_raw_log(profile: &RawLogProfile, n_jobs: usize, seed: u64) -> String {
    let model = Lublin99::with_machine_size(profile.machine_size);
    // Simulate plausible wait times so the raw log has realistic start/end stamps:
    // the model leaves wait unknown, so fill a small synthetic queueing delay.
    let mut log = model.generate(n_jobs, seed);
    let mut rng = crate::model::model_rng(seed ^ 0x9e37_79b9);
    for j in &mut log.jobs {
        if j.wait_time.is_none() {
            let w = crate::dist::exponential(&mut rng, 300.0).round() as i64;
            j.wait_time = Some(w);
        }
    }
    emit_raw(&log, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psbench_swf::convert::{ConvertOptions, RawStream};
    use psbench_swf::{validate, JobSource};

    #[test]
    fn canonical_profiles_cover_all_dialects() {
        for &d in Dialect::all() {
            let p = RawLogProfile::canonical(d);
            assert!(p.machine_size >= 128);
            assert!(p.base_epoch > 0);
            assert_eq!(p.dialect, d);
        }
    }

    #[test]
    fn every_dialect_round_trips_through_the_converter() {
        for &d in Dialect::all() {
            let profile = RawLogProfile::canonical(d);
            let raw = generate_raw_log(&profile, 300, 7);
            assert!(!raw.is_empty());
            let mut stream = RawStream::new(
                d.name(),
                raw.as_bytes(),
                d,
                profile.machine_size,
                &ConvertOptions::default(),
            );
            let log = (&mut stream)
                .collect_log()
                .unwrap_or_else(|e| panic!("dialect {d:?}: {e}"));
            assert_eq!(stream.report().skipped, 0, "dialect {d:?} skipped lines");
            assert_eq!(log.len(), 300, "dialect {d:?}");
            assert!(validate(&log).is_clean(), "dialect {d:?}");
            // identities were anonymized into dense ranges
            assert!(stream.key().users.len() > 1);
        }
    }

    #[test]
    fn emitted_timestamps_use_the_base_epoch() {
        let profile = RawLogProfile::canonical(Dialect::NasaIpsc);
        let raw = generate_raw_log(&profile, 50, 3);
        let first_data = raw.lines().find(|l| !l.starts_with('#')).unwrap();
        let submit: i64 = first_data
            .split_whitespace()
            .nth(4)
            .unwrap()
            .parse()
            .unwrap();
        assert!(submit >= profile.base_epoch);
    }

    #[test]
    fn cm5_partitions_are_powers_of_two() {
        let profile = RawLogProfile::canonical(Dialect::LanlCm5);
        let raw = generate_raw_log(&profile, 200, 5);
        for line in raw.lines().filter(|l| !l.starts_with('#')) {
            let psize: u32 = line.split(',').nth(4).unwrap().parse().unwrap();
            assert!(psize.is_power_of_two() && psize >= 32, "partition {psize}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let profile = RawLogProfile::canonical(Dialect::CtcSp2);
        assert_eq!(
            generate_raw_log(&profile, 100, 11),
            generate_raw_log(&profile, 100, 11)
        );
    }

    #[test]
    fn paragon_interactive_jobs_marked() {
        let profile = RawLogProfile::canonical(Dialect::SdscParagon);
        let raw = generate_raw_log(&profile, 400, 9);
        assert!(raw.lines().any(|l| l.contains("|interactive|")));
        assert!(raw.lines().any(|l| l.contains("|batch|")));
    }
}
