//! The cornerstone invariant: an as-fast-as-possible scripted session,
//! drained, is **bit-for-bit identical** to an offline run of the trace the
//! session exported — across the scheduler zoo, with what-if probes and
//! queries interleaved throughout to prove they have no side effects.

use psbench_sched::scheduler_names;
use psbench_serve::{run_script, serve, ClockMode, ServeConfig};
use psbench_sim::{SimConfig, SimJob, Simulation};
use psbench_store::fnv1a_64_hex;
use psbench_swf::{parse_str, ParseOptions};

/// Deterministic job stream: (id, submit, runtime, procs, estimate, user).
fn job_stream(n: u64) -> Vec<(u64, i64, i64, u32, i64, u32)> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t: i64 = 0;
    (1..=n)
        .map(|id| {
            t += (next() % 90) as i64;
            let runtime = 1 + (next() % 2000) as i64;
            let procs = 1 + (next() % 64) as u32;
            let estimate = runtime + (next() % 500) as i64;
            let user = (next() % 7) as u32;
            (id, t, runtime, procs, estimate, user)
        })
        .collect()
}

/// Build the session script: submits interleaved with whatifs under each
/// policy in `probe_under` and queries, closing with trace + drain.
fn session_script(jobs: &[(u64, i64, i64, u32, i64, u32)], probe_under: &[&str]) -> Vec<String> {
    let mut script = vec!["hello psbench-serve/1".to_string()];
    for (i, (id, submit, runtime, procs, estimate, user)) in jobs.iter().enumerate() {
        script.push(format!(
            "submit id={id} submit={submit} runtime={runtime} procs={procs} \
             estimate={estimate} user={user}"
        ));
        // Sprinkle read-only traffic through the whole session: none of it
        // may perturb the engine.
        if i % 41 == 3 {
            for under in probe_under {
                script.push(format!("whatif {id} under {under}"));
            }
        }
        if i % 23 == 7 {
            script.push("query queue".to_string());
            script.push(format!("query job {id}"));
        }
    }
    script.push("trace".to_string());
    script.push("drain".to_string());
    script.push("bye".to_string());
    script
}

fn assert_online_matches_offline(scheduler: &str) {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            scheduler: scheduler.into(),
            machine: 64,
            mode: ClockMode::Afap,
            max_sessions: 4,
            ..ServeConfig::default()
        },
    )
    .expect("bind server");

    let jobs = job_stream(180);
    let script = session_script(&jobs, &["easy", "conservative"]);
    let transcript = run_script(server.addr(), &script).expect("run script");
    assert!(
        !transcript.has_errors(),
        "unexpected err reply under {scheduler}: {:?}",
        transcript.replies.iter().find(|r| r.starts_with("err"))
    );
    let whatifs = transcript
        .replies
        .iter()
        .filter(|r| r.starts_with("ok whatif"))
        .count();
    assert!(whatifs >= 8, "expected interleaved whatif replies");

    let trace = transcript.payload("trace").expect("trace payload");
    let drain = transcript.payload("drain").expect("drain payload");
    server.stop();

    // Offline leg: parse the exported trace and run the stock offline
    // pipeline on it — same machine, same policy, fresh engine.
    let text = String::from_utf8(trace.body.clone()).expect("trace is utf8");
    let log = parse_str(&text, &ParseOptions::default()).expect("trace parses");
    assert_eq!(log.jobs.len(), jobs.len());
    let machine = log.machine_size();
    assert_eq!(machine, 64, "MaxNodes header must pin the serve machine");
    let offline_jobs = SimJob::from_log(&log);
    let mut policy = psbench_sched::by_name(scheduler, machine).expect("policy");
    let offline = Simulation::new(SimConfig::new(machine), offline_jobs).run(policy.as_mut());

    // Bit-for-bit: the drained payload must equal the canonical encoding of
    // the offline result, byte by byte.
    let online_encoded = String::from_utf8(drain.body.clone()).expect("result is utf8");
    let offline_encoded = psbench_store::encode_result(&offline);
    assert_eq!(
        online_encoded, offline_encoded,
        "online/offline drift under {scheduler}"
    );
    // And the decoded result round-trips to full structural equality.
    let online = psbench_store::decode_result(&online_encoded).expect("decode");
    assert_eq!(online, offline, "decoded drift under {scheduler}");
    assert_eq!(online.finished.len(), jobs.len());
}

#[test]
fn online_matches_offline_fcfs() {
    assert_online_matches_offline("fcfs");
}

#[test]
fn online_matches_offline_sjf() {
    assert_online_matches_offline("sjf");
}

#[test]
fn online_matches_offline_easy() {
    assert_online_matches_offline("easy");
}

#[test]
fn online_matches_offline_conservative() {
    assert_online_matches_offline("conservative");
}

#[test]
fn online_matches_offline_gang() {
    assert_online_matches_offline("gang");
}

/// FNV-1a digest of every whatif reply (each with its newline) of the
/// session, probing under every policy, by live policy. Pinned when a probe
/// still copied the whole engine; a probe of a fork must answer the same,
/// byte for byte. (A few probes of a gang session answer `err`: a job the
/// fork's fresh policy never starts.)
const WHATIF_DIGESTS: [(&str, &str); 12] = [
    ("fcfs", "d0cc77246ac09ff2"),
    ("sjf", "898f574b4fdc3624"),
    ("ljf", "a2e62ab491533b41"),
    ("widest-first", "508a74bfe4fba44b"),
    ("narrowest-first", "d7e51af643f041f2"),
    ("greedy-fcfs", "ee6a1425ec10c966"),
    ("easy", "eca12300496d9d95"),
    ("conservative", "208680cd09bac36e"),
    ("conservative-replan", "f15a33f8ad178005"),
    ("gang", "de148a58d524b917"),
    ("adaptive", "d0cc77246ac09ff2"),
    ("draining-easy", "eca12300496d9d95"),
];

#[test]
fn whatif_replies_match_the_pinned_digests_under_every_policy() {
    let names = scheduler_names();
    let script = session_script(&job_stream(180), &names);
    let digests: Vec<(&str, String)> = names
        .iter()
        .map(|&scheduler| {
            let server = serve(
                "127.0.0.1:0",
                ServeConfig {
                    scheduler: scheduler.into(),
                    machine: 64,
                    mode: ClockMode::Afap,
                    max_sessions: 4,
                    ..ServeConfig::default()
                },
            )
            .expect("bind server");
            let transcript = run_script(server.addr(), &script).expect("run script");
            server.stop();
            let whatifs: String = script
                .iter()
                .zip(&transcript.replies)
                .filter(|(line, _)| line.starts_with("whatif"))
                .map(|(_, reply)| format!("{reply}\n"))
                .collect();
            assert_eq!(whatifs.lines().count(), 5 * names.len(), "{scheduler}");
            (scheduler, fnv1a_64_hex(whatifs.as_bytes()))
        })
        .collect();
    let pinned: Vec<(&str, String)> = WHATIF_DIGESTS
        .iter()
        .map(|&(name, digest)| (name, digest.to_string()))
        .collect();
    assert_eq!(digests, pinned);
}
