//! Crash-safety oracle: a journaled session that dies mid-stream and is
//! rebuilt by deterministic replay must be indistinguishable — byte for byte
//! in its drained result — from a twin that never crashed, across the
//! scheduler zoo, at every possible crash point in the journal (including
//! mid-record), and for randomly generated command streams.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use psbench_serve::{serve, ClockMode, FsyncPolicy, Reply, ServeConfig, Session, ShardConfig};
use psbench_sim::{SimConfig, SimJob, Simulation};
use psbench_swf::{parse_str, ParseOptions};

fn afap_config(scheduler: &str) -> ShardConfig {
    ShardConfig {
        scheduler: scheduler.into(),
        machine: 64,
        mode: ClockMode::Afap,
        store_dir: None,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psbench-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Apply one protocol line, insisting on an `ok`/`err` line reply.
fn line(session: &mut Session, cmd: &str) -> String {
    match session.handle_line(cmd) {
        Reply::Line(l) => l,
        other => panic!("expected line reply for {cmd:?}, got {other:?}"),
    }
}

/// Apply one payload-carrying command (`trace` / `drain`) and return its body.
fn payload(session: &mut Session, cmd: &str) -> Vec<u8> {
    match session.handle_line(cmd) {
        Reply::Payload { body, .. } => body,
        other => panic!("expected payload reply for {cmd:?}, got {other:?}"),
    }
}

/// The deterministic zoo script: submits with varied shapes, interleaved
/// advances, and a cancel of an unknown job (journaled, fails identically on
/// replay). No successful cancels — those would drop jobs from the engine
/// but not from the exported trace, which the offline leg below replays.
fn zoo_script() -> Vec<String> {
    let mut script = Vec::new();
    let mut t: i64 = 0;
    for id in 1..=40u64 {
        t += (id * 37) as i64 % 61;
        let runtime = 30 + ((id * 13) % 900) as i64;
        let procs = 1 + ((id * 17) % 64) as u32;
        let estimate = runtime + ((id * 7) % 200) as i64;
        script.push(format!(
            "submit id={id} submit={t} runtime={runtime} procs={procs} \
             estimate={estimate} user={}",
            id % 5
        ));
        if id % 9 == 4 {
            script.push(format!("advance to={}", t + 50));
        }
        if id % 13 == 6 {
            script.push("cancel id=999".to_string()); // unknown: deterministic err
        }
    }
    script
}

/// Crash a journaled session mid-script, recover it from the journal, finish
/// the script, and demand the drained result is byte-identical to (a) an
/// uninterrupted unjournaled twin and (b) an offline simulation of the
/// exported trace.
fn assert_crash_recover_matches(scheduler: &str) {
    let dir = temp_dir(&format!("zoo-{scheduler}"));
    let journal = dir.join("s.journal");
    let config = afap_config(scheduler);
    let script = zoo_script();
    let split = script.len() / 2;

    // Live leg, first half — then the process "dies" (session dropped without
    // drain or sync beyond the per-command flush).
    let mut live = Session::create(&config, "s".into(), Some((&journal, FsyncPolicy::Always)))
        .expect("create journaled session");
    for cmd in &script[..split] {
        line(&mut live, cmd);
    }
    drop(live);

    // Recover by replay, finish the script, export and drain.
    let mut recovered =
        Session::recover(&journal, FsyncPolicy::Always, None).expect("recover session");
    assert_eq!(
        recovered.last_seq() as usize,
        split,
        "every command replayed"
    );
    for cmd in &script[split..] {
        line(&mut recovered, cmd);
    }
    let trace = payload(&mut recovered, "trace");
    let drain = payload(&mut recovered, "drain");

    // Twin leg: the same script, uninterrupted, no journal.
    let mut twin = Session::create(&config, "s".into(), None).unwrap();
    for cmd in &script {
        line(&mut twin, cmd);
    }
    assert_eq!(
        trace,
        payload(&mut twin, "trace"),
        "trace drift after recovery under {scheduler}"
    );
    assert_eq!(
        drain,
        payload(&mut twin, "drain"),
        "drain drift after recovery under {scheduler}"
    );

    // Offline leg: the exported trace through the stock offline pipeline.
    let text = String::from_utf8(trace).expect("trace is utf8");
    let log = parse_str(&text, &ParseOptions::default()).expect("trace parses");
    let machine = log.machine_size();
    assert_eq!(machine, 64);
    let jobs = SimJob::from_log(&log);
    let mut policy = psbench_sched::by_name(scheduler, machine).expect("policy");
    let offline = Simulation::new(SimConfig::new(machine), jobs).run(policy.as_mut());
    assert_eq!(
        String::from_utf8(drain).expect("result is utf8"),
        psbench_store::encode_result(&offline),
        "recovered drain does not match offline replay under {scheduler}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recover_drain_matches_twin_fcfs() {
    assert_crash_recover_matches("fcfs");
}

#[test]
fn crash_recover_drain_matches_twin_sjf() {
    assert_crash_recover_matches("sjf");
}

#[test]
fn crash_recover_drain_matches_twin_easy() {
    assert_crash_recover_matches("easy");
}

#[test]
fn crash_recover_drain_matches_twin_conservative() {
    assert_crash_recover_matches("conservative");
}

#[test]
fn crash_recover_drain_matches_twin_gang() {
    assert_crash_recover_matches("gang");
}

/// A small command stream in which every line is statically valid (so each
/// line consumes exactly one seq and lands in the journal 1:1 — applies may
/// still fail, deterministically, which replay must reproduce).
fn small_script() -> Vec<String> {
    vec![
        "submit id=1 submit=0 runtime=300 procs=64".into(),
        "submit id=2 submit=40 runtime=120 procs=16 estimate=200".into(),
        "cancel id=2".into(),
        "submit id=3 submit=80 runtime=60 procs=8 user=2".into(),
        "advance to=150".into(),
        "cancel id=7".into(), // unknown job: journaled, errs on replay too
        "submit id=4 submit=200 runtime=90 procs=32 estimate=100".into(),
        "advance to=400".into(),
    ]
}

/// Drain bytes of a fresh unjournaled session that applied the first `k`
/// lines of `script` — the reference a crash-recovered session must match.
fn reference_drain(config: &ShardConfig, script: &[String], k: usize) -> Vec<u8> {
    let mut session = Session::create(config, "s".into(), None).unwrap();
    for cmd in &script[..k] {
        line(&mut session, cmd);
    }
    payload(&mut session, "drain")
}

/// Crash the journal at EVERY byte prefix — including mid-record and inside
/// the open line — and demand recovery either succeeds with some replayed
/// prefix of the command stream (drain bytes equal to the reference for that
/// prefix) or fails cleanly. Never a panic, never a half-applied command.
#[test]
fn recovery_is_exact_at_every_journal_byte_prefix() {
    let dir = temp_dir("prefix");
    let config = afap_config("easy");
    let script = small_script();

    let journal = dir.join("full.journal");
    let mut session = Session::create(&config, "full".into(), Some((&journal, FsyncPolicy::Never)))
        .expect("create");
    for cmd in &script {
        line(&mut session, cmd);
    }
    session.sync_journal().unwrap();
    drop(session);
    let bytes = std::fs::read(&journal).unwrap();

    // References keyed by recovered last_seq (computed once per k, not per
    // byte — recovery at many different prefixes lands on the same k).
    let references: Vec<Vec<u8>> = (0..=script.len())
        .map(|k| reference_drain(&config, &script, k))
        .collect();

    let torn = dir.join("torn.journal");
    let mut recovered_at = vec![0usize; script.len() + 1];
    for cut in 0..=bytes.len() {
        std::fs::write(&torn, &bytes[..cut]).unwrap();
        match Session::recover(&torn, FsyncPolicy::Never, None) {
            Ok(mut recovered) => {
                let k = recovered.last_seq() as usize;
                assert!(k <= script.len(), "cut {cut}: impossible seq {k}");
                recovered_at[k] += 1;
                assert_eq!(
                    payload(&mut recovered, "drain"),
                    references[k],
                    "cut {cut}: recovered seq {k} drifts from its reference"
                );
            }
            Err(e) => {
                // Only prefixes that truncate the open line itself may fail —
                // and they must fail cleanly, as corrupt data.
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "cut {cut}: {e}");
            }
        }
    }
    // Every replay depth was actually reached, torn tails included.
    for (k, hits) in recovered_at.iter().enumerate() {
        assert!(*hits > 0, "no byte prefix recovered to seq {k}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn scheduler_zoo() -> &'static [&'static str] {
    &["fcfs", "sjf", "easy", "conservative", "gang"]
}

proptest! {
    /// Random command streams, crashed at a random journal byte, recovered,
    /// finished, drained — bit-equal to the uninterrupted twin, across the
    /// scheduler zoo.
    #[test]
    fn random_streams_survive_random_crash_points(
        spec in (0u64..u64::MAX, prop::collection::vec(0usize..usize::MAX, 1..28))
    ) {
        let (pick, raw) = spec;
        let scheduler = scheduler_zoo()[(pick % scheduler_zoo().len() as u64) as usize];
        let config = afap_config(scheduler);
        let script: Vec<String> = raw
            .iter()
            .enumerate()
            .map(|(i, r)| command_from_draw(i as u64, *r as u64))
            .collect();

        let dir = temp_dir(&format!("prop-{pick}-{}", raw.len()));
        let journal = dir.join("p.journal");
        let mut live =
            Session::create(&config, "p".into(), Some((&journal, FsyncPolicy::Never))).unwrap();
        for cmd in &script {
            line(&mut live, cmd);
        }
        live.sync_journal().unwrap();
        drop(live);

        // Crash at a byte position derived from the same draw stream.
        let bytes = std::fs::read(&journal).unwrap();
        let cut = (pick as usize) % (bytes.len() + 1);
        std::fs::write(&journal, &bytes[..cut]).unwrap();

        match Session::recover(&journal, FsyncPolicy::Never, None) {
            Ok(mut recovered) => {
                let k = recovered.last_seq() as usize;
                prop_assert!(k <= script.len());
                // Finish the script from where the journal survived…
                for cmd in &script[k..] {
                    line(&mut recovered, cmd);
                }
                // …and the drain must match the twin that never crashed.
                let mut twin = Session::create(&config, "p".into(), None).unwrap();
                for cmd in &script {
                    line(&mut twin, cmd);
                }
                prop_assert_eq!(
                    payload(&mut recovered, "drain"),
                    payload(&mut twin, "drain"),
                    "{} drifted (crash at byte {} of {}, resumed from seq {})",
                    scheduler, cut, bytes.len(), k
                );
            }
            Err(e) => {
                // Only a cut inside the open line may fail, and cleanly so.
                prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Deterministic line builder for the property test: every line is
/// statically valid, so journal records map 1:1 onto script lines.
fn command_from_draw(i: u64, r: u64) -> String {
    let id = 1 + (r / 7) % 24;
    let t = (r / 11) % 2000;
    let runtime = 1 + (r / 13) % 600;
    let procs = 1 + (r / 17) % 64;
    match r % 6 {
        0..=2 => format!(
            "submit id={id} submit={t} runtime={runtime} procs={procs} estimate={} user={}",
            runtime + i % 97,
            id % 4
        ),
        3 => format!("submit id={id} submit={t} runtime={runtime} procs={procs}"),
        4 => format!("cancel id={id}"),
        _ => format!("advance to={t}"),
    }
}

/// Server-level restart: a named, journaled session driven over TCP survives
/// a full server stop/start cycle on the same state dir and resumes with its
/// engine intact; the final drain equals an uninterrupted in-process twin.
#[test]
fn server_restart_resumes_journaled_sessions() {
    let dir = temp_dir("restart");
    let config = ServeConfig {
        scheduler: "conservative".into(),
        machine: 64,
        mode: ClockMode::Afap,
        max_sessions: 4,
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    let first_half = [
        "hello psbench-serve/1 session=night",
        "submit id=1 submit=0 runtime=500 procs=64 seq=1",
        "submit id=2 submit=50 runtime=100 procs=16 estimate=150 seq=2",
        "advance to=120 seq=3",
    ];
    let server = serve("127.0.0.1:0", config.clone()).expect("bind first server");
    let transcript =
        psbench_serve::run_script(server.addr(), &first_half).expect("first half runs");
    assert!(!transcript.has_errors(), "{:?}", transcript.replies);
    assert!(
        transcript.replies[0].contains("session=night seq=0 resumed=false"),
        "{}",
        transcript.replies[0]
    );
    server.stop();

    // A new server process (same state dir) recovers the journal on startup.
    let server = serve("127.0.0.1:0", config).expect("bind second server");
    assert_eq!(server.poisoned_sessions(), 0);
    let second_half = [
        "hello psbench-serve/1 session=night",
        "submit id=3 submit=200 runtime=60 procs=8 seq=4",
        "advance to=1000 seq=5",
        "drain seq=6",
        "bye",
    ];
    let transcript =
        psbench_serve::run_script(server.addr(), &second_half).expect("second half runs");
    assert!(!transcript.has_errors(), "{:?}", transcript.replies);
    assert!(
        transcript.replies[0].contains("session=night seq=3 resumed=true"),
        "restart must resume the journaled session: {}",
        transcript.replies[0]
    );
    let drain = transcript.payload("drain").expect("drain payload");
    server.stop();

    // Twin: the same commands against one uninterrupted in-process session.
    let shard_config = afap_config("conservative");
    let mut twin = Session::create(&shard_config, "night".into(), None).unwrap();
    for cmd in first_half[1..].iter().chain(&second_half[1..3]) {
        line(&mut twin, cmd);
    }
    assert_eq!(
        drain.body,
        payload(&mut twin, "drain"),
        "restarted session drifted from the uninterrupted twin"
    );
    // The drained session's journal was cleaned up.
    assert!(
        !journal_file(&dir, "night").exists(),
        "drained session journal should be deleted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal naming a 0-processor machine is poisoned at startup like any
/// other unrecoverable journal: the server still starts, a good journal
/// beside it resumes, and attaching to the bad name reports the failure.
#[test]
fn zero_processor_journal_is_poisoned_not_fatal() {
    let dir = temp_dir("machine0");
    std::fs::create_dir_all(dir.join("sessions")).unwrap();
    let mut good = Session::create(
        &afap_config("fcfs"),
        "good".into(),
        Some((&journal_file(&dir, "good"), FsyncPolicy::Always)),
    )
    .unwrap();
    line(&mut good, "submit id=1 submit=0 runtime=10 procs=4");
    drop(good);
    std::fs::write(
        journal_file(&dir, "broken"),
        "open proto=1 scheduler=fcfs machine=0 mode=afap\n",
    )
    .unwrap();

    let config = ServeConfig {
        state_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = serve("127.0.0.1:0", config).expect("server starts beside a bad journal");
    assert_eq!(server.poisoned_sessions(), 1);
    let good = psbench_serve::run_script(
        server.addr(),
        &["hello psbench-serve/1 session=good", "bye"],
    )
    .expect("good session attaches");
    assert!(
        good.replies[0].contains("session=good seq=1 resumed=true"),
        "{}",
        good.replies[0]
    );
    let bad = psbench_serve::run_script(
        server.addr(),
        &["hello psbench-serve/1 session=broken", "bye"],
    )
    .expect("bad session answers");
    assert!(
        bad.replies[0].starts_with("err session broken failed recovery: "),
        "{}",
        bad.replies[0]
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

fn journal_file(state_dir: &Path, name: &str) -> PathBuf {
    state_dir.join("sessions").join(format!("{name}.journal"))
}
