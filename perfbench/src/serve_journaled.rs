//! `serve_journaled`: the online service with crash-safe sessions. An
//! in-process `serve()` runs live `conservative` on 256 processors with a
//! journaled state directory (`fsync off`) and an artifact store. The state
//! directory is seeded with two session journals; set-up is the server start,
//! which recovers both by replay. Two closed-loop lockstep clients, one
//! connection each, resume those sessions and submit the rest of their
//! streams at ~0.9 offered load, probing `whatif <latest id> under easy`
//! every 64 submits, then fetch the trace and drain.
//!
//! Journaled writes run beside what-if reads on the same engine, and this is
//! the only workload that runs the conservative calendar, so journal,
//! what-if and socket changes show here and nowhere else.
//!
//! Why `fsync off`: with `fsync always`, submit latency measures the host's
//! disk (its p50 and p99 moved several-fold between batches on one machine),
//! not psbench.
//!
//! Why drains run one at a time: `Shard::publish` opens a new
//! `ArtifactStore` per drain, so two overlapping drains both write the same
//! `traces/.tmp-<pid>-0` temp file and one fails. Concurrent drains can join
//! the workload once the store's temp names are unique per store handle.

use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use psbench_sched::by_name;
use psbench_serve::{
    read_reply, serve, ClockMode, FsyncPolicy, Reply, ServeConfig, Session, ShardConfig,
};
use psbench_sim::{SimConfig, SimJob, Simulation};
use psbench_store::{encode_result, ArtifactStore};
use psbench_swf::{ParseOptions, RecordIter};
use psbench_workload::{Lublin99, WorkloadModel};

use crate::spans::Spans;
use crate::{median, percentile, secs, simulate, EngineLayers, Iterations, Outcome, RunArgs};

const MACHINE: u32 = 256;
const SCHEDULER: &str = "conservative";
const WHATIF_UNDER: &str = "easy";
const SESSIONS: [&str; 2] = ["bench-a", "bench-b"];
/// Submits already in each seeded journal.
const SEEDED: usize = 20_000;
/// Submits each client sends in the timed phase.
const LIVE: usize = 10_000;
const WHATIF_EVERY: usize = 64;
/// Offered load of each session's stream: processor-seconds submitted per
/// processor-second of the submit span.
const LOAD: f64 = 0.9;

/// A drained session's trace and drain payloads.
type Payloads = Option<(Vec<u8>, Vec<u8>)>;

fn journal(state: &Path, name: &str) -> PathBuf {
    state.join("sessions").join(format!("{name}.journal"))
}

fn live_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.live"))
}

/// Submit lines of session `k`: a Lublin '99 stream on the 256-processor
/// machine, with interarrivals scaled to the offered load [`LOAD`].
fn session_lines(seed: u64, k: usize) -> Vec<String> {
    let stream_seed = seed
        .wrapping_mul(SESSIONS.len() as u64)
        .wrapping_add(k as u64);
    let mut log = Lublin99::with_machine_size(MACHINE).generate(SEEDED + LIVE, stream_seed);
    let work: f64 = log
        .jobs
        .iter()
        .map(|j| j.run_time.unwrap_or(0) as f64 * j.procs().unwrap_or(1) as f64)
        .sum();
    let first = log.jobs.iter().map(|j| j.submit_time).min().unwrap_or(0);
    let last = log.jobs.iter().map(|j| j.submit_time).max().unwrap_or(0);
    let offered = work / (MACHINE as f64 * (last - first).max(1) as f64);
    log.scale_interarrivals(offered / LOAD);
    log.jobs
        .iter()
        .map(|j| {
            let mut line = format!(
                "submit id={} submit={} runtime={} procs={}",
                j.job_id,
                j.submit_time,
                j.run_time.unwrap_or(0),
                j.procs().unwrap_or(1)
            );
            if let Some(estimate) = j.requested_time {
                line.push_str(&format!(" estimate={estimate}"));
            }
            if let Some(user) = j.user_id {
                line.push_str(&format!(" user={user}"));
            }
            line
        })
        .collect()
}

/// Write the seeded state directory (one journal of [`SEEDED`] submits per
/// session) and each session's live submit lines into `dir`.
pub fn generate(seed: u64, dir: &Path) -> io::Result<()> {
    let state = dir.join("state");
    fs::create_dir_all(state.join("sessions"))?;
    let config = ShardConfig {
        scheduler: SCHEDULER.into(),
        machine: MACHINE,
        mode: ClockMode::Afap,
        store_dir: None,
    };
    for (k, name) in SESSIONS.iter().enumerate() {
        let lines = session_lines(seed, k);
        let path = journal(&state, name);
        let mut session =
            Session::create(&config, name.to_string(), Some((&path, FsyncPolicy::Never)))
                .map_err(io::Error::other)?;
        for line in &lines[..SEEDED] {
            match session.handle_line(line) {
                Reply::Line(reply) if reply.starts_with("ok submit") => {}
                other => return Err(io::Error::other(format!("seeding {line:?}: {other:?}"))),
            }
        }
        session.sync_journal()?;
        fs::write(live_path(dir, name), lines[SEEDED..].join("\n") + "\n")?;
    }
    Ok(())
}

/// One lockstep client connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and wait for its reply head and payload.
    fn request(&mut self, line: &str) -> io::Result<(String, Vec<u8>)> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let (head, body) = read_reply(&mut self.reader)?.ok_or_else(|| {
            io::Error::other(format!("server closed the connection after {line:?}"))
        })?;
        Ok((head, body.unwrap_or_default()))
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    requests: u64,
    /// Requests whose reply was not the expected `ok`.
    errors: Vec<String>,
    /// Round trips, recorded only in traced iterations.
    submit_us: Vec<f64>,
    whatif_us: Vec<f64>,
    trace: Vec<u8>,
    drain: Vec<u8>,
}

impl ClientLog {
    fn expect(&mut self, line: &str, head: &str, want: &str) {
        self.requests += 1;
        if !head.starts_with(want) {
            self.errors.push(format!("{line:?} -> {head:?}"));
        }
    }
}

fn job_id(line: &str) -> &str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix("id="))
        .unwrap_or("0")
}

/// Resume session `name`, send its live submits with a what-if probe every
/// [`WHATIF_EVERY`], fetch the trace, and drain while holding `drain_lock`.
fn client(
    addr: SocketAddr,
    name: &str,
    lines: &[String],
    drain_lock: &Mutex<()>,
    timed: bool,
) -> io::Result<ClientLog> {
    let mut conn = Conn::open(addr)?;
    let mut log = ClientLog::default();
    let hello = format!("hello psbench-serve/1 session={name}");
    let (head, _) = conn.request(&hello)?;
    log.expect(&hello, &head, "ok hello");
    if !head.contains("resumed=true") || !head.contains(&format!(" seq={SEEDED} ")) {
        log.errors.push(format!(
            "{hello:?} did not resume at seq {SEEDED}: {head:?}"
        ));
    }
    for (j, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let (head, _) = conn.request(line)?;
        if timed {
            log.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        log.expect(line, &head, "ok submit");
        if (j + 1) % WHATIF_EVERY == 0 {
            let probe = format!("whatif {} under {WHATIF_UNDER}", job_id(line));
            let t = Instant::now();
            let (head, _) = conn.request(&probe)?;
            if timed {
                log.whatif_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
            log.expect(&probe, &head, "ok whatif");
        }
    }
    let (head, trace) = conn.request("trace")?;
    log.expect("trace", &head, "ok trace");
    log.trace = trace;
    {
        let _one_drain_at_a_time = drain_lock.lock().unwrap_or_else(|e| e.into_inner());
        let (head, drain) = conn.request("drain")?;
        log.expect("drain", &head, "ok drain");
        log.drain = drain;
    }
    let (head, _) = conn.request("bye")?;
    log.expect("bye", &head, "ok bye");
    // The server closes the connection only after it has detached the
    // session, and detaching a drained session deletes its journal. Reading
    // to the end keeps that deletion from landing on the next iteration's
    // fresh copy of the journal.
    let mut rest = Vec::new();
    conn.reader.read_to_end(&mut rest)?;
    if !rest.is_empty() {
        log.errors
            .push(format!("{} bytes after \"ok bye\"", rest.len()));
    }
    Ok(log)
}

/// Copy the seeded state directory into a fresh `work` directory.
fn fresh_state(seeded: &Path, work: &Path) -> Result<(), String> {
    let copy = || -> io::Result<()> {
        if work.exists() {
            fs::remove_dir_all(work)?;
        }
        fs::create_dir_all(work.join("state").join("sessions"))?;
        for name in SESSIONS {
            fs::copy(journal(seeded, name), journal(&work.join("state"), name))?;
        }
        Ok(())
    };
    copy().map_err(|e| format!("copying seeded state to {}: {e}", work.display()))
}

fn config(work: &Path) -> ServeConfig {
    ServeConfig {
        scheduler: SCHEDULER.into(),
        machine: MACHINE,
        mode: ClockMode::Afap,
        store_dir: Some(work.join("store")),
        max_sessions: SESSIONS.len(),
        state_dir: Some(work.join("state")),
        fsync: FsyncPolicy::Never,
        idle_timeout: Some(Duration::from_secs(120)),
    }
}

/// Offline oracle: simulate the exported trace from scratch. A drained
/// session must encode to exactly these bytes.
fn offline(
    trace: &[u8],
    spans: &mut Spans,
    layers: &mut EngineLayers,
) -> Result<(Vec<u8>, usize), String> {
    let jobs = spans.span("swf.parse", |_| {
        SimJob::from_source(RecordIter::new(trace, ParseOptions::default()))
    });
    let jobs = jobs.map_err(|e| format!("exported trace: {e}"))?;
    let mut policy = by_name(SCHEDULER, MACHINE).map_err(|e| e.to_string())?;
    let sim = Simulation::new(SimConfig::new(MACHINE), jobs);
    let result = simulate(sim, policy.as_mut(), spans, layers);
    Ok((encode_result(&result).into_bytes(), result.finished.len()))
}

/// In-process twins of the traced run: recover each seeded journal and replay
/// the same lines through `Session::handle_line`, without the socket, to time
/// the `serve` and `store` layers on their own. Returns the p50 of one
/// submit's `handle_line`, in µs.
fn twins(
    seeded: &Path,
    work: &Path,
    live: &[Vec<String>],
    payloads: &[Payloads],
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut recover_ms = 0.0;
    let mut records = 0;
    let mut apply_us = Vec::new();
    let mut whatif_apply_ms = Vec::new();
    let mut drain_ms = 0.0;
    let mut ingest_ms = 0.0;
    for (k, (name, payload)) in SESSIONS.iter().zip(payloads).enumerate() {
        let Some((trace, drain)) = payload else {
            continue;
        };
        fresh_state(seeded, work)?;
        let t = Instant::now();
        let twin = spans.span("store.journal_recover", |_| {
            Session::recover(
                &journal(&work.join("state"), name),
                FsyncPolicy::Never,
                Some(work.join("twin-store")),
            )
        });
        let mut twin = twin.map_err(|e| format!("recovering {name}: {e}"))?;
        recover_ms += t.elapsed().as_secs_f64() * 1e3;
        records += twin.last_seq();
        for (j, line) in live[k].iter().enumerate() {
            let t = Instant::now();
            let reply = twin.handle_line(line);
            apply_us.push(t.elapsed().as_secs_f64() * 1e6);
            out.check(
                matches!(&reply, Reply::Line(l) if l.starts_with("ok submit")),
                || format!("twin {name}: {line:?} -> {reply:?}"),
            );
            if (j + 1) % WHATIF_EVERY == 0 {
                let probe = format!("whatif {} under {WHATIF_UNDER}", job_id(line));
                let t = Instant::now();
                let reply = twin.handle_line(&probe);
                whatif_apply_ms.push(t.elapsed().as_secs_f64() * 1e3);
                out.check(
                    matches!(&reply, Reply::Line(l) if l.starts_with("ok whatif")),
                    || format!("twin {name}: {probe:?} -> {reply:?}"),
                );
            }
        }
        let t = Instant::now();
        let reply = spans.span("serve.drain", |_| twin.handle_line("drain"));
        drain_ms += t.elapsed().as_secs_f64() * 1e3;
        let body = match reply {
            Reply::Payload { body, .. } => body,
            other => {
                out.check(false, || format!("twin {name}: drain -> {other:?}"));
                Vec::new()
            }
        };
        out.check(body == *drain, || {
            format!("twin {name}: in-process drain differs from the served drain")
        });
        let store = ArtifactStore::open(work.join("ingest-store"))
            .map_err(|e| format!("opening ingest store: {e}"))?;
        let t = Instant::now();
        let ingested = spans.span("store.ingest", |_| {
            store.ingest(RecordIter::new(trace.as_slice(), ParseOptions::default()))
        });
        ingest_ms += t.elapsed().as_secs_f64() * 1e3;
        out.check(ingested.is_ok(), || {
            format!("twin {name}: ingest: {ingested:?}")
        });
    }
    let sessions = SESSIONS.len() as f64;
    let apply_p50 = median(apply_us);
    out.set("serve.submit_apply_us", apply_p50);
    out.set("serve.whatif_apply_ms", median(whatif_apply_ms));
    out.set("serve.drain_ms", drain_ms / sessions);
    out.set("store.ingest_ms", ingest_ms / sessions);
    out.set("store.journal_recover_ms", recover_ms);
    out.set("store.journal_records", records as f64);
    Ok(apply_p50)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut spans = Spans::new();
    let mut out = Outcome::default();
    let mut iters = Iterations::new(args);
    let seeded = args.dir.join("state");
    let mut live = Vec::new();
    for name in SESSIONS {
        let path = live_path(&args.dir, name);
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        live.push(text.lines().map(String::from).collect::<Vec<_>>());
    }

    let work = args.dir.join("work");
    let mut submit_us = Vec::new();
    let mut whatif_us = Vec::new();
    let mut payloads: Vec<Payloads> = vec![None; SESSIONS.len()];
    while let Some(i) = iters.next(&mut spans)? {
        let traced = spans.enabled();
        // Set-up: start the server on a fresh copy of the seeded state, which
        // recovers both journals.
        fresh_state(&seeded, &work)?;
        let t = Instant::now();
        let handle = spans.span("serve.start", |_| serve("127.0.0.1:0", config(&work)));
        let handle = handle.map_err(|e| format!("serve: {e}"))?;
        let setup_s = secs(t);
        out.check(handle.poisoned_sessions() == 0, || {
            format!("iteration {i}: a seeded journal failed recovery")
        });
        let addr = handle.addr();
        let drain_lock = Mutex::new(());
        let t = Instant::now();
        let logs: Vec<io::Result<ClientLog>> = spans.span("serve.sessions", |_| {
            std::thread::scope(|s| {
                let clients: Vec<_> = SESSIONS
                    .iter()
                    .zip(&live)
                    .map(|(name, lines)| s.spawn(|| client(addr, name, lines, &drain_lock, traced)))
                    .collect();
                clients
                    .into_iter()
                    .map(|c| {
                        c.join()
                            .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
                    })
                    .collect()
            })
        });
        let phase_s = secs(t);
        handle.stop();
        iters.record(&spans, setup_s, SESSIONS.len() * LIVE, phase_s)?;

        for (k, (name, log)) in SESSIONS.iter().zip(logs).enumerate() {
            let log = match log {
                Ok(log) => log,
                Err(e) => {
                    out.check(false, || format!("iteration {i}: session {name}: {e}"));
                    continue;
                }
            };
            out.attempted += log.requests;
            out.failed += log.errors.len() as u64;
            for e in log.errors.iter().take(5) {
                eprintln!("perfbench: session {name}: {e}");
            }
            submit_us.extend_from_slice(&log.submit_us);
            whatif_us.extend_from_slice(&log.whatif_us);
            // Every iteration replays the same inputs, so its trace and drain
            // must equal the first iteration's byte for byte; the first is
            // checked against the offline oracle once the timed phase is over.
            match &payloads[k] {
                None => payloads[k] = Some((log.trace, log.drain)),
                Some((trace, drain)) => out
                    .check(log.trace == *trace && log.drain == *drain, || {
                        format!("iteration {i}: session {name} differs from the first iteration")
                    }),
            }
        }
        let report = ArtifactStore::open(work.join("store")).and_then(|store| store.verify());
        match report {
            Ok(r) => out.check(r.problems.is_empty() && r.ok == 2 * SESSIONS.len(), || {
                format!(
                    "iteration {i}: store verify: {} ok, problems {:?}",
                    r.ok, r.problems
                )
            }),
            Err(e) => out.check(false, || format!("iteration {i}: store verify: {e}")),
        }
    }

    let mut layers = EngineLayers::default();
    for (name, payload) in SESSIONS.iter().zip(&payloads) {
        let Some((trace, drain)) = payload else {
            continue;
        };
        let (want, finished) = spans.span("serve.check", |s| offline(trace, s, &mut layers))?;
        out.check(*drain == want && finished == SEEDED + LIVE, || {
            format!("session {name}: drain differs from offline simulate of its trace")
        });
    }

    if args.trace {
        let apply_p50 = twins(&seeded, &work, &live, &payloads, &mut spans, &mut out)?;
        let submit_p50 = percentile(submit_us.clone(), 0.5);
        out.set("serve.submit_p50_us", submit_p50);
        out.set("serve.submit_p99_us", percentile(submit_us, 0.99));
        out.set("serve.socket_us", submit_p50 - apply_p50);
        out.set("serve.whatif_ms", median(whatif_us) / 1e3);
        out.set("swf.parse_ms", spans.median_ms("swf.parse"));
        out.set("swf.records", (SESSIONS.len() * (SEEDED + LIVE)) as f64);
        layers.report(&mut out);
    }
    fs::remove_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    iters.finish(&mut out, &spans, &args.dir)?;
    Ok(out)
}
