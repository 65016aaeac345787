//! Crash-safe sessions: a [`Shard`] behind a write-ahead journal.
//!
//! A session serves protocol commands against its shard. Every *mutating*
//! command (`submit`, `cancel`, `advance`, `drain`) is resolved to exact
//! instants, **journaled before it is applied**, and only then executed —
//! so a session killed at any byte can be rebuilt by replaying its journal
//! through the same apply step the live session used
//! ([`Session::apply_logged`] is that step plus rendering the reply; replay
//! renders only the last record's reply, the one a resubmission can ask
//! for). Queries (`query`, `whatif`, `trace`) never touch the journal.
//!
//! # Journal format
//!
//! One text line per entry. The first line pins the session configuration:
//!
//! ```text
//! open proto=1 scheduler=<name> machine=<procs> mode=<clock-mode>
//! ```
//!
//! Every later line is a checksummed record (see
//! [`psbench_store::journal::frame_record`]) whose payload is a *resolved*
//! command — wall-clock and frontier arithmetic already folded in:
//!
//! ```text
//! c <seq> <crc> submit id=7 time=100 runtime=60 procs=4 estimate=90 user=3
//! c <seq> <crc> cancel id=7 at=b40590cccccccccccd
//! c <seq> <crc> advance to=500
//! c <seq> <crc> drain
//! ```
//!
//! `cancel` carries its wall instant as the exact bit pattern of the `f64`
//! (`at=b<16 hex digits>`), so replay reproduces the engine bit-for-bit.
//!
//! # Sequence numbers
//!
//! Each applied command consumes a strictly increasing `seq`. Clients may
//! pin `seq=` explicitly: re-sending the last applied `seq` replays the
//! cached reply without re-applying (idempotent resubmission after a lost
//! reply); a smaller `seq` is refused as stale. Validation failures are
//! neither journaled nor `seq`-consuming.

use std::io;
use std::path::{Path, PathBuf};

use psbench_sim::JobState;
use psbench_store::{frame_record, parse_record, FsyncPolicy, Journal};

use crate::clock::ClockMode;
use crate::protocol::{parse_command, valid_session_name, Command, Reply, PROTOCOL_VERSION};
use crate::shard::{Drained, Shard, ShardConfig};

/// A mutating command with every input already resolved: the exact form that
/// is journaled, applied, and replayed. See the module docs for the wire
/// rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum LoggedCommand {
    /// Submit job `id` at the resolved instant `time`.
    Submit {
        /// Job id, unique within the session.
        id: u64,
        /// Resolved submit instant (integer session seconds).
        time: i64,
        /// Actual runtime in seconds.
        runtime: i64,
        /// Processors requested.
        procs: u32,
        /// Resolved runtime estimate (defaulted to `runtime` if omitted).
        estimate: i64,
        /// Owning user id, if given.
        user: Option<u32>,
    },
    /// Cancel job `id`, first advancing to the resolved wall instant `at`
    /// (`None` in as-fast-as-possible mode).
    Cancel {
        /// Job to cancel.
        id: u64,
        /// Resolved wall instant of the cancel, if the clock is wall-driven.
        at: Option<f64>,
    },
    /// Release session time up to the resolved instant `to`.
    Advance {
        /// Resolved target instant (integer session seconds).
        to: i64,
    },
    /// Run the engine to completion and publish the result.
    Drain,
}

/// Parse one `key=`-prefixed token.
fn field<T: std::str::FromStr>(tok: &str, key: &str) -> Option<T> {
    tok.strip_prefix(key)?.parse().ok()
}

impl LoggedCommand {
    /// Render as a journal payload line (no newline).
    pub fn render(&self) -> String {
        match self {
            LoggedCommand::Submit {
                id,
                time,
                runtime,
                procs,
                estimate,
                user,
            } => {
                let mut s = format!(
                    "submit id={id} time={time} runtime={runtime} procs={procs} estimate={estimate}"
                );
                if let Some(user) = user {
                    s.push_str(&format!(" user={user}"));
                }
                s
            }
            LoggedCommand::Cancel { id, at } => match at {
                None => format!("cancel id={id}"),
                Some(at) => format!("cancel id={id} at=b{:016x}", at.to_bits()),
            },
            LoggedCommand::Advance { to } => format!("advance to={to}"),
            LoggedCommand::Drain => "drain".into(),
        }
    }

    /// Parse a journal payload line. Strict inverse of [`LoggedCommand::render`].
    pub fn parse(payload: &str) -> Option<LoggedCommand> {
        let tokens: Vec<&str> = payload.split(' ').collect();
        match tokens.as_slice() {
            ["submit", id, time, runtime, procs, estimate] => Some(LoggedCommand::Submit {
                id: field(id, "id=")?,
                time: field(time, "time=")?,
                runtime: field(runtime, "runtime=")?,
                procs: field(procs, "procs=")?,
                estimate: field(estimate, "estimate=")?,
                user: None,
            }),
            ["submit", id, time, runtime, procs, estimate, user] => Some(LoggedCommand::Submit {
                id: field(id, "id=")?,
                time: field(time, "time=")?,
                runtime: field(runtime, "runtime=")?,
                procs: field(procs, "procs=")?,
                estimate: field(estimate, "estimate=")?,
                user: Some(field(user, "user=")?),
            }),
            ["cancel", id] => Some(LoggedCommand::Cancel {
                id: field(id, "id=")?,
                at: None,
            }),
            ["cancel", id, at] => {
                let bits = u64::from_str_radix(at.strip_prefix("at=b")?, 16).ok()?;
                Some(LoggedCommand::Cancel {
                    id: field(id, "id=")?,
                    at: Some(f64::from_bits(bits)),
                })
            }
            ["advance", to] => Some(LoggedCommand::Advance {
                to: field(to, "to=")?,
            }),
            ["drain"] => Some(LoggedCommand::Drain),
            _ => None,
        }
    }
}

/// Render the journal's `open` header line for a session configuration.
fn render_open_line(config: &ShardConfig) -> String {
    format!(
        "open proto={PROTOCOL_VERSION} scheduler={} machine={} mode={}",
        config.scheduler, config.machine, config.mode
    )
}

/// Parse the journal's `open` header line back into its fields. A machine of
/// 0 processors is refused like any other malformed field.
fn parse_open_line(line: &str) -> Option<(String, u32, ClockMode)> {
    let tokens: Vec<&str> = line.split(' ').collect();
    let ["open", proto, scheduler, machine, mode] = tokens.as_slice() else {
        return None;
    };
    let proto: u32 = field(proto, "proto=")?;
    if proto != PROTOCOL_VERSION {
        return None;
    }
    Some((
        field(scheduler, "scheduler=")?,
        field(machine, "machine=").filter(|&m: &u32| m > 0)?,
        ClockMode::parse(mode.strip_prefix("mode=")?)?,
    ))
}

/// One session: a protocol front-end over a shard, optionally write-ahead
/// journaled so it survives a crash of the serving process.
pub struct Session {
    shard: Shard,
    name: String,
    journal: Option<Journal>,
    /// Highest applied command sequence number (0 = none yet).
    last_seq: u64,
    /// Reply of the last applied command, replayed verbatim when the client
    /// re-sends the same `seq` after a lost reply.
    last_reply: Option<Reply>,
}

/// What applying one logged command did: the shard's answer, kept unrendered
/// until its reply is wanted.
enum Applied {
    Submit(u64, Result<i64, String>),
    Cancel(u64, Result<(), String>),
    Advance(Result<f64, String>),
    Drain(Result<Drained, String>),
}

impl Applied {
    /// The wire reply for this outcome.
    fn reply(self) -> Reply {
        match self {
            Applied::Submit(id, Ok(t)) => Reply::Line(format!("ok submit id={id} time={t}")),
            Applied::Submit(_, Err(msg)) => Reply::err(format!("submit: {msg}")),
            Applied::Cancel(id, Ok(())) => Reply::Line(format!("ok cancel id={id}")),
            Applied::Cancel(_, Err(msg)) => Reply::err(format!("cancel: {msg}")),
            Applied::Advance(Ok(now)) => Reply::Line(format!("ok advance now={now}")),
            Applied::Advance(Err(msg)) => Reply::err(format!("advance: {msg}")),
            Applied::Drain(Ok(drained)) => {
                let body = drained.encoded.into_bytes();
                let stored = drained
                    .stored
                    .map(|key| format!(" stored={key}"))
                    .unwrap_or_default();
                Reply::Payload {
                    head: format!(
                        "ok drain bytes={} scheduler={} machine={} finished={}{stored}",
                        body.len(),
                        drained.result.scheduler,
                        drained.result.machine_size,
                        drained.result.finished.len(),
                    ),
                    body,
                }
            }
            Applied::Drain(Err(msg)) => Reply::err(format!("drain: {msg}")),
        }
    }
}

/// Render a [`JobState`] as the `state=…` tail of a `query job` reply.
fn render_state(state: &JobState) -> String {
    match state {
        JobState::Pending { submit } => format!("state=pending submit={submit}"),
        JobState::Queued { queued_at } => format!("state=queued queued_at={queued_at}"),
        JobState::Running {
            started_at,
            predicted_end,
            procs,
        } => format!(
            "state=running started_at={started_at} predicted_end={predicted_end} procs={procs}"
        ),
        JobState::Finished { start, end } => format!("state=finished start={start} end={end}"),
        JobState::Cancelled => "state=cancelled".into(),
        JobState::Discarded => "state=discarded".into(),
    }
}

impl Session {
    /// Build a fresh session, optionally journaled at `journal`; without one,
    /// a crash loses the session. The journal file must not already hold a
    /// session (recover instead).
    pub fn create(
        config: &ShardConfig,
        name: String,
        journal: Option<(&Path, FsyncPolicy)>,
    ) -> Result<Session, String> {
        if config.machine == 0 {
            return Err("machine must be >= 1".into());
        }
        let shard = Shard::new(config, name.clone()).map_err(|e| e.to_string())?;
        let journal = match journal {
            None => None,
            Some((path, policy)) => {
                let journal = Journal::open(path, policy).map_err(|e| format!("journal: {e}"))?;
                if !journal.is_empty() {
                    return Err(format!(
                        "journal {} already holds a session",
                        path.display()
                    ));
                }
                journal
                    .append_line(&render_open_line(config))
                    .map_err(|e| format!("journal: {e}"))?;
                Some(journal)
            }
        };
        Ok(Session {
            shard,
            name,
            journal,
            last_seq: 0,
            last_reply: None,
        })
    }

    /// Rebuild a session from its journal: validate and truncate the torn
    /// tail, then deterministically replay every logged command through the
    /// same apply path the live session used.
    ///
    /// The session name is the journal's file stem; the configuration comes
    /// from the journal's own `open` line, so a journal is self-contained.
    /// After replay the wall clock re-anchors at the recovery instant (clock
    /// anchors are not state — every journaled instant is already resolved).
    pub fn recover(
        path: &Path,
        policy: FsyncPolicy,
        store_dir: Option<PathBuf>,
    ) -> io::Result<Session> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .filter(|s| valid_session_name(s))
            .ok_or_else(|| bad(format!("bad session journal name {}", path.display())))?
            .to_string();
        // Each line is parsed once, here: the `open` line is kept whole (its
        // fields are checked below, so a malformed header fails recovery
        // rather than reading as a torn tail), and every record becomes its
        // sequence number and command.
        let mut open: Option<String> = None;
        let mut prev_seq = 0u64;
        let (journal, records) = Journal::recover(path, policy, |line| {
            if open.is_none() {
                let header = line.starts_with("open ");
                if header {
                    open = Some(line.to_string());
                }
                return header.then_some(None);
            }
            let (seq, payload) = parse_record(line).filter(|&(seq, _)| seq > prev_seq)?;
            prev_seq = seq;
            Some(Some((seq, LoggedCommand::parse(payload)?)))
        })?;
        let Some(open) = open else {
            return Err(bad(format!("journal {} has no open line", path.display())));
        };
        let (scheduler, machine, mode) = parse_open_line(&open).ok_or_else(|| {
            bad(format!(
                "journal {}: bad open line {open:?}",
                path.display()
            ))
        })?;
        let config = ShardConfig {
            scheduler,
            machine,
            mode,
            store_dir,
        };
        let shard = Shard::new(&config, name.clone()).map_err(|e| bad(e.to_string()))?;
        let mut session = Session {
            shard,
            name,
            journal: Some(journal),
            last_seq: 0,
            last_reply: None,
        };
        // Only the last record's reply can be asked for again (an idempotent
        // resubmission of the last seq), so only it is rendered.
        let mut records = records.into_iter().flatten().peekable();
        while let Some((seq, cmd)) = records.next() {
            let applied = session.apply(cmd);
            session.last_seq = seq;
            if records.peek().is_none() {
                session.last_reply = Some(applied.reply());
            }
        }
        session.shard.reanchor_clock(mode);
        Ok(session)
    }

    /// The session's name (journal file stem for journaled sessions).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Highest applied command sequence number (0 = none yet).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// True once the session has been fully drained.
    pub fn drained(&self) -> bool {
        self.shard.drained()
    }

    /// Path of the session's journal, if it is journaled.
    pub fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(|j| j.path())
    }

    /// Fsync the journal to disk (no-op for unjournaled sessions). The
    /// durability point for sessions running with `fsync: off`.
    pub fn sync_journal(&self) -> io::Result<()> {
        match &self.journal {
            Some(journal) => journal.sync(),
            None => Ok(()),
        }
    }

    /// Borrow the underlying shard (used by in-process embedders and tests).
    pub fn shard(&self) -> &Shard {
        &self.shard
    }

    /// Apply one already-resolved command to the shard and produce its wire
    /// reply. Live commands take this path, and journal replay takes its
    /// apply step — determinism of recovery reduces to determinism of that
    /// step.
    pub fn apply_logged(&mut self, cmd: LoggedCommand) -> Reply {
        self.apply(cmd).reply()
    }

    /// The apply step of [`Session::apply_logged`], without the reply.
    fn apply(&mut self, cmd: LoggedCommand) -> Applied {
        match cmd {
            LoggedCommand::Submit {
                id,
                time,
                runtime,
                procs,
                estimate,
                user,
            } => Applied::Submit(
                id,
                self.shard
                    .submit_at(id, time, runtime, procs, estimate, user),
            ),
            LoggedCommand::Cancel { id, at } => Applied::Cancel(id, self.shard.cancel_at(id, at)),
            LoggedCommand::Advance { to } => Applied::Advance(self.shard.advance_to(to)),
            LoggedCommand::Drain => Applied::Drain(self.shard.drain()),
        }
    }

    /// Resolve the `seq` of a mutating command. `Ok(seq)` means "apply under
    /// this number"; `Err(reply)` short-circuits (cached replay or stale).
    fn resolve_seq(&self, seq: Option<u64>) -> Result<u64, Reply> {
        match seq {
            None => Ok(self.last_seq + 1),
            Some(0) => Err(Reply::err("seq must be >= 1")),
            Some(s) if s == self.last_seq => match &self.last_reply {
                Some(reply) => Err(reply.clone()),
                None => Err(Reply::err(format!("no cached reply for seq {s}"))),
            },
            Some(s) if s < self.last_seq => Err(Reply::err(format!(
                "stale seq {s}; session already at seq {}",
                self.last_seq
            ))),
            Some(s) => Ok(s),
        }
    }

    /// Journal (if journaled) and apply one resolved command under `seq`,
    /// caching the reply for idempotent resubmission.
    fn commit(&mut self, seq: u64, cmd: LoggedCommand) -> Reply {
        if let Some(journal) = &self.journal {
            if let Err(e) = journal.append_line(&frame_record(seq, &cmd.render())) {
                // Nothing was applied: the command can be retried safely
                // (same seq) once the journal device recovers.
                return Reply::err(format!("journal: {e}"));
            }
        }
        let reply = self.apply_logged(cmd);
        self.last_seq = seq;
        self.last_reply = Some(reply.clone());
        reply
    }

    /// Handle one request line and produce its reply. The hello handshake is
    /// owned by the server (a session only exists after attach), so `hello`
    /// here is always an error.
    pub fn handle_line(&mut self, line: &str) -> Reply {
        let command = match parse_command(line) {
            Ok(command) => command,
            Err(msg) => return Reply::err(msg),
        };
        match command {
            Command::Hello { .. } => Reply::err("hello already received"),
            Command::Submit {
                id,
                submit,
                runtime,
                procs,
                estimate,
                user,
                seq,
            } => {
                let seq = match self.resolve_seq(seq) {
                    Ok(seq) => seq,
                    Err(reply) => return reply,
                };
                if let Err(msg) = Shard::validate_submit(submit, runtime, procs, estimate) {
                    return Reply::err(format!("submit: {msg}"));
                }
                if self.shard.drained() {
                    return Reply::err("submit: session already drained");
                }
                let time = self.shard.resolve_time(submit);
                self.commit(
                    seq,
                    LoggedCommand::Submit {
                        id,
                        time,
                        runtime,
                        procs,
                        estimate: estimate.unwrap_or(runtime),
                        user,
                    },
                )
            }
            Command::Cancel { id, seq } => {
                let seq = match self.resolve_seq(seq) {
                    Ok(seq) => seq,
                    Err(reply) => return reply,
                };
                if self.shard.drained() {
                    return Reply::err("cancel: session already drained");
                }
                let at = self.shard.wall_now();
                self.commit(seq, LoggedCommand::Cancel { id, at })
            }
            Command::Advance { to, seq } => {
                let seq = match self.resolve_seq(seq) {
                    Ok(seq) => seq,
                    Err(reply) => return reply,
                };
                if to < 0 {
                    return Reply::err(format!("advance: advance target must be >= 0, got {to}"));
                }
                if self.shard.drained() {
                    return Reply::err("advance: session already drained");
                }
                let to = self.shard.resolve_time(Some(to));
                self.commit(seq, LoggedCommand::Advance { to })
            }
            Command::Drain { seq } => {
                let seq = match self.resolve_seq(seq) {
                    Ok(seq) => seq,
                    Err(reply) => return reply,
                };
                if self.shard.drained() {
                    return Reply::err("drain: session already drained");
                }
                self.commit(seq, LoggedCommand::Drain)
            }
            Command::QueryQueue => match self.shard.queue_stats() {
                Ok((now, released, queued, running, finished, used)) => Reply::Line(format!(
                    "ok queue now={now} released={released} queued={queued} \
                     running={running} finished={finished} used={used}"
                )),
                Err(msg) => Reply::err(format!("query: {msg}")),
            },
            Command::QueryJob { id } => match self.shard.job_state(id) {
                Ok(Some(state)) => Reply::Line(format!("ok job id={id} {}", render_state(&state))),
                Ok(None) => Reply::err(format!("query: unknown job {id}")),
                Err(msg) => Reply::err(format!("query: {msg}")),
            },
            Command::Whatif { id, scheduler } => match self.shard.whatif(id, &scheduler) {
                Ok(Ok(p)) => Reply::Line(format!(
                    "ok whatif id={id} scheduler={} start={} wait={} already_started={}",
                    p.scheduler, p.start, p.wait, p.already_started
                )),
                Ok(Err(probe_err)) => Reply::err(format!("whatif: {probe_err}")),
                Err(msg) => Reply::err(format!("whatif: {msg}")),
            },
            Command::Trace => {
                let body = self.shard.trace_text().into_bytes();
                Reply::Payload {
                    head: format!(
                        "ok trace bytes={} records={}",
                        body.len(),
                        self.shard.record_count()
                    ),
                    body,
                }
            }
            Command::Bye => Reply::Goodbye("ok bye".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ClockMode;
    use crate::protocol::payload_len;

    fn afap_config() -> ShardConfig {
        ShardConfig {
            scheduler: "fcfs".into(),
            machine: 64,
            mode: ClockMode::Afap,
            store_dir: None,
        }
    }

    fn ready_session() -> Session {
        Session::create(&afap_config(), "t".into(), None).unwrap()
    }

    fn line(session: &mut Session, cmd: &str) -> String {
        match session.handle_line(cmd) {
            Reply::Line(l) => l,
            other => panic!("expected line reply for {cmd:?}, got {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psbench-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn logged_commands_render_and_parse_exactly() {
        let cases = [
            LoggedCommand::Submit {
                id: 7,
                time: 100,
                runtime: 60,
                procs: 4,
                estimate: 90,
                user: Some(3),
            },
            LoggedCommand::Submit {
                id: 1,
                time: 0,
                runtime: 5,
                procs: 1,
                estimate: 5,
                user: None,
            },
            LoggedCommand::Cancel { id: 9, at: None },
            LoggedCommand::Cancel {
                id: 9,
                at: Some(101.7),
            },
            LoggedCommand::Advance { to: 500 },
            LoggedCommand::Drain,
        ];
        for cmd in cases {
            let rendered = cmd.render();
            assert_eq!(
                LoggedCommand::parse(&rendered).as_ref(),
                Some(&cmd),
                "{rendered}"
            );
        }
        // The wall instant travels as the exact f64 bit pattern, not
        // decimal text that could round.
        assert_eq!(
            LoggedCommand::Cancel {
                id: 9,
                at: Some(101.7)
            }
            .render(),
            format!("cancel id=9 at=b{:016x}", 101.7_f64.to_bits())
        );
        assert_eq!(LoggedCommand::parse("submit id=1"), None);
        assert_eq!(LoggedCommand::parse("drain now"), None);
    }

    #[test]
    fn hello_inside_a_session_is_refused() {
        let mut session = ready_session();
        let err = line(&mut session, "hello psbench-serve/1");
        assert_eq!(err, "err hello already received");
    }

    #[test]
    fn full_session_flow() {
        let mut session = ready_session();
        assert_eq!(
            line(&mut session, "submit id=1 submit=0 runtime=100 procs=64"),
            "ok submit id=1 time=0"
        );
        assert_eq!(
            line(&mut session, "submit id=2 submit=10 runtime=50 procs=8"),
            "ok submit id=2 time=10"
        );
        // Job 2's arrival sits exactly on the released frontier, so it is
        // still pending until time moves past it.
        let job = line(&mut session, "query job 2");
        assert!(job.contains("state=pending"), "{job}");
        assert_eq!(line(&mut session, "advance to=20"), "ok advance now=10");
        let q = line(&mut session, "query queue");
        assert!(q.contains("running=1") && q.contains("queued=1"), "{q}");
        let job = line(&mut session, "query job 2");
        assert!(job.contains("state=queued"), "{job}");
        let what = line(&mut session, "whatif 2 under easy");
        assert!(
            what.starts_with("ok whatif id=2 scheduler=easy start=100"),
            "{what}"
        );
        // The probe did not perturb the live session.
        let job = line(&mut session, "query job 2");
        assert!(job.contains("state=queued"), "{job}");
        let Reply::Payload { head, body } = session.handle_line("trace") else {
            panic!("expected trace payload");
        };
        assert_eq!(payload_len(&head), Some(body.len()));
        let Reply::Payload { head, body } = session.handle_line("drain") else {
            panic!("expected drain payload");
        };
        assert_eq!(payload_len(&head), Some(body.len()));
        assert!(head.contains("finished=2"), "{head}");
        let decoded = psbench_store::decode_result(&String::from_utf8(body).unwrap()).unwrap();
        assert_eq!(decoded.finished.len(), 2);
        // After drain, mutation fails but trace and bye still work.
        let err = line(&mut session, "submit id=3 runtime=5 procs=1");
        assert!(
            err.starts_with("err submit: session already drained"),
            "{err}"
        );
        assert!(matches!(
            session.handle_line("trace"),
            Reply::Payload { .. }
        ));
        assert!(matches!(session.handle_line("bye"), Reply::Goodbye(_)));
    }

    #[test]
    fn whatif_unknown_scheduler_lists_the_zoo() {
        let mut session = ready_session();
        line(&mut session, "submit id=1 submit=0 runtime=100 procs=64");
        let err = line(&mut session, "whatif 1 under quantum");
        assert!(err.starts_with("err whatif: unknown scheduler"), "{err}");
        for name in psbench_sched::scheduler_names() {
            assert!(err.contains(name), "reply should list {name}");
        }
    }

    #[test]
    fn errors_leave_the_session_usable() {
        let mut session = ready_session();
        for bad in [
            "gibberish",
            "submit id=1 runtime=-4 procs=2",
            "submit id=1 runtime=4 procs=0",
            "cancel id=99",
            "whatif 1 under nope",
            "query job 42",
            "advance to=-5",
        ] {
            let reply = session.handle_line(bad);
            let Reply::Line(l) = reply else {
                panic!("expected err line for {bad:?}")
            };
            assert!(l.starts_with("err "), "{bad:?} -> {l}");
        }
        assert_eq!(
            line(&mut session, "submit id=1 submit=5 runtime=10 procs=2"),
            "ok submit id=1 time=5"
        );
    }

    #[test]
    fn seq_makes_mutations_idempotent() {
        let mut session = ready_session();
        let first = line(
            &mut session,
            "submit id=1 submit=0 runtime=10 procs=4 seq=1",
        );
        assert_eq!(first, "ok submit id=1 time=0");
        assert_eq!(session.last_seq(), 1);
        // Re-sending the same seq replays the cached reply without applying:
        // no "already submitted" error, no duplicate job.
        let replayed = line(
            &mut session,
            "submit id=1 submit=0 runtime=10 procs=4 seq=1",
        );
        assert_eq!(replayed, first);
        let job = line(&mut session, "query job 1");
        assert!(job.contains("state=pending"), "{job}");
        // A smaller seq is stale; seq 0 is invalid.
        let stale = line(&mut session, "advance to=5 seq=0");
        assert!(stale.starts_with("err seq must be >= 1"), "{stale}");
        line(&mut session, "advance to=5 seq=7"); // gaps are allowed
        assert_eq!(session.last_seq(), 7);
        let stale = line(&mut session, "advance to=9 seq=3");
        assert!(
            stale.starts_with("err stale seq 3; session already at seq 7"),
            "{stale}"
        );
        // Validation failures consume no seq.
        let bad = line(&mut session, "submit id=2 runtime=-1 procs=1 seq=9");
        assert!(bad.starts_with("err submit:"), "{bad}");
        assert_eq!(session.last_seq(), 7);
    }

    #[test]
    fn journaled_session_recovers_bit_identically() {
        let dir = temp_dir("recover");
        let path = dir.join("night.journal");
        // Uninterrupted twin for the oracle.
        let mut twin = ready_session();
        // The journaled session: killed (dropped) after three commands.
        {
            let mut session = Session::create(
                &afap_config(),
                "night".into(),
                Some((&path, FsyncPolicy::Always)),
            )
            .unwrap();
            for cmd in [
                "submit id=1 submit=0 runtime=100 procs=64",
                "submit id=2 submit=10 runtime=50 procs=8 estimate=80 user=3",
                "advance to=200",
            ] {
                let a = session.handle_line(cmd);
                let b = twin.handle_line(cmd);
                assert_eq!(a, b, "{cmd}");
            }
            // Dropped here without drain: the crash.
        }
        let mut recovered = Session::recover(&path, FsyncPolicy::Always, None).unwrap();
        assert_eq!(recovered.name(), "night");
        assert_eq!(recovered.last_seq(), 3);
        // Both sessions continue and drain to byte-identical results.
        for cmd in ["submit id=3 submit=250 runtime=5 procs=1", "drain"] {
            let a = recovered.handle_line(cmd);
            let b = twin.handle_line(cmd);
            assert_eq!(a, b, "{cmd}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_truncates_a_torn_tail_and_replays_the_rest() {
        let dir = temp_dir("torn");
        let path = dir.join("s.journal");
        {
            let mut session = Session::create(
                &afap_config(),
                "s".into(),
                Some((&path, FsyncPolicy::Always)),
            )
            .unwrap();
            line(&mut session, "submit id=1 submit=0 runtime=10 procs=4");
            line(&mut session, "advance to=50");
        }
        // Simulate a torn append: garbage bytes at the physical tail.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"c 3 deadbeef adva").unwrap();
        drop(f);
        let mut recovered = Session::recover(&path, FsyncPolicy::Always, None).unwrap();
        assert_eq!(recovered.last_seq(), 2);
        // The torn bytes are physically gone; the next append lands clean
        // and a second recovery still works.
        line(&mut recovered, "submit id=2 submit=60 runtime=5 procs=1");
        drop(recovered);
        let recovered = Session::recover(&path, FsyncPolicy::Always, None).unwrap();
        assert_eq!(recovered.last_seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_rejects_mid_file_corruption() {
        let dir = temp_dir("midfile");
        let path = dir.join("s.journal");
        std::fs::write(
            &path,
            format!(
                "open proto=1 scheduler=fcfs machine=8 mode=afap\n\
                 corrupted line\n\
                 {}\n",
                frame_record(1, "advance to=10")
            ),
        )
        .unwrap();
        let err = match Session::recover(&path, FsyncPolicy::Always, None) {
            Err(e) => e,
            Ok(_) => panic!("mid-file corruption must refuse recovery"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drain_payload_is_the_stored_result_artifact() {
        let dir = temp_dir("drainstore");
        let config = ShardConfig {
            store_dir: Some(dir.join("store")),
            ..afap_config()
        };
        let mut session = Session::create(&config, "d".into(), None).unwrap();
        line(&mut session, "submit id=1 submit=0 runtime=100 procs=48");
        line(&mut session, "submit id=2 submit=5 runtime=30 procs=32");
        let Reply::Payload { head, body } = session.handle_line("drain") else {
            panic!("expected drain payload");
        };
        let key = head
            .split(' ')
            .find_map(|t| t.strip_prefix("stored="))
            .and_then(psbench_store::parse_key_hex)
            .unwrap_or_else(|| panic!("drain reply names no stored key: {head}"));
        let store = psbench_store::ArtifactStore::open(dir.join("store")).unwrap();
        let stored = std::fs::read(store.path(psbench_store::ArtifactKind::Result, key)).unwrap();
        assert_eq!(
            body, stored,
            "drain payload differs from its stored artifact"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_processor_machine_is_refused() {
        let config = ShardConfig {
            machine: 0,
            ..afap_config()
        };
        assert!(Session::create(&config, "z".into(), None).is_err());
        let dir = temp_dir("machine0");
        let path = dir.join("z.journal");
        std::fs::write(&path, "open proto=1 scheduler=fcfs machine=0 mode=afap\n").unwrap();
        let err = match Session::recover(&path, FsyncPolicy::Always, None) {
            Err(e) => e,
            Ok(_) => panic!("a 0-processor journal must refuse recovery"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_replays_the_cached_reply_for_the_last_seq() {
        let dir = temp_dir("cachedreply");
        let path = dir.join("s.journal");
        let reply_live;
        {
            let mut session = Session::create(
                &afap_config(),
                "s".into(),
                Some((&path, FsyncPolicy::Always)),
            )
            .unwrap();
            reply_live = line(
                &mut session,
                "submit id=1 submit=0 runtime=10 procs=4 seq=5",
            );
        }
        // The client never saw the reply and re-sends seq=5 after recovery:
        // it gets the identical reply, and the job is not duplicated.
        let mut recovered = Session::recover(&path, FsyncPolicy::Always, None).unwrap();
        let replayed = line(
            &mut recovered,
            "submit id=1 submit=0 runtime=10 procs=4 seq=5",
        );
        assert_eq!(replayed, reply_live);
        let job = line(&mut recovered, "query job 1");
        assert!(job.contains("state=pending"), "{job}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovered_reply_of_each_last_record_kind_matches_the_live_reply() {
        // Recovery renders only the last record's reply. For each kind of
        // record, and for one the shard rejects, a session recovered with
        // that record last answers its resubmitted seq with exactly the
        // bytes the live session sent.
        let prefix = [
            "submit id=1 submit=0 runtime=10 procs=4 seq=1",
            "submit id=2 submit=5 runtime=20 procs=64 seq=2",
        ];
        let lasts = [
            "submit id=3 submit=7 runtime=30 procs=8 seq=3",
            "cancel id=2 seq=3",
            "advance to=12 seq=3",
            "drain seq=3",
            "cancel id=99 seq=3",
        ];
        for (k, last) in lasts.into_iter().enumerate() {
            let dir = temp_dir(&format!("lastreply{k}"));
            let path = dir.join("s.journal");
            let live = {
                let mut session = Session::create(
                    &afap_config(),
                    "s".into(),
                    Some((&path, FsyncPolicy::Always)),
                )
                .unwrap();
                for cmd in prefix {
                    line(&mut session, cmd);
                }
                session.handle_line(last)
            };
            if last.starts_with("cancel id=99") {
                assert_eq!(live, Reply::err("cancel: unknown job 99"));
            }
            let mut recovered = Session::recover(&path, FsyncPolicy::Always, None).unwrap();
            assert_eq!(recovered.last_seq(), 3, "{last}");
            assert_eq!(recovered.handle_line(last), live, "{last}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
