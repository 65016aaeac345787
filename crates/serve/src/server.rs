//! The TCP server: listener, named session pool, per-connection threads.
//!
//! Concurrency model: plain `std::net` blocking I/O, one thread per
//! connection, with a shared session pool guarded by one `parking_lot`
//! mutex. Each connection *attaches* to a named slot holding an
//! `Arc<Mutex<Session>>`; the pool lock is only taken to attach, detach, and
//! evict, so sessions never contend with each other on the hot path.
//! `parking_lot` mutexes do not poison, so a panicking connection thread can
//! never wedge the pool for everyone else.
//!
//! # Session life cycle
//!
//! `hello` attaches: to a fresh session (server-generated name), to a named
//! session the client chooses, or — after a disconnect or even a server
//! crash, when `state_dir` journaling is on — back to an existing one. A
//! disconnect without `drain` merely *detaches*: the slot stays resumable
//! until the idle timeout evicts it (journaled sessions remain recoverable
//! from disk afterwards; unjournaled ones are gone). A drained session's
//! slot and journal are removed at detach.
//!
//! At startup the server scans `<state_dir>/sessions/*.journal` and rebuilds
//! every session by deterministic replay. A journal that fails recovery
//! poisons its name (attaching reports the error) instead of crashing the
//! server; the file is left in place for inspection.
//!
//! Each pooled name is in exactly one `Slot` state — attached, detached
//! since an instant, or poisoned — matched rather than inferred from flags.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use psbench_store::FsyncPolicy;

use crate::clock::ClockMode;
use crate::protocol::{
    parse_command, write_line, Command, Reply, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::session::Session;
use crate::shard::ShardConfig;

/// Server-wide configuration; every *new* session inherits it (recovered
/// sessions take scheduler/machine/mode from their own journal).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Registry name of the live policy for every new session.
    pub scheduler: String,
    /// Machine size in processors for every new session.
    pub machine: u32,
    /// Clock mode for every new session.
    pub mode: ClockMode,
    /// Artifact store root drained sessions are published into, if any.
    pub store_dir: Option<PathBuf>,
    /// Maximum number of concurrently *attached* sessions.
    pub max_sessions: usize,
    /// Directory for crash-safe state. When set, every session is
    /// write-ahead journaled under `<state_dir>/sessions/<name>.journal`
    /// and survives a crash of the serving process.
    pub state_dir: Option<PathBuf>,
    /// Fsync policy for session journals.
    pub fsync: FsyncPolicy,
    /// How long an idle connection may sit between requests, and how long a
    /// detached session stays resumable in memory. `None` disables both.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            scheduler: "fcfs".into(),
            machine: 128,
            mode: ClockMode::Afap,
            store_dir: None,
            max_sessions: 256,
            state_dir: None,
            fsync: FsyncPolicy::Always,
            idle_timeout: Some(Duration::from_secs(300)),
        }
    }
}

/// Journal path for session `name` under `state_dir`.
fn journal_path(state_dir: &Path, name: &str) -> PathBuf {
    state_dir.join("sessions").join(format!("{name}.journal"))
}

/// The state of one pooled session name.
enum Slot {
    /// A connection is attached to the session.
    Attached(Arc<Mutex<Session>>),
    /// No connection since the instant; resumable until the idle timeout
    /// evicts it.
    Detached(Arc<Mutex<Session>>, Instant),
    /// The name's journal failed recovery with this error. Attaching reports
    /// it, the journal file stays on disk, and the name is never evicted or
    /// generated.
    Poisoned(String),
}

/// A successful attach: the session plus what the hello reply reports.
struct Attached {
    name: String,
    session: Arc<Mutex<Session>>,
    resumed: bool,
}

/// The shared session pool.
struct SessionPool {
    config: ServeConfig,
    /// Every known session name's state, under the pool's one lock.
    slots: Mutex<HashMap<String, Slot>>,
    /// The number behind the last generated name (`s1`, `s2`, …); only
    /// advanced under the `slots` lock.
    last_id: AtomicU64,
}

impl SessionPool {
    fn new(config: ServeConfig) -> SessionPool {
        SessionPool {
            config,
            slots: Mutex::new(HashMap::new()),
            last_id: AtomicU64::new(0),
        }
    }

    /// Number of pooled names in the state `is`.
    fn count(&self, is: fn(&Slot) -> bool) -> usize {
        self.slots.lock().values().filter(|s| is(s)).count()
    }

    /// Drop detached slots that have sat idle past the timeout. Journaled
    /// sessions remain recoverable from disk; unjournaled ones are gone.
    fn evict_idle(slots: &mut HashMap<String, Slot>, idle_timeout: Option<Duration>) {
        let Some(timeout) = idle_timeout else { return };
        slots.retain(|_, slot| !matches!(slot, Slot::Detached(_, at) if at.elapsed() >= timeout));
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            scheduler: self.config.scheduler.clone(),
            machine: self.config.machine,
            mode: self.config.mode,
            store_dir: self.config.store_dir.clone(),
        }
    }

    /// Attach to `requested` (or a fresh server-named session). On success
    /// the slot is marked attached; the caller must `detach` when done.
    fn attach(&self, requested: Option<String>) -> Result<Attached, String> {
        let mut slots = self.slots.lock();
        Self::evict_idle(&mut slots, self.config.idle_timeout);
        let live = slots
            .values()
            .filter(|s| matches!(s, Slot::Attached(_)))
            .count();
        let name = match requested {
            Some(name) => {
                if let Some(slot) = slots.get_mut(&name) {
                    let session = match slot {
                        Slot::Poisoned(msg) => {
                            return Err(format!("session {name} failed recovery: {msg}"))
                        }
                        Slot::Attached(_) => {
                            return Err(format!("session {name} is already attached"))
                        }
                        Slot::Detached(session, _) => session.clone(),
                    };
                    if live >= self.config.max_sessions {
                        return Err(self.busy());
                    }
                    *slot = Slot::Attached(session.clone());
                    return Ok(Attached {
                        name,
                        session,
                        resumed: true,
                    });
                }
                name
            }
            None => self.generate_name(&slots),
        };
        if live >= self.config.max_sessions {
            return Err(self.busy());
        }
        // Not pooled: recover it from disk if a journal exists, else create.
        let on_disk = self
            .config
            .state_dir
            .as_ref()
            .map(|dir| journal_path(dir, &name));
        let (session, resumed) = match &on_disk {
            Some(path) if path.exists() => {
                match Session::recover(path, self.config.fsync, self.config.store_dir.clone()) {
                    Ok(session) => (session, true),
                    Err(e) => {
                        slots.insert(name.clone(), Slot::Poisoned(e.to_string()));
                        return Err(format!("session {name} failed recovery: {e}"));
                    }
                }
            }
            _ => {
                let journal = on_disk.as_deref().map(|path| (path, self.config.fsync));
                (
                    Session::create(&self.shard_config(), name.clone(), journal)?,
                    false,
                )
            }
        };
        let session = Arc::new(Mutex::new(session));
        slots.insert(name.clone(), Slot::Attached(session.clone()));
        Ok(Attached {
            name,
            session,
            resumed,
        })
    }

    fn busy(&self) -> String {
        format!(
            "busy retry-after=1 server at session capacity ({})",
            self.config.max_sessions
        )
    }

    /// Generate a fresh session name, skipping pooled names (poisoned ones
    /// included) and journals already on disk. Called under the `slots` lock.
    fn generate_name(&self, slots: &HashMap<String, Slot>) -> String {
        loop {
            let name = format!("s{}", self.last_id.fetch_add(1, Ordering::Relaxed) + 1);
            let on_disk = self
                .config
                .state_dir
                .as_ref()
                .is_some_and(|dir| journal_path(dir, &name).exists());
            if !slots.contains_key(&name) && !on_disk {
                return name;
            }
        }
    }

    /// Detach `name`. A drained session's slot is removed and its journal
    /// deleted; anything else stays resumable until evicted.
    fn detach(&self, name: &str) {
        let mut slots = self.slots.lock();
        let Some(slot) = slots.get_mut(name) else {
            return;
        };
        let Slot::Attached(session) = slot else {
            return;
        };
        let session = session.clone();
        if !session.lock().drained() {
            *slot = Slot::Detached(session, Instant::now());
            return;
        }
        let journal = session.lock().journal_path().map(Path::to_path_buf);
        slots.remove(name);
        if let Some(path) = journal {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Fsync every pooled session's journal (used at SIGTERM and by tests
    /// running with `fsync: off`).
    fn checkpoint(&self) -> std::io::Result<usize> {
        let slots = self.slots.lock();
        let mut synced = 0;
        for slot in slots.values() {
            if let Slot::Attached(session) | Slot::Detached(session, _) = slot {
                session.lock().sync_journal()?;
                synced += 1;
            }
        }
        Ok(synced)
    }

    /// Recover every journal under `state_dir` into detached slots.
    fn recover_state_dir(&self) -> std::io::Result<()> {
        let Some(state_dir) = &self.config.state_dir else {
            return Ok(());
        };
        let dir = state_dir.join("sessions");
        std::fs::create_dir_all(&dir)?;
        let mut slots = self.slots.lock();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("journal") {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                continue;
            };
            let slot =
                match Session::recover(&path, self.config.fsync, self.config.store_dir.clone()) {
                    Ok(session) => Slot::Detached(Arc::new(Mutex::new(session)), Instant::now()),
                    Err(e) => Slot::Poisoned(e.to_string()),
                };
            slots.insert(name, slot);
        }
        Ok(())
    }
}

/// Handle to a running server. Dropping it stops the listener.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<SessionPool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently attached sessions.
    pub fn active_sessions(&self) -> usize {
        self.pool.count(|s| matches!(s, Slot::Attached(_)))
    }

    /// Number of session names whose journal failed recovery.
    pub fn poisoned_sessions(&self) -> usize {
        self.pool.count(|s| matches!(s, Slot::Poisoned(_)))
    }

    /// Fsync every live session journal to disk. Returns how many journals
    /// were synced. With `fsync: always` (the default) this is a no-op
    /// safety net; with `fsync: off` it is the durability point — call it
    /// before a planned shutdown.
    pub fn checkpoint(&self) -> std::io::Result<usize> {
        self.pool.checkpoint()
    }

    /// Stop accepting connections and join the accept thread. Connections
    /// already being served keep running on their own threads until their
    /// clients disconnect.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Bind `addr` and start serving. When `state_dir` is configured, every
/// existing session journal is recovered (by deterministic replay) before
/// the listener accepts its first connection. Returns once the listener is
/// live; the accept loop and all connection handling run on background
/// threads.
pub fn serve(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(SessionPool::new(config));
    pool.recover_state_dir()?;
    let accept_stop = stop.clone();
    let accept_pool = pool.clone();
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let pool = accept_pool.clone();
            std::thread::spawn(move || handle_connection(stream, pool));
        }
    });
    Ok(ServerHandle {
        addr,
        stop,
        pool,
        accept_thread: Some(accept_thread),
    })
}

/// Outcome of reading one request line.
enum LineRead {
    /// A complete line (terminator stripped).
    Line(String),
    /// End of stream. A torn frame (bytes without a final newline) lands
    /// here too: there is no complete request to answer, so the connection
    /// just ends.
    Eof,
    /// The line exceeded [`MAX_LINE_BYTES`] before a newline appeared.
    TooLong,
    /// The read timed out: the client sat idle past the configured timeout.
    Idle,
}

/// Read one `\n`-terminated line without ever buffering more than the cap.
fn read_line_capped(reader: &mut impl BufRead) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(LineRead::Idle)
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(LineRead::Eof);
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.len() > MAX_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineRead::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            None => {
                let n = buf.len();
                line.extend_from_slice(buf);
                reader.consume(n);
                if line.len() > MAX_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

/// Serve one connection until the client leaves (or misbehaves fatally).
fn handle_connection(stream: TcpStream, pool: Arc<SessionPool>) {
    // The protocol is lockstep request/reply: without TCP_NODELAY, Nagle's
    // algorithm adds a delayed-ACK round trip to every exchange.
    let _ = stream.set_nodelay(true);
    // A wedged or vanished client cannot hold its slot forever: reads time
    // out after the idle timeout and the session detaches (still resumable).
    let _ = stream.set_read_timeout(pool.config.idle_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    converse(BufReader::new(read_half), stream, &pool);
}

/// Answer one connection's request lines. Every reply goes out through
/// [`write_reply`], so each reply line leaves in one `write`.
fn converse(mut reader: impl BufRead, mut writer: impl Write, pool: &SessionPool) {
    // Handshake loop: the server owns hello. Errors (unknown commands, a
    // pool at capacity) leave the connection usable so the client can retry
    // the hello without reconnecting.
    let attached = loop {
        let line = match read_line_capped(&mut reader) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::TooLong) => {
                let _ = write_reply(&mut writer, too_long());
                return;
            }
            Ok(LineRead::Idle) => {
                let _ = write_reply(&mut writer, idle());
                return;
            }
            Ok(LineRead::Eof) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let reply = match parse_command(&line) {
            Err(msg) => format!("err {msg}"),
            Ok(Command::Hello { version, session }) if version == PROTOCOL_VERSION => {
                match pool.attach(session) {
                    Ok(attached) => break attached,
                    Err(msg) => format!("err {msg}"),
                }
            }
            Ok(Command::Hello { version, .. }) => format!(
                "err unsupported protocol version {version}; \
                 this server speaks {PROTOCOL_VERSION}"
            ),
            Ok(Command::Bye) => {
                let _ = write_reply(&mut writer, Reply::Goodbye("ok bye".into()));
                return;
            }
            Ok(_) => "err expected: hello psbench-serve/1".into(),
        };
        if write_reply(&mut writer, Reply::Line(reply)).is_err() {
            return;
        }
    };
    let hello = {
        let session = attached.session.lock();
        let shard = session.shard();
        let drained = if session.drained() { " drained" } else { "" };
        format!(
            "ok hello proto={PROTOCOL_VERSION} scheduler={} machine={} mode={} \
             session={} seq={} resumed={}{drained}",
            shard.scheduler_name(),
            shard.machine(),
            shard.mode(),
            attached.name,
            session.last_seq(),
            attached.resumed,
        )
    };
    if write_reply(&mut writer, Reply::Line(hello)).is_err() {
        pool.detach(&attached.name);
        return;
    }
    loop {
        let reply = match read_line_capped(&mut reader) {
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                attached.session.lock().handle_line(&line)
            }
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                let _ = write_reply(&mut writer, too_long());
                break;
            }
            Ok(LineRead::Idle) => {
                let _ = write_reply(&mut writer, idle());
                break;
            }
            Err(_) => break,
        };
        let closing = matches!(reply, Reply::Goodbye(_));
        if write_reply(&mut writer, reply).is_err() || closing {
            break;
        }
    }
    pool.detach(&attached.name);
}

fn too_long() -> Reply {
    Reply::Line(format!("err line exceeds {MAX_LINE_BYTES} bytes"))
}

fn idle() -> Reply {
    Reply::Line("err idle timeout".into())
}

/// Send one reply and flush: the line leaves in one `write`, and a
/// payload's body in one more.
fn write_reply(writer: &mut impl Write, reply: Reply) -> std::io::Result<()> {
    match reply {
        Reply::Line(line) | Reply::Goodbye(line) => write_line(writer, &line)?,
        Reply::Payload { head, body } => {
            write_line(writer, &head)?;
            writer.write_all(&body)?;
        }
    }
    writer.flush()
}

/// Read one reply line plus its byte-framed payload (if the head announces
/// one) from a server stream. Shared by [`crate::client`] and tests.
pub fn read_reply(reader: &mut impl BufRead) -> std::io::Result<Option<(String, Option<Vec<u8>>)>> {
    let mut head = String::new();
    if reader.read_line(&mut head)? == 0 {
        return Ok(None);
    }
    let head = head.trim_end_matches(['\n', '\r']).to_string();
    let body = match crate::protocol::payload_len(&head) {
        None => None,
        Some(len) => {
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body)?;
            Some(body)
        }
    };
    Ok(Some((head, body)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{payload_len, WriteCalls};
    use std::io::Cursor;

    /// Run `requests` through one connection and return its `write` calls.
    fn writes_for(requests: &[u8]) -> Vec<Vec<u8>> {
        let pool = SessionPool::new(ServeConfig {
            machine: 64,
            ..ServeConfig::default()
        });
        let mut calls = WriteCalls::default();
        converse(Cursor::new(requests), &mut calls, &pool);
        calls.0
    }

    /// Each write is one whole reply line, or the payload body the line
    /// before it announced. Returns the reply lines.
    fn reply_lines(writes: &[Vec<u8>]) -> Vec<String> {
        let mut lines = Vec::new();
        let mut body = None;
        for write in writes {
            if let Some(len) = body.take() {
                assert_eq!(write.len(), len, "payload body in one write");
                continue;
            }
            let text = String::from_utf8(write.clone()).unwrap();
            let line = text.strip_suffix('\n').expect("a whole line");
            assert!(!line.contains('\n'), "one line per write: {text:?}");
            body = payload_len(line);
            lines.push(line.to_string());
        }
        lines
    }

    #[test]
    fn every_reply_line_leaves_in_one_write() {
        let writes = writes_for(
            b"nonsense\nhello psbench-serve/1\nsubmit id=1 runtime=10 procs=4\n\
              whatif 1 under easy\nquery queue\ntrace\ndrain\nbye\n",
        );
        let lines = reply_lines(&writes);
        let verbs: Vec<&str> = lines
            .iter()
            .map(|l| l.split_whitespace().take(2).last().unwrap())
            .collect();
        assert_eq!(
            verbs,
            ["unknown", "hello", "submit", "whatif", "queue", "trace", "drain", "bye"],
            "{lines:?}"
        );
        // Eight replies, two of them with payloads.
        assert_eq!(writes.len(), 10);
    }

    #[test]
    fn handshake_bye_and_oversized_lines_leave_in_one_write() {
        assert_eq!(writes_for(b"bye\n"), [b"ok bye\n".to_vec()]);
        let mut oversized = vec![b'x'; MAX_LINE_BYTES + 1];
        oversized.push(b'\n');
        let too_long = format!("err line exceeds {MAX_LINE_BYTES} bytes");
        // Before the hello, and inside a session.
        assert_eq!(reply_lines(&writes_for(&oversized)), [too_long.as_str()]);
        let attached = [b"hello psbench-serve/1\n".as_slice(), &oversized].concat();
        let lines = reply_lines(&writes_for(&attached));
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[1], too_long);
    }

    #[test]
    fn a_poisoned_name_is_never_generated_nor_evicted() {
        let pool = SessionPool::new(ServeConfig {
            machine: 64,
            idle_timeout: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        let poison = Slot::Poisoned("bad journal".into());
        pool.slots.lock().insert("s1".into(), poison);
        let fresh = pool.attach(None).unwrap();
        assert_eq!(fresh.name, "s2", "s1 is poisoned");
        pool.detach(&fresh.name);
        // Each attach evicts what has idled past the (zero) timeout: the
        // detached s2 goes, the poisoned s1 stays and still reports its error.
        let again = pool.attach(None).unwrap();
        assert_eq!(again.name, "s3");
        assert!(!pool.slots.lock().contains_key("s2"), "detached s2 evicted");
        let err = pool.attach(Some("s1".into())).err().unwrap();
        assert_eq!(err, "session s1 failed recovery: bad journal");
        assert_eq!(pool.count(|s| matches!(s, Slot::Poisoned(_))), 1);
        assert_eq!(pool.count(|s| matches!(s, Slot::Attached(_))), 1);
    }

    #[test]
    fn capped_reader_handles_exact_and_oversized_lines() {
        let mut ok = Cursor::new(b"hello world\r\nrest".to_vec());
        let LineRead::Line(line) = read_line_capped(&mut BufReader::new(&mut ok)).unwrap() else {
            panic!("expected line");
        };
        assert_eq!(line, "hello world");

        let oversized = vec![b'x'; MAX_LINE_BYTES + 10];
        let mut reader = BufReader::new(Cursor::new(oversized));
        assert!(matches!(
            read_line_capped(&mut reader).unwrap(),
            LineRead::TooLong
        ));

        let torn = b"no newline here".to_vec();
        let mut reader = BufReader::new(Cursor::new(torn));
        assert!(matches!(
            read_line_capped(&mut reader).unwrap(),
            LineRead::Eof
        ));
    }
}
