//! Protocol robustness: torn frames, oversized lines, garbage, and dropped
//! connections must produce clean errors (or clean closes) and must never
//! wedge the shared shard pool for other sessions.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use psbench_serve::{serve, ClockMode, ServeConfig, ServerHandle, MAX_LINE_BYTES};

fn test_server(max_sessions: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            scheduler: "fcfs".into(),
            machine: 64,
            mode: ClockMode::Afap,
            max_sessions,
            ..ServeConfig::default()
        },
    )
    .expect("bind test server")
}

struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(server: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn {
            writer: stream,
            reader,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write line");
        self.writer.flush().expect("flush");
    }

    /// Read one reply line; None at EOF.
    fn recv(&mut self) -> Option<String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(_) => None,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv().expect("reply")
    }
}

/// A full hello/submit/drain cycle works — used to prove the pool is healthy
/// after each abuse scenario.
fn healthy_session(server: &ServerHandle) {
    let mut conn = Conn::open(server);
    assert!(conn
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    assert!(conn
        .roundtrip("submit id=1 submit=0 runtime=10 procs=4")
        .starts_with("ok submit"));
    assert!(conn.roundtrip("drain").starts_with("ok drain"));
    // Drain carries a payload; draining the socket is unnecessary here — we
    // close it instead, which the server must also tolerate.
}

#[test]
fn garbage_and_unknown_commands_get_err_replies() {
    let server = test_server(16);
    let mut conn = Conn::open(&server);
    // Before hello: anything but hello/bye is refused but not fatal.
    assert!(conn
        .roundtrip("submit id=1 runtime=5 procs=1")
        .starts_with("err "));
    assert!(conn.roundtrip("%%% total garbage %%%").starts_with("err "));
    // Invalid UTF-8 is replied to, not crashed on.
    conn.writer.write_all(b"\xff\xfe garbage\n").unwrap();
    conn.writer.flush().unwrap();
    assert!(conn.recv().expect("reply to bad utf8").starts_with("err "));
    // The session recovers completely.
    assert!(conn
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    assert!(conn
        .roundtrip("no-such-verb")
        .starts_with("err unknown command"));
    assert!(conn
        .roundtrip("submit id=1 submit=0 runtime=5 procs=1")
        .starts_with("ok submit"));
    healthy_session(&server);
    server.stop();
}

#[test]
fn oversized_line_closes_only_the_offending_connection() {
    let server = test_server(16);
    let mut conn = Conn::open(&server);
    assert!(conn
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    let huge = format!(
        "submit id=1 runtime=5 procs=1 {}",
        "x".repeat(MAX_LINE_BYTES)
    );
    conn.send(&huge);
    let reply = conn.recv().expect("oversize error reply");
    assert!(reply.starts_with("err line exceeds"), "{reply}");
    assert_eq!(conn.recv(), None, "connection should be closed");
    // Other sessions are unaffected.
    healthy_session(&server);
    server.stop();
}

#[test]
fn torn_frames_and_dropped_connections_do_not_poison_the_pool() {
    let server = test_server(16);
    // A client that sends a partial line and vanishes.
    {
        let mut conn = Conn::open(&server);
        conn.writer.write_all(b"submit id=1 runt").unwrap();
        conn.writer.flush().unwrap();
        // Dropped here without a newline: the server sees a torn frame.
    }
    // A client that completes the handshake, submits, then vanishes mid-session.
    {
        let mut conn = Conn::open(&server);
        assert!(conn
            .roundtrip("hello psbench-serve/1")
            .starts_with("ok hello"));
        assert!(conn
            .roundtrip("submit id=1 submit=0 runtime=1000 procs=64")
            .starts_with("ok submit"));
    }
    // The pool serves new sessions as if nothing happened.
    healthy_session(&server);
    healthy_session(&server);
    server.stop();
}

#[test]
fn session_capacity_is_enforced_and_slots_are_reclaimed() {
    let server = test_server(2);
    let mut first = Conn::open(&server);
    let mut second = Conn::open(&server);
    assert!(first
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    assert!(second
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    // A third hello is turned away with a retryable busy error; the
    // connection itself stays open so the client can just try again.
    let mut third = Conn::open(&server);
    let reply = third.roundtrip("hello psbench-serve/1");
    assert!(reply.starts_with("err busy retry-after="), "{reply}");
    assert!(reply.contains("session capacity (2)"), "{reply}");
    // Saying goodbye frees a slot (detach races the close, so poll) — and
    // the refused connection is still usable for the retry.
    assert_eq!(first.roundtrip("bye"), "ok bye");
    drop(first);
    let mut admitted = false;
    for _ in 0..50 {
        let reply = third.roundtrip("hello psbench-serve/1");
        if reply.starts_with("ok hello") {
            admitted = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(admitted, "slot should be reclaimed after disconnect");
    server.stop();
}

#[test]
fn idle_connections_are_timed_out_but_stay_resumable() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            scheduler: "fcfs".into(),
            machine: 64,
            mode: ClockMode::Afap,
            max_sessions: 2,
            idle_timeout: Some(Duration::from_millis(150)),
            ..ServeConfig::default()
        },
    )
    .expect("bind test server");
    let mut conn = Conn::open(&server);
    let hello = conn.roundtrip("hello psbench-serve/1 session=wedged");
    assert!(hello.starts_with("ok hello"), "{hello}");
    assert!(conn
        .roundtrip("submit id=1 submit=0 runtime=10 procs=4")
        .starts_with("ok submit"));
    // Go silent. The server times the read out, closes the connection, and
    // frees the slot — a wedged client cannot hold it forever.
    let reply = conn.recv().expect("timeout notice before close");
    assert_eq!(reply, "err idle timeout");
    assert_eq!(conn.recv(), None, "connection should be closed");
    // The session detached: re-attaching resumes it with its state intact.
    let mut back = Conn::open(&server);
    let hello = back.roundtrip("hello psbench-serve/1 session=wedged");
    assert!(
        hello.contains("session=wedged seq=1 resumed=true"),
        "{hello}"
    );
    let job = back.roundtrip("query job 1");
    assert!(job.starts_with("ok job id=1"), "{job}");
    server.stop();
}

#[test]
fn named_sessions_survive_disconnects_in_memory() {
    let server = test_server(4);
    {
        let mut conn = Conn::open(&server);
        let hello = conn.roundtrip("hello psbench-serve/1 session=night");
        assert!(
            hello.contains("session=night seq=0 resumed=false"),
            "{hello}"
        );
        assert!(conn
            .roundtrip("submit id=1 submit=0 runtime=100 procs=8 seq=1")
            .starts_with("ok submit"));
        assert!(conn
            .roundtrip("advance to=50 seq=2")
            .starts_with("ok advance"));
        // Connection dropped without drain or bye. The server detaches the
        // session before it closes its end, so wait for that close: a
        // reconnect racing the detach would find the name still attached.
        conn.writer.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(conn.recv(), None, "server should close the connection");
    }
    // While detached, a different client cannot steal the name twice…
    let mut a = Conn::open(&server);
    let hello = a.roundtrip("hello psbench-serve/1 session=night");
    assert!(hello.contains("seq=2 resumed=true"), "{hello}");
    let mut b = Conn::open(&server);
    let stolen = b.roundtrip("hello psbench-serve/1 session=night");
    assert!(
        stolen.starts_with("err session night is already attached"),
        "{stolen}"
    );
    // …and the resumed session still has its engine state.
    let q = a.roundtrip("query queue");
    assert!(q.contains("running=1"), "{q}");
    assert!(a.roundtrip("drain").starts_with("ok drain"));
    server.stop();
}

#[test]
fn busy_servers_are_retried_by_the_client() {
    let server = test_server(1);
    // Occupy the only slot, then release it shortly after.
    let mut holder = Conn::open(&server);
    assert!(holder
        .roundtrip("hello psbench-serve/1")
        .starts_with("ok hello"));
    let addr = server.addr();
    let release = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(holder.roundtrip("bye"), "ok bye");
        drop(holder);
    });
    // retry-after=1 forces at least one full second of backoff.
    let script = [
        "hello psbench-serve/1",
        "submit id=1 submit=0 runtime=5 procs=1",
        "drain",
        "bye",
    ];
    let transcript =
        psbench_serve::run_script_with(addr, &script, psbench_serve::RetryPolicy::quick(5))
            .expect("script with retries");
    release.join().unwrap();
    assert!(
        transcript.replies[0].starts_with("ok hello"),
        "retries should eventually attach: {:?}",
        transcript.replies
    );
    assert!(!transcript.has_errors(), "{:?}", transcript.replies);
    server.stop();
}

#[test]
fn errors_never_abort_a_scripted_run() {
    let server = test_server(16);
    let script = [
        "hello psbench-serve/1",
        "submit id=1 submit=0 runtime=100 procs=64",
        "submit id=1 submit=5 runtime=10 procs=1", // duplicate id -> err
        "whatif 1 under no-such-policy",           // unknown policy -> err
        "query job 999",                           // unknown job -> err
        "submit id=2 submit=5 runtime=10 procs=1", // still works
        "drain",
        "bye",
    ];
    let transcript = psbench_serve::run_script(server.addr(), &script).expect("script runs");
    assert_eq!(transcript.replies.len(), script.len());
    assert!(transcript.has_errors());
    assert!(transcript.replies[5].starts_with("ok submit id=2"));
    assert!(transcript.replies[6].starts_with("ok drain"));
    assert!(transcript.payload("drain").is_some());
    server.stop();
}
