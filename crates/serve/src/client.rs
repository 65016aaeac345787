//! A lockstep script client for the serve protocol.
//!
//! The client writes one command line, waits for its reply (plus any
//! byte-framed payload), records both, and moves on. Scripts are plain text:
//! one protocol line per line, with blank lines and `#` comments ignored.
//! This is the driver behind `psbench client` and the CI replay check.
//!
//! [`run_script_with`] adds graceful degradation: connect failures and
//! `err busy retry-after=<secs>` hello replies are retried with exponential
//! backoff (honoring the server's hint), so a briefly saturated or
//! restarting server looks like latency, not an error. Combined with `seq=`
//! numbers on mutating commands (see [`crate::protocol::Command::seq`]),
//! scripts can be re-run against a recovered session without double-applying
//! anything.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::write_line;
use crate::server::read_reply;

/// A payload captured during a script run.
#[derive(Debug, Clone, PartialEq)]
pub struct CapturedPayload {
    /// The command line that elicited the payload (e.g. `trace`, `drain`).
    pub command: String,
    /// The reply head line (`ok trace bytes=… records=…`).
    pub head: String,
    /// The raw payload bytes.
    pub body: Vec<u8>,
}

/// Everything a script run produced, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Transcript {
    /// One reply head line per executed script line.
    pub replies: Vec<String>,
    /// Byte-framed payloads, in the order they arrived.
    pub payloads: Vec<CapturedPayload>,
}

impl Transcript {
    /// The first captured payload for `command` (`"trace"` or `"drain"`).
    pub fn payload(&self, command: &str) -> Option<&CapturedPayload> {
        self.payloads.iter().find(|p| p.command == command)
    }

    /// True if any reply was an `err` line.
    pub fn has_errors(&self) -> bool {
        self.replies.iter().any(|r| r.starts_with("err"))
    }
}

/// Backoff before the first retry of [`run_script_with`]; it doubles on each
/// subsequent one.
const RETRY_BASE: Duration = Duration::from_millis(50);

/// Ceiling on the computed backoff (a server `retry-after=` hint may still
/// exceed it).
const RETRY_CAP: Duration = Duration::from_secs(2);

/// Backoff before retry number `attempt` (0-based).
fn backoff(attempt: u32) -> Duration {
    RETRY_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(RETRY_CAP)
}

/// The `retry-after=<secs>` hint in an `err busy …` reply, if present.
fn busy_retry_after(reply: &str) -> Option<Duration> {
    if !reply.starts_with("err busy") {
        return None;
    }
    let secs = reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("retry-after="))
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1);
    Some(Duration::from_secs(secs))
}

/// Run a script against a server, line by line, in lockstep.
///
/// Stops at the first transport error or after a `bye`. Protocol-level `err`
/// replies do not stop the run — they are recorded in the transcript so the
/// caller can decide what to make of them.
pub fn run_script<A, S>(addr: A, script: &[S]) -> std::io::Result<Transcript>
where
    A: ToSocketAddrs,
    S: AsRef<str>,
{
    run_script_with(addr, script, 0)
}

/// [`run_script`] with up to `retries` retries, with exponential backoff
/// (50 ms, doubling, capped at 2 s), on connect failures and on an `err busy
/// retry-after=<secs>` reply to the script's *first* command (the hello —
/// nothing has been applied yet, so restarting the script is safe). Zero
/// retries fails fast, exactly like [`run_script`].
pub fn run_script_with<A, S>(addr: A, script: &[S], retries: u32) -> std::io::Result<Transcript>
where
    A: ToSocketAddrs,
    S: AsRef<str>,
{
    let mut attempt = 0;
    loop {
        match try_run_script(&addr, script) {
            Ok((transcript, None)) => return Ok(transcript),
            Ok((transcript, Some(retry_after))) => {
                if attempt >= retries {
                    return Ok(transcript);
                }
                std::thread::sleep(backoff(attempt).max(retry_after));
            }
            Err(e) => {
                if attempt >= retries {
                    return Err(e);
                }
                std::thread::sleep(backoff(attempt));
            }
        }
        attempt += 1;
    }
}

/// One script attempt. Returns the transcript plus `Some(retry_after)` when
/// the first reply was `err busy …` (the attempt is restartable).
fn try_run_script<A, S>(addr: A, script: &[S]) -> std::io::Result<(Transcript, Option<Duration>)>
where
    A: ToSocketAddrs,
    S: AsRef<str>,
{
    let stream = TcpStream::connect(addr)?;
    // Lockstep request/reply: disable Nagle so each command line goes out
    // immediately instead of waiting on a delayed ACK.
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    converse(&mut BufReader::new(stream), &mut writer, script)
}

/// Send the script's lines in lockstep, each in one `write`, and record the
/// replies.
fn converse<S: AsRef<str>>(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    script: &[S],
) -> std::io::Result<(Transcript, Option<Duration>)> {
    let mut transcript = Transcript::default();
    let mut first = true;
    for raw in script {
        let line = raw.as_ref().trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        write_line(writer, line)?;
        writer.flush()?;
        let Some((head, body)) = read_reply(reader)? else {
            break;
        };
        if first {
            if let Some(retry_after) = busy_retry_after(&head) {
                transcript.replies.push(head);
                return Ok((transcript, Some(retry_after)));
            }
            first = false;
        }
        transcript.replies.push(head.clone());
        if let Some(body) = body {
            let command = line.split_whitespace().next().unwrap_or("").to_string();
            transcript.payloads.push(CapturedPayload {
                command,
                head,
                body,
            });
        }
        if line == "bye" {
            break;
        }
    }
    Ok((transcript, None))
}

/// Pipeline a batch of command lines: write them all in one `write`, then
/// collect exactly one reply per line. Only valid for commands that reply
/// with a single line (no payloads). Used by high-throughput feeders where
/// per-line lockstep round trips would dominate.
pub fn run_pipelined(
    writer: &mut (impl Write + ?Sized),
    reader: &mut impl BufRead,
    lines: &[String],
) -> std::io::Result<Vec<String>> {
    let mut batch = Vec::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
    for line in lines {
        batch.extend_from_slice(line.as_bytes());
        batch.push(b'\n');
    }
    writer.write_all(&batch)?;
    writer.flush()?;
    let mut replies = Vec::with_capacity(lines.len());
    for _ in lines {
        let mut head = String::new();
        if reader.read_line(&mut head)? == 0 {
            break;
        }
        replies.push(head.trim_end_matches(['\n', '\r']).to_string());
    }
    Ok(replies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::WriteCalls;
    use std::io::Cursor;

    #[test]
    fn each_request_line_leaves_in_one_write() {
        let mut calls = WriteCalls::default();
        let replies = b"ok hello\nok trace bytes=3 records=1\nabcok bye\n";
        let script = ["hello psbench-serve/1", "# a comment", "trace", "bye"];
        let (transcript, retry) =
            converse(&mut Cursor::new(&replies[..]), &mut calls, &script).unwrap();
        assert_eq!(
            calls.0,
            [
                b"hello psbench-serve/1\n".to_vec(),
                b"trace\n".to_vec(),
                b"bye\n".to_vec()
            ]
        );
        assert_eq!(retry, None);
        assert_eq!(transcript.payload("trace").unwrap().body, b"abc");
    }

    #[test]
    fn a_pipelined_batch_leaves_in_one_write() {
        let mut calls = WriteCalls::default();
        let lines = ["query queue".to_string(), "query job 1".to_string()];
        let replies = run_pipelined(
            &mut calls,
            &mut Cursor::new(&b"ok queue\nok job id=1\n"[..]),
            &lines,
        )
        .unwrap();
        assert_eq!(calls.0, [b"query queue\nquery job 1\n".to_vec()]);
        assert_eq!(replies, ["ok queue", "ok job id=1"]);
    }

    #[test]
    fn busy_replies_carry_their_retry_hint() {
        assert_eq!(
            busy_retry_after("err busy retry-after=3 server at session capacity (2)"),
            Some(Duration::from_secs(3))
        );
        // Malformed hint falls back to one second.
        assert_eq!(
            busy_retry_after("err busy retry-after=soon"),
            Some(Duration::from_secs(1))
        );
        assert_eq!(busy_retry_after("err submit: bad"), None);
        assert_eq!(busy_retry_after("ok hello proto=1"), None);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff(0), Duration::from_millis(50));
        assert_eq!(backoff(1), Duration::from_millis(100));
        assert_eq!(backoff(10), Duration::from_secs(2));
        assert_eq!(backoff(u32::MAX), RETRY_CAP);
    }
}
