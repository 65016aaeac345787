//! Wire protocol: command parsing and reply framing.
//!
//! The protocol is line-oriented text. Every request is one `\n`-terminated
//! line; every reply is one line starting with `ok` or `err`. Two commands
//! (`trace`, `drain`) follow the reply line with a byte-length-framed payload:
//! the reply carries `bytes=<n>` and exactly `n` payload bytes follow it on
//! the stream. See the crate-level docs for the full grammar.

use std::fmt;
use std::io::Write;

/// Version of the wire protocol. Clients announce it in the hello line
/// (`hello psbench-serve/1`); the server rejects any other version.
pub const PROTOCOL_VERSION: u32 = 1;

/// Hard cap on the length of a single request line, in bytes. Longer lines
/// are rejected (the connection is closed) without buffering the remainder,
/// so an unframed flood cannot exhaust server memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Maximum length of a client-chosen session name, in bytes.
pub const MAX_SESSION_NAME: usize = 64;

/// Whether `name` is a valid session name: 1–64 characters drawn from
/// `[A-Za-z0-9._-]`. The restriction keeps names safe to embed in journal
/// file names and reply lines.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_SESSION_NAME
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-')
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `hello psbench-serve/<version> [session=<name>]` — opens (or, with a
    /// name, attaches to) a session.
    Hello {
        /// Protocol version announced by the client.
        version: u32,
        /// Session to attach to. Omitted: the server generates a name. A
        /// named session that crashed or detached can be re-attached — with
        /// `--state-dir` on the server, even across a server restart.
        session: Option<String>,
    },
    /// `submit id=<n> runtime=<secs> procs=<n> [submit=<secs>] [estimate=<secs>] [user=<n>] [seq=<n>]`.
    Submit {
        /// Job id; must be unique within the session.
        id: u64,
        /// Requested submit instant (integer seconds of session time).
        /// Omitted: "now" (the session clock, or the last submit instant in
        /// as-fast-as-possible mode).
        submit: Option<i64>,
        /// Actual runtime in seconds.
        runtime: i64,
        /// Processors requested.
        procs: u32,
        /// User runtime estimate in seconds (defaults to `runtime`).
        estimate: Option<i64>,
        /// Owning user id, for per-user metrics.
        user: Option<u32>,
        /// Client-chosen command sequence number (see [`Command::seq`]).
        seq: Option<u64>,
    },
    /// `cancel id=<n> [seq=<n>]` (or `cancel <n>`).
    Cancel {
        /// Job to cancel.
        id: u64,
        /// Client-chosen command sequence number (see [`Command::seq`]).
        seq: Option<u64>,
    },
    /// `query queue` — live counters of the session shard.
    QueryQueue,
    /// `query job <id>` — state of one job.
    QueryJob {
        /// Job to look up.
        id: u64,
    },
    /// `whatif <id> under <scheduler>` — predicted start from a fork of the
    /// live engine.
    Whatif {
        /// Job the prediction is about.
        id: u64,
        /// Registry name of the policy to probe under.
        scheduler: String,
    },
    /// `advance to=<secs> [seq=<n>]` (or `advance <secs>`) — release session
    /// time.
    Advance {
        /// Target session instant, integer seconds.
        to: i64,
        /// Client-chosen command sequence number (see [`Command::seq`]).
        seq: Option<u64>,
    },
    /// `trace` — canonical SWF text of everything submitted so far.
    Trace,
    /// `drain [seq=<n>]` — run the engine to completion and return the
    /// encoded result.
    Drain {
        /// Client-chosen command sequence number (see [`Command::seq`]).
        seq: Option<u64>,
    },
    /// `bye` — close the connection.
    Bye,
}

impl Command {
    /// The `seq=` number carried by a mutating command, if any.
    ///
    /// Sequence numbers make mutating commands **idempotent**: each must be
    /// strictly greater than the last one the session applied. Re-sending the
    /// session's last applied `seq` replays the cached reply without applying
    /// the command again (safe resubmission after a lost reply); a smaller
    /// `seq` is refused as stale. Commands without `seq=` are assigned the
    /// next number implicitly (at-most-once only per connection).
    pub fn seq(&self) -> Option<u64> {
        match self {
            Command::Submit { seq, .. }
            | Command::Cancel { seq, .. }
            | Command::Advance { seq, .. }
            | Command::Drain { seq } => *seq,
            _ => None,
        }
    }
}

/// A reply to write back to the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A single `ok …` or `err …` line.
    Line(String),
    /// A reply line followed by a byte-length-framed payload. The head line
    /// must already carry `bytes=<n>` with `n == body.len()`.
    Payload {
        /// The `ok … bytes=<n>` head line (without trailing newline).
        head: String,
        /// Exactly the payload bytes announced by the head line.
        body: Vec<u8>,
    },
    /// A final line after which the server closes the connection cleanly.
    Goodbye(String),
}

impl Reply {
    /// Build an `err …` line reply. The message is flattened to one line.
    pub fn err(msg: impl fmt::Display) -> Reply {
        Reply::Line(format!("err {}", one_line(&msg.to_string())))
    }
}

/// Collapse newlines so an error message can never break line framing.
fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Extract the `bytes=<n>` payload length announced by a reply head line,
/// if any. Clients use this to know how many raw bytes follow the line.
pub fn payload_len(head: &str) -> Option<usize> {
    head.split_whitespace()
        .find_map(|tok| tok.strip_prefix("bytes="))
        .and_then(|v| v.parse().ok())
}

/// Write `line` and its `\n` terminator as one buffer, so the pair leaves
/// in a single `write` call. (`writeln!` writes the formatted pieces one by
/// one, and on a `TCP_NODELAY` socket each write is a segment of its own.)
pub(crate) fn write_line(writer: &mut (impl Write + ?Sized), line: &str) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    writer.write_all(&buf)
}

/// A `Write` that keeps the bytes of each `write` call apart, so tests can
/// count the calls a reply or request takes.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct WriteCalls(pub Vec<Vec<u8>>);

#[cfg(test)]
impl Write for WriteCalls {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One `key=value` token.
struct KvArgs<'a> {
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> KvArgs<'a> {
    fn parse(tokens: &[&'a str], allowed: &[&str]) -> Result<KvArgs<'a>, String> {
        let mut pairs = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            if !allowed.contains(&k) {
                return Err(format!(
                    "unknown argument {k:?}; expected one of: {}",
                    allowed.join(", ")
                ));
            }
            if pairs.iter().any(|(seen, _)| *seen == k) {
                return Err(format!("duplicate argument {k:?}"));
            }
            pairs.push((k, v));
        }
        Ok(KvArgs { pairs })
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .get(key)
            .ok_or_else(|| format!("missing required argument {key}="))?;
        raw.parse()
            .map_err(|_| format!("bad value for {key}: {raw:?}"))
    }

    fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value for {key}: {raw:?}")),
        }
    }
}

/// Parse one request line into a [`Command`].
///
/// Errors are human-readable single-line messages suitable for an `err` reply.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let (&head, rest) = tokens
        .split_first()
        .ok_or_else(|| "empty command".to_string())?;
    match head {
        "hello" => {
            let Some((&ident, rest)) = rest.split_first() else {
                return Err("usage: hello psbench-serve/<version> [session=<name>]".into());
            };
            let version = ident
                .strip_prefix("psbench-serve/")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad hello identifier {ident:?}"))?;
            let kv = KvArgs::parse(rest, &["session"])?;
            let session = kv.get("session").map(str::to_string);
            if let Some(name) = &session {
                if !valid_session_name(name) {
                    return Err(format!(
                        "bad session name {name:?}: 1-{MAX_SESSION_NAME} chars of [A-Za-z0-9._-]"
                    ));
                }
            }
            Ok(Command::Hello { version, session })
        }
        "submit" => {
            let kv = KvArgs::parse(
                rest,
                &["id", "submit", "runtime", "procs", "estimate", "user", "seq"],
            )?;
            Ok(Command::Submit {
                id: kv.required("id")?,
                submit: kv.optional("submit")?,
                runtime: kv.required("runtime")?,
                procs: kv.required("procs")?,
                estimate: kv.optional("estimate")?,
                user: kv.optional("user")?,
                seq: kv.optional("seq")?,
            })
        }
        "cancel" => match rest {
            [one] if !one.contains('=') || one.starts_with("id=") => {
                let id = one
                    .strip_prefix("id=")
                    .unwrap_or(one)
                    .parse()
                    .map_err(|_| format!("bad job id {one:?}"))?;
                Ok(Command::Cancel { id, seq: None })
            }
            _ => {
                let kv = KvArgs::parse(rest, &["id", "seq"])?;
                Ok(Command::Cancel {
                    id: kv.required("id")?,
                    seq: kv.optional("seq")?,
                })
            }
        },
        "query" => match rest {
            ["queue"] => Ok(Command::QueryQueue),
            ["job", id] => {
                let id = id
                    .strip_prefix("id=")
                    .unwrap_or(id)
                    .parse()
                    .map_err(|_| format!("bad job id {id:?}"))?;
                Ok(Command::QueryJob { id })
            }
            _ => Err("usage: query queue | query job <id>".into()),
        },
        "whatif" => match rest {
            [id, "under", scheduler] => {
                let id = id.parse().map_err(|_| format!("bad job id {id:?}"))?;
                Ok(Command::Whatif {
                    id,
                    scheduler: scheduler.to_string(),
                })
            }
            _ => Err("usage: whatif <job> under <scheduler>".into()),
        },
        "advance" => match rest {
            [one] if !one.contains('=') || one.starts_with("to=") => {
                let to = one
                    .strip_prefix("to=")
                    .unwrap_or(one)
                    .parse()
                    .map_err(|_| format!("bad advance target {one:?}"))?;
                Ok(Command::Advance { to, seq: None })
            }
            _ => {
                let kv = KvArgs::parse(rest, &["to", "seq"])?;
                Ok(Command::Advance {
                    to: kv.required("to")?,
                    seq: kv.optional("seq")?,
                })
            }
        },
        "trace" if rest.is_empty() => Ok(Command::Trace),
        "drain" => {
            let kv = KvArgs::parse(rest, &["seq"])?;
            Ok(Command::Drain {
                seq: kv.optional("seq")?,
            })
        }
        "bye" if rest.is_empty() => Ok(Command::Bye),
        _ => Err(format!(
            "unknown command {head:?}; commands: hello, submit, cancel, query, whatif, advance, trace, drain, bye"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(
            parse_command("hello psbench-serve/1").unwrap(),
            Command::Hello {
                version: 1,
                session: None
            }
        );
        assert_eq!(
            parse_command("hello psbench-serve/1 session=night-shift.2").unwrap(),
            Command::Hello {
                version: 1,
                session: Some("night-shift.2".into())
            }
        );
        assert_eq!(
            parse_command("submit id=7 submit=100 runtime=60 procs=4 estimate=90 user=3 seq=12")
                .unwrap(),
            Command::Submit {
                id: 7,
                submit: Some(100),
                runtime: 60,
                procs: 4,
                estimate: Some(90),
                user: Some(3),
                seq: Some(12),
            }
        );
        assert_eq!(
            parse_command("submit id=1 runtime=5 procs=1").unwrap(),
            Command::Submit {
                id: 1,
                submit: None,
                runtime: 5,
                procs: 1,
                estimate: None,
                user: None,
                seq: None,
            }
        );
        assert_eq!(
            parse_command("cancel id=9").unwrap(),
            Command::Cancel { id: 9, seq: None }
        );
        assert_eq!(
            parse_command("cancel 9").unwrap(),
            Command::Cancel { id: 9, seq: None }
        );
        assert_eq!(
            parse_command("cancel id=9 seq=4").unwrap(),
            Command::Cancel {
                id: 9,
                seq: Some(4)
            }
        );
        assert_eq!(parse_command("query queue").unwrap(), Command::QueryQueue);
        assert_eq!(
            parse_command("query job 4").unwrap(),
            Command::QueryJob { id: 4 }
        );
        assert_eq!(
            parse_command("whatif 4 under easy").unwrap(),
            Command::Whatif {
                id: 4,
                scheduler: "easy".into()
            }
        );
        assert_eq!(
            parse_command("advance to=500").unwrap(),
            Command::Advance { to: 500, seq: None }
        );
        assert_eq!(
            parse_command("advance to=500 seq=9").unwrap(),
            Command::Advance {
                to: 500,
                seq: Some(9)
            }
        );
        assert_eq!(parse_command("trace").unwrap(), Command::Trace);
        assert_eq!(
            parse_command("drain").unwrap(),
            Command::Drain { seq: None }
        );
        assert_eq!(
            parse_command("drain seq=3").unwrap(),
            Command::Drain { seq: Some(3) }
        );
        assert_eq!(parse_command("bye").unwrap(), Command::Bye);
    }

    #[test]
    fn session_names_are_validated() {
        assert!(valid_session_name("a"));
        assert!(valid_session_name("night-shift.2_x"));
        assert!(!valid_session_name(""));
        assert!(!valid_session_name("has space"));
        assert!(!valid_session_name("sneaky/../path"));
        assert!(!valid_session_name(&"x".repeat(MAX_SESSION_NAME + 1)));
        assert!(parse_command("hello psbench-serve/1 session=bad/name").is_err());
    }

    #[test]
    fn rejects_garbage_with_single_line_messages() {
        for bad in [
            "",
            "frobnicate",
            "hello",
            "hello otherproto/1",
            "submit id=1 runtime=x procs=1",
            "submit id=1 runtime=5",
            "submit id=1 runtime=5 procs=1 color=red",
            "submit id=1 id=2 runtime=5 procs=1",
            "whatif 3 over easy",
            "cancel",
            "advance",
            "query",
            "query job",
            "trace now",
        ] {
            let err = parse_command(bad).unwrap_err();
            assert!(!err.contains('\n'), "multi-line error for {bad:?}");
        }
    }

    #[test]
    fn unknown_command_error_lists_the_verbs() {
        let err = parse_command("launch missiles").unwrap_err();
        for verb in ["submit", "cancel", "whatif", "drain"] {
            assert!(err.contains(verb));
        }
    }

    #[test]
    fn payload_len_reads_bytes_token() {
        assert_eq!(payload_len("ok trace bytes=120 records=3"), Some(120));
        assert_eq!(payload_len("ok drain scheduler=fcfs bytes=9"), Some(9));
        assert_eq!(payload_len("ok submit id=1"), None);
    }

    #[test]
    fn err_replies_never_contain_newlines() {
        let Reply::Line(line) = Reply::err("top\nbottom") else {
            panic!("expected line reply");
        };
        assert_eq!(line, "err top bottom");
    }
}
