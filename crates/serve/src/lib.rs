//! # psbench-serve — an online scheduling service with live what-if queries
//!
//! The offline pipeline answers "how would policy P have handled trace T?".
//! This crate turns the same engine into a long-running **service**: clients
//! connect over TCP, submit jobs as they materialize, watch the queue evolve,
//! and ask **what-if** questions ("when would job 17 start under EASY instead
//! of conservative?") answered from a fork of the engine's live state
//! without perturbing the live session.
//!
//! The server is deliberately boring infrastructure: blocking `std::net`
//! sockets, one thread per connection, and a shared session registry guarded
//! by `parking_lot` mutexes (which do not poison — a panicking connection
//! can never wedge the pool). Each session owns an **engine shard**: an
//! online [`psbench_sim::Simulation`] plus a live policy instance and the
//! canonical SWF record of everything submitted.
//!
//! The cornerstone property is **online/offline equivalence**: drive an
//! as-fast-as-possible session from a script, `drain` it, and the returned
//! `SimulationResult` is bit-for-bit identical to an offline
//! `psbench simulate` of the session's exported `trace` — the service is the
//! simulator, not an approximation of it.
//!
//! ## Crash safety
//!
//! With a `state_dir` configured, every session is **write-ahead journaled**:
//! each mutating command is resolved to exact instants, appended to
//! `<state_dir>/sessions/<name>.journal` (checksummed, fsynced by policy),
//! and only then applied. Kill the server at any byte; on restart each
//! journal is validated (a torn tail is truncated, mid-file corruption is
//! refused) and the session rebuilt by deterministic replay — the recovered
//! session drains to a byte-identical result. Mutating commands may carry
//! `seq=<n>` for idempotent resubmission after a lost reply; the hello reply
//! echoes the session's `seq=` high-water mark so clients know where they
//! stand. See the [`session`] module docs for the journal format.
//!
//! ## Protocol reference (version 1)
//!
//! The protocol is newline-framed text over TCP. Every request is one line;
//! every reply is one line starting `ok` or `err`. Request lines longer than
//! [`protocol::MAX_LINE_BYTES`] (64 KiB) close the connection. `trace` and
//! `drain` replies carry `bytes=<n>` and are followed by exactly `n` raw
//! payload bytes.
//!
//! | Request | Reply |
//! |---|---|
//! | `hello psbench-serve/1 [session=<name>]` | `ok hello proto=1 scheduler=<s> machine=<n> mode=<m> session=<name> seq=<k> resumed=<bool> [drained]` |
//! | `submit id=<n> runtime=<s> procs=<n> [submit=<s>] [estimate=<s>] [user=<n>] [seq=<n>]` | `ok submit id=<n> time=<s>` |
//! | `cancel id=<n> [seq=<n>]` | `ok cancel id=<n>` |
//! | `query queue` | `ok queue now=<t> released=<t> queued=<n> running=<n> finished=<n> used=<n>` |
//! | `query job <id>` | `ok job id=<n> state=<pending\|queued\|running\|finished\|cancelled\|discarded> …` |
//! | `whatif <id> under <scheduler>` | `ok whatif id=<n> scheduler=<s> start=<t> wait=<t> already_started=<bool>` |
//! | `advance to=<s> [seq=<n>]` | `ok advance now=<t>` |
//! | `trace` | `ok trace bytes=<n> records=<k>` + `n` bytes of canonical SWF text |
//! | `drain [seq=<n>]` | `ok drain bytes=<n> scheduler=<s> machine=<n> finished=<k> [stored=<hex>]` + `n` bytes of encoded result |
//! | `bye` | `ok bye`, then the server closes the connection |
//!
//! Rules of the road:
//!
//! * The first command must be `hello` with protocol version 1 (`bye` is
//!   also allowed). Anything else is an `err`, and the connection stays
//!   usable. A server at capacity replies `err busy retry-after=<secs> …`;
//!   the bundled client backs off and retries ([`client::RetryPolicy`]).
//! * `hello session=<name>` attaches to (or creates) a **named session**.
//!   Disconnecting without `drain` detaches it: reconnect with the same name
//!   to resume — across a server crash, when journaling is on. A connection
//!   idle past the server's timeout is closed with `err idle timeout` (the
//!   session detaches and stays resumable).
//! * Times are integer seconds of session virtual time, so the exported SWF
//!   trace round-trips exactly. A `submit=`/`advance to=` instant earlier
//!   than the session frontier (or, in `real`/`scale:` modes, the wall
//!   clock) is clamped forward; the effective instant is echoed back.
//! * `whatif` answers from a **fork** of the live engine under a fresh
//!   policy built with [`psbench_sched::by_name`]. A fork copies only the
//!   queued, running and pending state, so a probe costs the same however
//!   long the session has run. An unknown policy name returns an `err`
//!   listing every valid scheduler.
//! * `drain` runs the engine to completion and is final: afterwards only
//!   `trace` and `bye` remain meaningful. With a store configured, the
//!   drained trace + result are published under the offline cell key, so
//!   `psbench simulate --store` of the exported trace is a cache hit. If
//!   publishing fails, `drain` replies `err` and may be retried — the
//!   finished result is retained, never recomputed or lost.
//! * Malformed lines, unknown commands, and invalid arguments get
//!   single-line `err` replies and never tear down other sessions.
//!
//! ## Crate layout
//!
//! * [`protocol`] — command grammar, parsing, reply framing.
//! * [`clock`] — session clock modes (`afap`, `real`, `scale:<f>`).
//! * [`shard`] — the per-session engine wrapper (resolve/apply split).
//! * [`session`] — sessions: write-ahead journaling, seq idempotency,
//!   deterministic recovery.
//! * [`server`] — listener, named session pool, connection threads.
//! * [`client`] — a lockstep script driver with retry/backoff (used by
//!   `psbench client` and CI).

#![warn(missing_docs)]

pub mod client;
pub mod clock;
pub mod protocol;
pub mod server;
pub mod session;
pub mod shard;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::client::{
        run_pipelined, run_script, run_script_with, CapturedPayload, RetryPolicy, Transcript,
    };
    pub use crate::clock::{ClockMode, SessionClock};
    pub use crate::protocol::{
        parse_command, payload_len, valid_session_name, Command, Reply, MAX_LINE_BYTES,
        MAX_SESSION_NAME, PROTOCOL_VERSION,
    };
    pub use crate::server::{read_reply, serve, ServeConfig, ServerHandle};
    pub use crate::session::{LoggedCommand, Session};
    pub use crate::shard::{Drained, Shard, ShardConfig};
    pub use psbench_store::FsyncPolicy;
}

pub use prelude::*;
