//! The shard-serving message schema: what a coordinator sends a shard
//! server and what comes back.
//!
//! One frame carries one message; the payload's first byte is the message
//! tag. The conversation is strictly request/response over a single
//! connection, but a server process is **multi-tenant**: [`Request::Open`]
//! mints a [`SessionId`] and every session-scoped request carries one, so
//! any number of independent cleaning sessions (from any number of
//! connections) multiplex over one server:
//!
//! | request                | response                                  |
//! |------------------------|-------------------------------------------|
//! | [`Request::Open`]      | [`Response::Opened`] — session minted      |
//! | [`Request::Scan`]      | [`Response::Stream`] — batched event stream |
//! | [`Request::SweptScan`] | [`Response::Swept`] — one stream for every pin of a row |
//! | [`Request::ExtremeSummary`] | [`Response::Summary`] — rank-merged MM top-K |
//! | [`Request::Step`]      | [`Response::Ok`] — pin applied (idempotent) |
//! | [`Request::Status`]    | [`Response::Status`] — session's local view |
//! | [`Request::Stats`]     | [`Response::Stats`] — encoded metrics snapshot |
//! | [`Request::Close`]     | [`Response::Ok`] — session freed, connection lives |
//! | [`Request::Ping`]      | [`Response::Ok`] — liveness probe, no session |
//! | [`Request::Shutdown`]  | [`Response::Ok`] — connection ends         |
//!
//! Any request may additionally travel wrapped in [`Request::Deadline`],
//! which carries the client's remaining patience as a **relative** budget
//! (microseconds — relative so no clock synchronization is assumed). A
//! server whose connection queue held the frame longer than its budget
//! sheds it unstarted with [`Response::Expired`] — retryable, like
//! [`Response::Busy`].
//!
//! Sessions belong to the server process, not to a connection: a
//! coordinator that reconnects keeps driving the same session by its id
//! (which is what makes the idempotent-`Step` retransmission work across a
//! reconnect). [`Request::Close`] frees one session without touching the
//! connection; [`Request::Shutdown`] ends the connection without touching
//! other sessions.
//!
//! Anything the server rejects (malformed pins, unknown session, unknown
//! semiring) comes back as [`Response::Error`] with a message; an
//! admission-control refusal (session or connection caps) is
//! [`Response::Busy`] — retryable, unlike an error; transport and codec
//! failures are [`crate::RpcError`]s on either side.

use crate::codec::{get_kernel, get_pins, put_kernel, put_pins};
use crate::error::{RpcError, RpcResult};
use crate::wire::{put_u32, put_u64, put_u8, put_usize, put_varint_u64, put_zigzag_i64, Reader};
use cp_core::Pins;
use cp_knn::{Kernel, Label};

/// A server-minted handle naming one cleaning session on a multi-tenant
/// shard server. Ids are unique per server process and never reused; `0` is
/// never minted, so an unopened client's default id can't alias a session.
pub type SessionId = u64;

/// Everything a shard server needs to adopt its partition: the shard's rows
/// (with labels and candidate sets), its global row offset, the classifier
/// configuration, the full validation features, and the simulated human's
/// choices restricted to the shard's rows.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenShard {
    /// First global row owned by the shard.
    pub start: usize,
    /// Number of classes `|Y|`.
    pub n_labels: usize,
    /// Classifier K (the *configured* K; effective K travels per scan).
    pub k: usize,
    /// Similarity kernel.
    pub kernel: Kernel,
    /// Worker threads the server may use for its index builds.
    pub n_threads: usize,
    /// The shard's rows: `(label, candidate set)` per local row.
    pub examples: Vec<(Label, Vec<Vec<f64>>)>,
    /// The full validation features (every shard indexes all of them).
    pub val_x: Vec<Vec<f64>>,
    /// Ground-truth candidate per local row (`None` for clean rows).
    pub truth_choice: Vec<Option<u32>>,
    /// Default-imputation candidate per local row (`None` for clean rows).
    pub default_choice: Vec<Option<u32>>,
}

/// A coordinator→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open a new cleaning session over a shard (must precede everything
    /// below; the minted [`SessionId`] scopes every later request).
    Open(Box<OpenShard>),
    /// Compute one batched scan stream for validation point `val`.
    Scan {
        /// The session to scan.
        session: SessionId,
        /// Validation-point index into the opened `val_x`.
        val: u32,
        /// The **global** effective K for the scan's tally trees.
        k: u32,
        /// Requested [`crate::codec::WireSemiring`] tag.
        semiring: u8,
        /// Shard-local pin mask override; `None` scans under the server
        /// session's current pins (hypothetical selection pins travel as
        /// `Some`).
        pins: Option<Pins>,
    },
    /// Compute the owner's half of a merged pin sweep over shard-local row
    /// `row` for validation point `val` under the session's current pins:
    /// one stream, opened at the base `τ_s` with the row's leaf held at the
    /// identity, that answers every pin of the row
    /// (`cp_shard::SweptStream`). What a greedy selection step asks the
    /// owner per (point, row) cache miss.
    SweptScan {
        /// The session to scan.
        session: SessionId,
        /// Validation-point index into the opened `val_x`.
        val: u32,
        /// The **global** effective K for the scan's tally trees.
        k: u32,
        /// Requested [`crate::codec::WireSemiring`] tag.
        semiring: u8,
        /// Shard-local index of the swept row; the session must not have
        /// pinned it.
        row: u32,
    },
    /// Compute one rank-ordered extreme summary for validation point `val`
    /// under the session's current pins — the binary-Q1 MM fast path's
    /// `O(|Y|·K)` exchange, replacing the whole boundary-event stream for
    /// status checks.
    ExtremeSummary {
        /// The session to summarize.
        session: SessionId,
        /// Validation-point index into the opened `val_x`.
        val: u32,
        /// The **global** effective K (how many top entries to keep).
        k: u32,
    },
    /// Clean one shard-local row (pin it to its ground-truth candidate).
    ///
    /// The request is **idempotent**: `expect_cleaned` carries the
    /// coordinator's view of the shard's cleaned-row count *before* this
    /// step. A server whose count already advanced past it — because it
    /// applied an earlier transmission of the same step whose reply was
    /// lost — answers [`Response::Ok`] without re-pinning, so a reconnect
    /// retry can never double-apply or silently diverge the masks.
    Step {
        /// The session to pin in.
        session: SessionId,
        /// Local row index within the shard.
        local_row: u32,
        /// The shard's cleaned-row count the coordinator expects before the
        /// pin is applied (its epoch for this step).
        expect_cleaned: u32,
    },
    /// Ask for one session's local view.
    Status {
        /// The session to report on.
        session: SessionId,
    },
    /// Ask for the server's live metrics (a `cp-obs` registry snapshot).
    /// Session-optional: `0` asks for the whole process's metrics, a real
    /// [`SessionId`] restricts the snapshot to that session's own counters
    /// (and errors if the session is unknown).
    Stats {
        /// `0` for process-wide metrics, or a session to restrict to.
        session: SessionId,
    },
    /// Free one session; the connection stays usable (other sessions —
    /// including ones opened over other connections — are untouched).
    Close {
        /// The session to free.
        session: SessionId,
    },
    /// End the connection. Sessions survive (they belong to the server
    /// process, so a reconnecting coordinator can keep driving them); use
    /// [`Request::Close`] to free them.
    Shutdown,
    /// Liveness probe: answered with [`Response::Ok`] and nothing else.
    /// Session-free and state-free — the half-open circuit breaker's cheap
    /// way to ask "is this server serving?" before committing real work.
    Ping,
    /// Deadline envelope around any other request. `budget_us` is the
    /// client's remaining patience **relative to the frame's arrival**
    /// (microseconds; `0` means "already expired" — clients clamp live
    /// deadlines to ≥ 1). A server that held the frame queued past the
    /// budget sheds it unstarted with [`Response::Expired`]. Envelopes
    /// don't nest.
    Deadline {
        /// Remaining patience in microseconds, relative to arrival.
        budget_us: u64,
        /// The enveloped request.
        inner: Box<Request>,
    },
}

/// A shard server's local view, as reported by [`Response::Status`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardStatus {
    /// First global row owned.
    pub start: usize,
    /// Number of rows owned.
    pub n_rows: usize,
    /// Rows cleaned so far.
    pub n_cleaned: usize,
    /// The shard-local pin mask.
    pub pins: Pins,
}

/// A server→coordinator message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Request applied; nothing to report.
    Ok,
    /// Session opened; carries the minted handle and echoes the row count
    /// as a handshake check.
    Opened {
        /// The server-minted session handle.
        session: SessionId,
        /// Rows owned by the opened shard.
        n_rows: usize,
    },
    /// One batched scan stream, encoded with
    /// [`crate::codec::encode_stream`] (self-tagged with its semiring).
    Stream(Vec<u8>),
    /// One rank-ordered extreme summary, encoded with
    /// [`crate::codec::encode_summary`].
    Summary(Vec<u8>),
    /// One swept stream, encoded with [`crate::codec::encode_swept`]
    /// (self-tagged with its semiring).
    Swept(Vec<u8>),
    /// The server's local view.
    Status(ShardStatus),
    /// The server's live metrics: a `cp_obs::Snapshot` in its own wire
    /// encoding (`Snapshot::encode`/`decode`), opaque to this layer like
    /// [`Response::Stream`].
    Stats(Vec<u8>),
    /// The request was understood but rejected.
    Error(String),
    /// The server refused admission (sessions or connections at capacity).
    /// Retryable: the same request is expected to succeed once load drains —
    /// clients surface it as [`crate::RpcError::Busy`].
    Busy(String),
    /// The request's [`Request::Deadline`] budget had already passed when
    /// the server dequeued it, so the work was shed unstarted. Retryable
    /// with a fresh deadline — clients surface it as
    /// [`crate::RpcError::Expired`].
    Expired(String),
}

const REQ_OPEN: u8 = 1;
const REQ_SCAN: u8 = 2;
const REQ_STEP: u8 = 3;
// 4 was a retired request (the coordinator's status push); it decodes as a
// bad tag
const REQ_STATUS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_EXTREME_SUMMARY: u8 = 7;
const REQ_CLOSE: u8 = 8;
const REQ_STATS: u8 = 9;
const REQ_PING: u8 = 10;
const REQ_DEADLINE: u8 = 11;
const REQ_SWEPT_SCAN: u8 = 12;

/// `Open` payload layout version — the byte after the `REQ_OPEN` tag.
/// `Open` is the largest single message of the protocol (it carries the
/// whole candidate grid), so like scan streams it travels delta-compressed.
/// Version 1, a retired fixed-width layout, decodes as a bad tag.
const OPEN_V_DELTA: u8 = 2;

const RESP_OK: u8 = 1;
const RESP_OPENED: u8 = 2;
const RESP_STREAM: u8 = 3;
const RESP_STATUS: u8 = 4;
const RESP_ERROR: u8 = 5;
const RESP_SUMMARY: u8 = 6;
const RESP_BUSY: u8 = 7;
const RESP_STATS: u8 = 8;
const RESP_EXPIRED: u8 = 9;
const RESP_SWEPT: u8 = 10;

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn get_string(r: &mut Reader<'_>) -> RpcResult<String> {
    let n = r.count(1, "string")?;
    let bytes = r.take(n, "string bytes")?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| RpcError::Malformed("string is not valid utf-8".into()))
}

/// Delta-encode a point list: varint counts and dims, each `f64` as the
/// zigzag-varint difference of its bit pattern from the previous value
/// *in the same feature column* (`prev[j]` runs across the whole payload).
/// A feature's values cluster tightly across rows — and a dirty cell's
/// candidates are imputations of the same quantity — so the column-wise
/// bit-pattern deltas are short varints where a fixed-width layout spends 8
/// bytes per value.
fn put_delta_points(out: &mut Vec<u8>, points: &[Vec<f64>], prev: &mut Vec<u64>) {
    put_varint_u64(out, points.len() as u64);
    for p in points {
        put_varint_u64(out, p.len() as u64);
        for (j, &v) in p.iter().enumerate() {
            if prev.len() <= j {
                prev.push(0);
            }
            let bits = v.to_bits();
            put_zigzag_i64(out, bits.wrapping_sub(prev[j]) as i64);
            prev[j] = bits;
        }
    }
}

/// A varint element count that must be plausible for the bytes left (each
/// element occupies at least one byte) — the varint twin of
/// [`Reader::count`], rejecting hostile counts before any allocation is
/// sized from them.
fn varint_count(r: &mut Reader<'_>, context: &'static str) -> RpcResult<usize> {
    let n = r.varint_u64(context)?;
    if n > r.remaining() as u64 {
        return Err(RpcError::Truncated { context });
    }
    Ok(n as usize)
}

fn get_delta_points(r: &mut Reader<'_>, prev: &mut Vec<u64>) -> RpcResult<Vec<Vec<f64>>> {
    let n = varint_count(r, "delta points")?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        let dim = varint_count(r, "delta point dim")?;
        let mut p = Vec::with_capacity(dim);
        for j in 0..dim {
            if prev.len() <= j {
                prev.push(0);
            }
            let bits = prev[j].wrapping_add(r.zigzag_i64("delta point value")? as u64);
            p.push(f64::from_bits(bits));
            prev[j] = bits;
        }
        points.push(p);
    }
    Ok(points)
}

/// Choices as single varints: `0` = clean row, `c + 1` = candidate `c`.
fn put_varint_choices(out: &mut Vec<u8>, choices: &[Option<u32>]) {
    put_varint_u64(out, choices.len() as u64);
    for &c in choices {
        put_varint_u64(out, c.map_or(0, |v| v as u64 + 1));
    }
}

fn get_varint_choices(r: &mut Reader<'_>) -> RpcResult<Vec<Option<u32>>> {
    let n = varint_count(r, "choices")?;
    let mut choices = Vec::with_capacity(n);
    for _ in 0..n {
        choices.push(match r.varint_u64("choice")? {
            0 => None,
            v if v - 1 <= u32::MAX as u64 => Some((v - 1) as u32),
            v => {
                return Err(RpcError::Malformed(format!(
                    "choice {v} does not fit a candidate index"
                )))
            }
        });
    }
    Ok(choices)
}

/// Encode one [`OpenShard`] payload (tag included) with an explicit
/// `n_threads` value, in the delta layout ([`OPEN_V_DELTA`]) — the one
/// encoding the coordinator sends *and* the one the server canonicalizes
/// shard-dedup keys from. `encode_request` passes the payload's own
/// `n_threads`; the server passes `0` to canonicalize, so a thread-count
/// knob — which doesn't change what shard is being opened — can't split
/// otherwise-identical shards into separate index builds.
pub(crate) fn put_open(out: &mut Vec<u8>, open: &OpenShard, n_threads: usize) {
    put_u8(out, REQ_OPEN);
    put_u8(out, OPEN_V_DELTA);
    put_varint_u64(out, open.start as u64);
    put_varint_u64(out, open.n_labels as u64);
    put_varint_u64(out, open.k as u64);
    put_kernel(out, open.kernel);
    put_varint_u64(out, n_threads as u64);
    put_varint_u64(out, open.examples.len() as u64);
    let mut prev: Vec<u64> = Vec::new();
    for (label, candidates) in &open.examples {
        put_varint_u64(out, *label as u64);
        put_delta_points(out, candidates, &mut prev);
    }
    put_delta_points(out, &open.val_x, &mut prev);
    put_varint_choices(out, &open.truth_choice);
    put_varint_choices(out, &open.default_choice);
}

/// Encode a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Open(open) => {
            put_open(&mut out, open, open.n_threads);
            cp_obs::counter!("rpc.codec.open_bytes_delta").add(out.len() as u64);
        }
        Request::Scan {
            session,
            val,
            k,
            semiring,
            pins,
        } => {
            put_u8(&mut out, REQ_SCAN);
            put_u64(&mut out, *session);
            put_u32(&mut out, *val);
            put_u32(&mut out, *k);
            put_u8(&mut out, *semiring);
            match pins {
                None => put_u8(&mut out, 0),
                Some(p) => {
                    put_u8(&mut out, 1);
                    put_pins(&mut out, p);
                }
            }
        }
        Request::SweptScan {
            session,
            val,
            k,
            semiring,
            row,
        } => {
            put_u8(&mut out, REQ_SWEPT_SCAN);
            put_u64(&mut out, *session);
            put_u32(&mut out, *val);
            put_u32(&mut out, *k);
            put_u8(&mut out, *semiring);
            put_u32(&mut out, *row);
        }
        Request::ExtremeSummary { session, val, k } => {
            put_u8(&mut out, REQ_EXTREME_SUMMARY);
            put_u64(&mut out, *session);
            put_u32(&mut out, *val);
            put_u32(&mut out, *k);
        }
        Request::Step {
            session,
            local_row,
            expect_cleaned,
        } => {
            put_u8(&mut out, REQ_STEP);
            put_u64(&mut out, *session);
            put_u32(&mut out, *local_row);
            put_u32(&mut out, *expect_cleaned);
        }
        Request::Status { session } => {
            put_u8(&mut out, REQ_STATUS);
            put_u64(&mut out, *session);
        }
        Request::Stats { session } => {
            put_u8(&mut out, REQ_STATS);
            put_u64(&mut out, *session);
        }
        Request::Close { session } => {
            put_u8(&mut out, REQ_CLOSE);
            put_u64(&mut out, *session);
        }
        Request::Shutdown => put_u8(&mut out, REQ_SHUTDOWN),
        Request::Ping => put_u8(&mut out, REQ_PING),
        Request::Deadline { budget_us, inner } => {
            put_u8(&mut out, REQ_DEADLINE);
            put_varint_u64(&mut out, *budget_us);
            out.extend_from_slice(&encode_request(inner));
        }
    }
    out
}

/// Decode a frame payload into a request.
pub fn decode_request(buf: &[u8]) -> RpcResult<Request> {
    let mut r = Reader::new(buf);
    let req = match r.u8("request tag")? {
        REQ_OPEN => match r.u8("open version")? {
            OPEN_V_DELTA => {
                let start = r.varint_u64("shard start")? as usize;
                let n_labels = r.varint_u64("n_labels")? as usize;
                let k = r.varint_u64("config k")? as usize;
                let kernel = get_kernel(&mut r)?;
                let n_threads = r.varint_u64("n_threads")? as usize;
                let n_examples = varint_count(&mut r, "examples")?;
                let mut examples = Vec::with_capacity(n_examples);
                let mut prev: Vec<u64> = Vec::new();
                for _ in 0..n_examples {
                    let label = r.varint_u64("example label")? as Label;
                    let candidates = get_delta_points(&mut r, &mut prev)?;
                    examples.push((label, candidates));
                }
                let val_x = get_delta_points(&mut r, &mut prev)?;
                let truth_choice = get_varint_choices(&mut r)?;
                let default_choice = get_varint_choices(&mut r)?;
                Request::Open(Box::new(OpenShard {
                    start,
                    n_labels,
                    k,
                    kernel,
                    n_threads,
                    examples,
                    val_x,
                    truth_choice,
                    default_choice,
                }))
            }
            tag => {
                return Err(RpcError::BadTag {
                    what: "open version",
                    tag,
                })
            }
        },
        REQ_SCAN => {
            let session = r.u64("scan session")?;
            let val = r.u32("scan val")?;
            let k = r.u32("scan k")?;
            let semiring = r.u8("scan semiring")?;
            let pins = match r.u8("scan pins flag")? {
                0 => None,
                1 => Some(get_pins(&mut r)?),
                tag => {
                    return Err(RpcError::BadTag {
                        what: "scan pins flag",
                        tag,
                    })
                }
            };
            Request::Scan {
                session,
                val,
                k,
                semiring,
                pins,
            }
        }
        REQ_SWEPT_SCAN => Request::SweptScan {
            session: r.u64("swept scan session")?,
            val: r.u32("swept scan val")?,
            k: r.u32("swept scan k")?,
            semiring: r.u8("swept scan semiring")?,
            row: r.u32("swept scan row")?,
        },
        REQ_EXTREME_SUMMARY => Request::ExtremeSummary {
            session: r.u64("summary session")?,
            val: r.u32("summary val")?,
            k: r.u32("summary k")?,
        },
        REQ_STEP => Request::Step {
            session: r.u64("step session")?,
            local_row: r.u32("step row")?,
            expect_cleaned: r.u32("step expected cleaned count")?,
        },
        REQ_STATUS => Request::Status {
            session: r.u64("status session")?,
        },
        REQ_STATS => Request::Stats {
            session: r.u64("stats session")?,
        },
        REQ_CLOSE => Request::Close {
            session: r.u64("close session")?,
        },
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_PING => Request::Ping,
        REQ_DEADLINE => {
            let budget_us = r.varint_u64("deadline budget")?;
            let rest = r.take(r.remaining(), "deadline inner request")?;
            let inner = decode_request(rest)?;
            if matches!(inner, Request::Deadline { .. }) {
                return Err(RpcError::Malformed("deadline envelopes do not nest".into()));
            }
            Request::Deadline {
                budget_us,
                inner: Box::new(inner),
            }
        }
        tag => {
            return Err(RpcError::BadTag {
                what: "request",
                tag,
            })
        }
    };
    r.finish("request")?;
    Ok(req)
}

/// Encode a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ok => put_u8(&mut out, RESP_OK),
        Response::Opened { session, n_rows } => {
            put_u8(&mut out, RESP_OPENED);
            put_u64(&mut out, *session);
            put_usize(&mut out, *n_rows);
        }
        Response::Stream(bytes) => {
            put_u8(&mut out, RESP_STREAM);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::Summary(bytes) => {
            put_u8(&mut out, RESP_SUMMARY);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::Swept(bytes) => {
            put_u8(&mut out, RESP_SWEPT);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::Status(status) => {
            put_u8(&mut out, RESP_STATUS);
            put_usize(&mut out, status.start);
            put_usize(&mut out, status.n_rows);
            put_usize(&mut out, status.n_cleaned);
            put_pins(&mut out, &status.pins);
        }
        Response::Stats(bytes) => {
            put_u8(&mut out, RESP_STATS);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::Error(msg) => {
            put_u8(&mut out, RESP_ERROR);
            put_string(&mut out, msg);
        }
        Response::Busy(msg) => {
            put_u8(&mut out, RESP_BUSY);
            put_string(&mut out, msg);
        }
        Response::Expired(msg) => {
            put_u8(&mut out, RESP_EXPIRED);
            put_string(&mut out, msg);
        }
    }
    out
}

/// Decode a frame payload into a response.
pub fn decode_response(buf: &[u8]) -> RpcResult<Response> {
    let mut r = Reader::new(buf);
    let resp = match r.u8("response tag")? {
        RESP_OK => Response::Ok,
        RESP_OPENED => Response::Opened {
            session: r.u64("opened session")?,
            n_rows: r.usize("opened rows")?,
        },
        RESP_STREAM => {
            let n = r.count(1, "stream bytes")?;
            Response::Stream(r.take(n, "stream payload")?.to_vec())
        }
        RESP_SUMMARY => {
            let n = r.count(1, "summary bytes")?;
            Response::Summary(r.take(n, "summary payload")?.to_vec())
        }
        RESP_SWEPT => {
            let n = r.count(1, "swept stream bytes")?;
            Response::Swept(r.take(n, "swept stream payload")?.to_vec())
        }
        RESP_STATUS => Response::Status(ShardStatus {
            start: r.usize("status start")?,
            n_rows: r.usize("status rows")?,
            n_cleaned: r.usize("status cleaned")?,
            pins: get_pins(&mut r)?,
        }),
        RESP_STATS => {
            let n = r.count(1, "stats bytes")?;
            Response::Stats(r.take(n, "stats payload")?.to_vec())
        }
        RESP_ERROR => Response::Error(get_string(&mut r)?),
        RESP_BUSY => Response::Busy(get_string(&mut r)?),
        RESP_EXPIRED => Response::Expired(get_string(&mut r)?),
        tag => {
            return Err(RpcError::BadTag {
                what: "response",
                tag,
            })
        }
    };
    r.finish("response")?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_requests_round_trip() {
        let cases = vec![
            Request::Scan {
                session: 7,
                val: 3,
                k: 2,
                semiring: 2,
                pins: Some(Pins::from_pairs(4, &[(1, 2), (3, 0)])),
            },
            Request::Scan {
                session: u64::MAX,
                val: 0,
                k: 1,
                semiring: 1,
                pins: None,
            },
            Request::SweptScan {
                session: 7,
                val: 3,
                k: 2,
                semiring: 2,
                row: 2,
            },
            Request::SweptScan {
                session: 1,
                val: 0,
                k: 1,
                semiring: 3,
                row: u32::MAX,
            },
            Request::ExtremeSummary {
                session: 2,
                val: 2,
                k: 3,
            },
            Request::Step {
                session: 3,
                local_row: 9,
                expect_cleaned: 4,
            },
            Request::Status { session: 11 },
            Request::Stats { session: 0 },
            Request::Stats { session: 13 },
            Request::Close { session: 12 },
            Request::Shutdown,
            Request::Ping,
            Request::Deadline {
                budget_us: 0,
                inner: Box::new(Request::Ping),
            },
            Request::Deadline {
                budget_us: u64::MAX,
                inner: Box::new(Request::Step {
                    session: 3,
                    local_row: 9,
                    expect_cleaned: 4,
                }),
            },
        ];
        for req in cases {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn deadline_envelopes_do_not_nest_and_reject_hostile_bytes() {
        let nested = Request::Deadline {
            budget_us: 5,
            inner: Box::new(Request::Deadline {
                budget_us: 5,
                inner: Box::new(Request::Ping),
            }),
        };
        assert!(matches!(
            decode_request(&encode_request(&nested)),
            Err(RpcError::Malformed(_))
        ));
        // an envelope around nothing is a truncation, not a panic
        let empty = encode_request(&Request::Deadline {
            budget_us: 9,
            inner: Box::new(Request::Ping),
        });
        for cut in 0..empty.len() {
            assert!(decode_request(&empty[..cut]).is_err(), "cut at {cut}");
        }
        // trailing bytes after the inner request are rejected by the inner
        // decoder's finish check
        let mut extended = empty;
        extended.push(0);
        assert!(decode_request(&extended).is_err());
    }

    #[test]
    fn open_round_trips() {
        let open = OpenShard {
            start: 5,
            n_labels: 3,
            k: 2,
            kernel: Kernel::Rbf { gamma: 0.5 },
            n_threads: 4,
            examples: vec![
                (0, vec![vec![0.0, 1.0]]),
                (2, vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
            ],
            val_x: vec![vec![0.5, 0.5]],
            truth_choice: vec![None, Some(1)],
            default_choice: vec![None, Some(0)],
        };
        let req = Request::Open(Box::new(open));
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Ok,
            Response::Opened {
                session: 42,
                n_rows: 12,
            },
            Response::Stream(vec![1, 2, 3]),
            Response::Summary(vec![7, 8]),
            Response::Swept(vec![4, 5, 6]),
            Response::Status(ShardStatus {
                start: 2,
                n_rows: 3,
                n_cleaned: 1,
                pins: Pins::single(3, 1, 0),
            }),
            Response::Stats(vec![1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            Response::Error("nope".into()),
            Response::Busy("sessions at capacity".into()),
            Response::Expired("queued 3ms past a 1ms budget".into()),
        ];
        for resp in cases {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn delta_open_compresses_candidate_grids() {
        // a realistic dirty column: candidates are near-identical imputations
        let examples = (0..64)
            .map(|i| {
                let base = 10.0 + i as f64 * 0.125;
                (i % 2, vec![vec![base, 1.0], vec![base + 0.5, 1.0]])
            })
            .collect();
        let open = OpenShard {
            start: 0,
            n_labels: 2,
            k: 3,
            kernel: Kernel::default(),
            n_threads: 1,
            examples,
            val_x: vec![vec![10.5, 1.0]; 8],
            truth_choice: vec![Some(0); 64],
            default_choice: vec![Some(1); 64],
        };
        let mut delta = Vec::new();
        put_open(&mut delta, &open, open.n_threads);
        let raw = raw_open_size(&open);
        assert!(
            delta.len() * 2 < raw,
            "delta {} bytes vs fixed-width {} bytes — expected at least 2x",
            delta.len(),
            raw
        );
    }

    /// The byte size of the retired fixed-width `Open` layout: every count
    /// and index a `u32`, `start` a `u64`, every feature an 8-byte `f64`,
    /// every choice a presence byte plus a `u32`.
    fn raw_open_size(open: &OpenShard) -> usize {
        let points = |ps: &[Vec<f64>]| 4 + ps.iter().map(|p| 4 + 8 * p.len()).sum::<usize>();
        let choices = |cs: &[Option<u32>]| {
            4 + cs
                .iter()
                .map(|c| 1 + 4 * c.is_some() as usize)
                .sum::<usize>()
        };
        let kernel = match open.kernel {
            Kernel::Rbf { .. } => 9,
            _ => 1,
        };
        // tag + version, start, n_labels, k, kernel, n_threads, n_examples
        2 + 8
            + 4
            + 4
            + kernel
            + 4
            + 4
            + open
                .examples
                .iter()
                .map(|(_, c)| 4 + points(c))
                .sum::<usize>()
            + points(&open.val_x)
            + choices(&open.truth_choice)
            + choices(&open.default_choice)
    }

    #[test]
    fn truncated_and_hostile_open_payloads_never_panic() {
        let open = OpenShard {
            start: 1,
            n_labels: 2,
            k: 1,
            kernel: Kernel::Rbf { gamma: 0.25 },
            n_threads: 1,
            examples: vec![(0, vec![vec![4.0], vec![5.0]]), (1, vec![vec![6.0]])],
            val_x: vec![vec![1.0]],
            truth_choice: vec![Some(1), None],
            default_choice: vec![Some(0), None],
        };
        let mut good = Vec::new();
        put_open(&mut good, &open, 1);
        assert!(decode_request(&good).is_ok());
        // every prefix fails cleanly
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "cut at {cut}");
        }
        // every single-byte corruption decodes, errors, or round-trips —
        // but never panics
        for i in 0..good.len() {
            let mut bytes = good.clone();
            bytes[i] ^= 0xFF;
            let _ = decode_request(&bytes);
        }
        // any version but the delta layout is a bad tag — version 1 is the
        // retired fixed-width layout
        for version in [0, 1, 3, 77] {
            let mut bytes = good.clone();
            bytes[1] = version;
            assert!(
                matches!(
                    decode_request(&bytes),
                    Err(RpcError::BadTag {
                        what: "open version",
                        tag,
                    }) if tag == version
                ),
                "version {version}"
            );
        }
        // hostile counts are rejected before allocation
        let mut hostile = vec![REQ_OPEN, OPEN_V_DELTA];
        hostile.push(0); // start
        hostile.push(2); // n_labels
        hostile.push(1); // k
        hostile.push(1); // kernel NegEuclidean
        hostile.push(1); // n_threads
        hostile.extend_from_slice(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]); // huge n_examples
        assert!(matches!(
            decode_request(&hostile),
            Err(RpcError::Truncated { .. })
        ));
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            decode_request(&[0xfe]),
            Err(RpcError::BadTag {
                what: "request",
                ..
            })
        ));
        // tag 4, retired: a session id, then a length-prefixed bit vector
        let mut retired = vec![4];
        put_u64(&mut retired, 3);
        put_u32(&mut retired, 2);
        retired.extend_from_slice(&[1, 0]);
        assert!(matches!(
            decode_request(&retired),
            Err(RpcError::BadTag {
                what: "request",
                tag: 4,
            })
        ));
        assert!(matches!(
            decode_response(&[0xfe]),
            Err(RpcError::BadTag {
                what: "response",
                ..
            })
        ));
        assert!(matches!(
            decode_request(&[]),
            Err(RpcError::Truncated { .. })
        ));
    }
}
