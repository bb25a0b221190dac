//! The coordinator client: drives N shard servers through the merged-scan
//! logic of `cp-shard` and exposes the same
//! `step()` / `status()` / `run_to_convergence()` / `run_order()` surface as
//! the in-process [`cp_clean::CleaningSession`]. It is the one sharded
//! engine; in one process its servers run on loopback ports
//! ([`crate::spawn_server`]).
//!
//! An [`RpcCoordinator`] owns the global problem, the cleaning state and the
//! CP status vector; shard servers own everything partition-local (rows,
//! similarity indexes, pin masks), and every scan, swept scan and summary
//! runs under the server session's own pins. A status refresh sends every server one
//! pipelined window with one status request per uncertain validation
//! point, and a cleaning step puts its `Step` at the head of the owning
//! server's window, so the requests behind it see the new pin. For binary
//! labels each request is an [`ExtremeSummary`], folded by
//! rank with [`cp_shard::certain_label_from_summaries`]; otherwise it is a
//! `Possibility` stream, merged with
//! [`cp_shard::certain_label_from_streams`]. Certainty stays on this side:
//! a server holds only each session's pins and cleaned rows.
//!
//! Per greedy selection the coordinator fetches each shard's base
//! probability stream once and, for every (validation point, row) the
//! selection misses, one *swept* stream from the row's owning shard only
//! ([`ShardClient::swept_scan`]): the owner's scan at its base `τ_s` with
//! the row's leaf held at the identity. One merged scan against the other
//! shards' cached base streams then answers every pin of the row
//! ([`cp_shard::merged_sweep_sources`]): pinning a row changes only its
//! owner's mask, and the row's two leaf states are its label's merged
//! polynomial as it is and shifted up one degree. The coordinator's status
//! vectors, greedy choices and cleaned orders are **identical** to
//! `CleaningSession`'s, and its Q2 counts to the merge of the same shards'
//! streams captured in process (`cp_shard::q2_from_streams_with_algorithm`)
//! bit for bit — property-tested over real loopback sockets in
//! `tests/rpc_equivalence.rs`; every swept entropy is bit for bit the
//! merged scan with the owner's stream under that one pin (the per-pin
//! oracle in this module's tests).
//!
//! Selection runs the shared *incremental* loop
//! ([`cp_clean::select_next_incremental`]: relevance-based score caching
//! plus entropy-bound pruning), so a step sends one swept scan per cache
//! miss and refetches a base stream only from a shard whose pin mask moved
//! (base streams are cached per validation point, in RAM or spilled to
//! disk). The from-scratch serialized scorer, which scans every pin of
//! every row on its own, survives as
//! [`RpcCoordinator::try_select_next_serialized`] — the reference the
//! equivalence tests pit the incremental path against.

use crate::codec::{
    decode_stream, decode_summary, decode_swept, read_frame_tagged, write_frame_tagged,
    WireSemiring, READ_BUFFER_BYTES,
};
use crate::error::{RpcError, RpcResult};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::journal::ShardJournal;
use crate::proto::{
    decode_response, encode_request, OpenShard, Request, Response, SessionId, ShardStatus,
};
use crate::retry::{Admission, Attempt, CircuitBreaker, RetryPolicy};
use crate::server::U128_OVERFLOW;
use crate::spill::CachedStream;
use cp_clean::metrics::CleaningRun;
use cp_clean::{
    pick_min_expected_entropy, select_next_incremental, CleaningEngine, CleaningProblem,
    CleaningState, RunOptions, SelectionBackend, SelectionCache,
};
use cp_core::{DatasetShard, ExtremeSummary, Pins, Q2Algorithm, Q2Result};
use cp_knn::Label;
use cp_numeric::stats::entropy_bits;
use cp_numeric::Possibility;
use cp_shard::scan::{
    certain_label_from_streams, certain_label_from_summaries, local_pins,
    q2_from_streams_with_algorithm,
};
use cp_shard::{merged_scan_sources, merged_sweep_sources, ShardStream, StreamCursor, SweptStream};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Connection policy for a [`ShardClient`] — the transport-hardening knobs
/// for serving beyond loopback.
///
/// *Timeouts* bound how long a coordinator can hang on an unresponsive
/// peer: `connect_timeout` caps the TCP handshake, `read_timeout` /
/// `write_timeout` cap each half of a request round trip (an expired
/// timeout surfaces as an [`RpcError::Io`]).
///
/// *Retries* share one [`RetryPolicy`] (see [`ClientConfig::retry_policy`]):
/// `connect_retries` extra attempts under capped exponential backoff
/// (`retry_backoff` base, `backoff_cap` ceiling) with deterministic seeded
/// jitter (`retry_jitter_seed`). The same policy drives connection establishment,
/// `Busy`/`Expired` retries, and the coordinator's request-level recovery
/// loop. The client itself never blindly retries an in-flight request:
/// mid-session failures surface to the caller, and
/// [`RpcCoordinator`]'s recovery path owns the retry decision — `Step`
/// carries the cleaned-count it expects and is idempotent on the server,
/// so a reconnect-and-retransmit (or a full failover replay through
/// [`crate::journal::ShardJournal`]) never double-pins.
///
/// *Failover*: when a transport failure cannot be cured by re-dialing the
/// same address, the coordinator re-dials `fallback_addrs` in rotation,
/// re-`Open`s and replays its journal. *Deadlines*: `request_deadline`
/// stamps every request with a wire-carried budget the server sheds
/// expired work against ([`RpcError::Expired`]). *Breakers*:
/// [`BREAKER_THRESHOLD`] consecutive failures against one shard fail fast
/// for `breaker_cooldown`, then half-open-probe with the lightweight
/// `Ping`. *Chaos*: a seeded [`FaultPlan`] injects deterministic transport
/// faults on everything this client sends.
///
/// The default is the pre-hardening behavior: no timeouts, no retries.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Cap on each TCP connect attempt (`None` = the OS default).
    pub connect_timeout: Option<Duration>,
    /// Cap on blocking reads of one response (`None` = block forever).
    pub read_timeout: Option<Duration>,
    /// Cap on blocking writes of one request (`None` = block forever).
    pub write_timeout: Option<Duration>,
    /// Extra connect attempts after the first fails with an I/O error.
    pub connect_retries: u32,
    /// Backoff before the first retry (doubled per further retry, capped by
    /// `backoff_cap`, jittered by `retry_jitter_seed`).
    pub retry_backoff: Duration,
    /// Ceiling on any single (pre-jitter) backoff pause.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter: clients seeded apart
    /// decorrelate their redial storms; equal seeds reproduce exactly.
    pub retry_jitter_seed: u64,
    /// Replacement servers for failover, tried in rotation after re-dialing
    /// the failed shard's own address. Empty = failover only ever re-dials
    /// the original address.
    pub fallback_addrs: Vec<String>,
    /// When set, every request ships inside a `Deadline` envelope with this
    /// budget; the server sheds requests whose budget expired in its queue
    /// (retryable [`RpcError::Expired`]) instead of doing dead work.
    pub request_deadline: Option<Duration>,
    /// How long an open breaker fails fast before admitting a half-open
    /// `Ping` probe.
    pub breaker_cooldown: Duration,
    /// Deterministic fault injection on everything this client writes (see
    /// [`FaultPlan`]); dials can also be refused. `None` = clean transport.
    pub chaos: Option<FaultPlan>,
    /// Out-of-core knob: a cached base stream with at least this many
    /// boundary events is written to an on-disk run (`cp-store`) as the
    /// wire bytes it arrived in, instead of held in RAM, and decoded back
    /// when a scan needs it ([`CachedStream::load`]) — `0` spills every
    /// base stream. `None` (the default) falls back to the
    /// `CP_SPILL_THRESHOLD` environment variable, and spilling stays off
    /// when that is unset too. `Some(usize::MAX)` forces spilling off even
    /// when the environment variable is set.
    pub spill_threshold: Option<usize>,
    /// Where spilled runs live. `None` = a fresh process-unique directory
    /// under the OS temp dir, removed when the coordinator drops.
    pub spill_dir: Option<PathBuf>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            connect_retries: 0,
            retry_backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
            retry_jitter_seed: 0,
            fallback_addrs: Vec::new(),
            request_deadline: None,
            breaker_cooldown: Duration::from_millis(100),
            chaos: None,
            spill_threshold: None,
            spill_dir: None,
        }
    }
}

impl ClientConfig {
    /// The one [`RetryPolicy`] every retry loop under this config runs:
    /// `connect_retries + 1` total attempts, capped exponential backoff
    /// with seeded jitter.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            attempts: self.connect_retries.saturating_add(1),
            base: self.retry_backoff,
            cap: self.backoff_cap,
            seed: self.retry_jitter_seed,
        }
    }
}

/// The client's transport: a plain socket, or one wrapped in seeded fault
/// injection ([`ClientConfig::chaos`]). Timeouts are set on the underlying
/// `TcpStream` before wrapping, so they apply either way. A [`ShardClient`]
/// reads it through a [`BufReader`] of [`READ_BUFFER_BYTES`] and writes each
/// frame to it in one `write` (see the codec's frame I/O docs).
#[derive(Debug)]
enum Conn {
    Plain(TcpStream),
    Chaos(FaultyTransport<TcpStream>),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Plain(s) => s.read(buf),
            Conn::Chaos(t) => t.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Plain(s) => s.write(buf),
            Conn::Chaos(t) => t.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Plain(s) => s.flush(),
            Conn::Chaos(t) => t.flush(),
        }
    }
}

/// Consecutive transport failures against one shard before its circuit
/// breaker opens (fail fast, no socket work).
pub const BREAKER_THRESHOLD: u32 = 8;

/// How many pipelined requests a window (`ShardClient::pipeline`) keeps in
/// flight per connection: enough to hide the per-request round-trip
/// latency, small enough that neither side's socket buffers fill with
/// unread frames while the peer blocks writing (which would deadlock the
/// connection).
const SCAN_WINDOW: usize = 8;

/// A connection to one shard server.
#[derive(Debug)]
pub struct ShardClient {
    /// The connection and its read buffer, replaced whole by every
    /// (re)dial: bytes buffered from a poisoned connection die with it.
    stream: BufReader<Conn>,
    /// Resolved peer addresses and the policy they were dialed under, kept
    /// so [`ShardClient::reconnect`] can re-dial the same server.
    peers: Vec<SocketAddr>,
    cfg: ClientConfig,
    /// Id stamped on the next request frame. The server echoes each id on
    /// its response, which is what lets a pipelined window keep several
    /// requests in flight and still pair every reply.
    next_id: u32,
    /// Set after a transport-level failure (I/O error, timeout, mid-frame
    /// truncation, oversized frame) or a reply id ahead of the expected
    /// one. The stream
    /// may sit mid-frame or hold replies this client no longer tracks —
    /// reusing it could hand the *next* call a stale answer. A poisoned
    /// client refuses further calls with a typed error;
    /// [`ShardClient::reconnect`] recovers.
    poisoned: bool,
    /// The server-minted session this client drives (`0` = none opened).
    /// Sessions belong to the server process, not the connection, so
    /// [`ShardClient::reconnect`] keeps it — which is what lets the
    /// idempotent-`Step` retransmission land on the *same* session's state
    /// after a transport failure.
    session: SessionId,
    /// Per-peer round-trip-time histogram (`rpc.client.rtt_us.<addr>`),
    /// resolved once at connect so the per-call cost is one record.
    rtt_hist: cp_obs::Histogram,
}

impl ShardClient {
    /// Connect to a server with the default (no-timeout, no-retry) policy.
    /// `TCP_NODELAY` is set: each frame already leaves in one `write`, and
    /// Nagle would only hold the next frame of a pipelined window back
    /// until the peer acknowledges the one before it.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> RpcResult<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connect under an explicit [`ClientConfig`]: bounded retries on I/O
    /// failure during establishment, then per-call read/write timeouts for
    /// the connection's lifetime.
    pub fn connect_with<A: ToSocketAddrs>(addr: A, cfg: &ClientConfig) -> RpcResult<Self> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::establish(&peers, cfg)?;
        let rtt_hist = match peers.first() {
            Some(peer) => cp_obs::histogram(&format!("rpc.client.rtt_us.{peer}")),
            None => cp_obs::histogram("rpc.client.rtt_us.unresolved"),
        };
        Ok(ShardClient {
            stream,
            peers,
            cfg: cfg.clone(),
            next_id: 0,
            poisoned: false,
            session: 0,
            rtt_hist,
        })
    }

    /// Drop the (possibly poisoned) connection and dial the same peer again
    /// under the same policy. On success the client is fresh — unpoisoned,
    /// request ids restarting from zero — but still bound to its session:
    /// sessions belong to the server process and survive reconnects.
    pub fn reconnect(&mut self) -> RpcResult<()> {
        cp_obs::counter!("rpc.client.reconnects").inc();
        self.stream = Self::establish(&self.peers, &self.cfg)?;
        self.next_id = 0;
        self.poisoned = false;
        Ok(())
    }

    /// Re-point this client at a (possibly different) server under the same
    /// policy — the failover half-step. Unlike [`ShardClient::reconnect`]
    /// the session binding does **not** survive: the new server has no
    /// session for us until the caller re-`Open`s (a
    /// [`crate::journal::ShardJournal::replay`] does exactly that).
    pub fn redial<A: ToSocketAddrs>(&mut self, addr: A) -> RpcResult<()> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = Self::establish(&peers, &self.cfg)?;
        self.rtt_hist = match peers.first() {
            Some(peer) => cp_obs::histogram(&format!("rpc.client.rtt_us.{peer}")),
            None => cp_obs::histogram("rpc.client.rtt_us.unresolved"),
        };
        self.peers = peers;
        self.stream = stream;
        self.next_id = 0;
        self.poisoned = false;
        self.session = 0;
        Ok(())
    }

    /// The remembered peer address this client (re)dials, as `host:port`.
    pub fn peer_addr(&self) -> Option<String> {
        self.peers.first().map(|p| p.to_string())
    }

    /// Dial a fresh connection with an empty read buffer.
    fn establish(peers: &[SocketAddr], cfg: &ClientConfig) -> RpcResult<BufReader<Conn>> {
        let dial = || {
            // a chaos plan can refuse the dial outright, before any socket
            // work — the deterministic stand-in for a crashed listener
            if cfg
                .chaos
                .as_ref()
                .is_some_and(|plan| plan.should_refuse_dial())
            {
                return Attempt::Retry(RpcError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "dial refused by fault injection",
                )));
            }
            match Self::connect_once(peers, cfg) {
                Ok(stream) => {
                    let conn = match &cfg.chaos {
                        Some(plan) => Conn::Chaos(FaultyTransport::new(stream, plan.schedule())),
                        None => Conn::Plain(stream),
                    };
                    Attempt::Done(Ok(BufReader::with_capacity(READ_BUFFER_BYTES, conn)))
                }
                // only transport-level failures are worth another attempt
                Err(e @ RpcError::Io(_)) => Attempt::Retry(e),
                Err(other) => Attempt::Done(Err(other)),
            }
        };
        cfg.retry_policy().run(1, dial, |_| {
            cp_obs::counter!("rpc.client.connect_retries").inc()
        })
    }

    fn connect_once(peers: &[SocketAddr], cfg: &ClientConfig) -> RpcResult<TcpStream> {
        // try each resolved address like `TcpStream::connect` does
        let mut last_io: Option<std::io::Error> = None;
        let mut connected = None;
        for sock_addr in peers {
            let attempt = match cfg.connect_timeout {
                None => TcpStream::connect(sock_addr),
                Some(timeout) => TcpStream::connect_timeout(sock_addr, timeout),
            };
            match attempt {
                Ok(s) => {
                    connected = Some(s);
                    break;
                }
                Err(e) => last_io = Some(e),
            }
        }
        let Some(stream) = connected else {
            return Err(RpcError::Io(last_io.unwrap_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "address resolved to no socket addresses",
                )
            })));
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(cfg.read_timeout)?;
        stream.set_write_timeout(cfg.write_timeout)?;
        Ok(stream)
    }

    /// Whether a transport failure has made this connection unusable (see
    /// the `poisoned` field docs; every later [`ShardClient::call`] fails).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// One request/response round trip.
    ///
    /// A transport-level failure (I/O error/timeout, truncated or oversized
    /// frame, a reply id from the future) **poisons** the connection: the
    /// request/response pairing can no longer be trusted, so every
    /// subsequent call fails with a typed [`RpcError::Protocol`] instead of
    /// silently reading a stale response. A reply to an *earlier* request —
    /// the echo of a duplicated frame — is discarded and counted in
    /// `rpc.client.stale_replies`. Payload-level decode failures (a
    /// complete frame that doesn't parse) leave the stream at a frame
    /// boundary and do not poison.
    pub fn call(&mut self, req: &Request) -> RpcResult<Response> {
        let watch = cp_obs::Stopwatch::start();
        let id = self.send(req)?;
        let resp = self.recv(id)?;
        // completed round trips only — a timeout or transport failure is
        // counted by `recv`, not smeared into the latency distribution
        let us = watch.elapsed_us();
        self.rtt_hist.record_us(us);
        cp_obs::histogram!("rpc.client.rtt_us").record_us(us);
        Ok(resp)
    }

    /// Write one request frame without waiting for its reply; returns the
    /// id the reply will echo. The pipelining half-step the windows of
    /// `ShardClient::pipeline` build on.
    fn send(&mut self, req: &Request) -> RpcResult<u32> {
        if self.poisoned {
            return Err(RpcError::Protocol(
                "connection poisoned by an earlier transport failure; reconnect to recover".into(),
            ));
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        // under a request deadline every request ships inside an envelope:
        // the server sheds it (retryable Expired) if the budget passes while
        // it queues, instead of doing work nobody is waiting for
        let payload = match self.cfg.request_deadline {
            Some(d) if !matches!(req, Request::Deadline { .. }) => {
                // a live deadline is never the zero "pre-expired" sentinel
                let budget_us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1);
                encode_request(&Request::Deadline {
                    budget_us,
                    inner: Box::new(req.clone()),
                })
            }
            _ => encode_request(req),
        };
        match write_frame_tagged(self.stream.get_mut(), id, &payload) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Read the response frame that echoes `expect_id`. The server answers
    /// strictly in request order and ids run in order (modulo wrap), so a
    /// reply with an earlier id answers a request whose reply was already
    /// read — a duplicated request or reply frame — and is skipped. Any
    /// other id means the pairing is lost, and the connection poisons.
    fn recv(&mut self, expect_id: u32) -> RpcResult<Response> {
        if self.poisoned {
            return Err(RpcError::Protocol(
                "connection poisoned by an earlier transport failure; reconnect to recover".into(),
            ));
        }
        loop {
            match read_frame_tagged(&mut self.stream) {
                Ok((id, frame)) if id == expect_id => return decode_response(&frame),
                Ok((id, _)) if (expect_id.wrapping_sub(id) as i32) > 0 => {
                    cp_obs::counter!("rpc.client.stale_replies").inc();
                }
                Ok((id, _)) => {
                    self.poisoned = true;
                    return Err(RpcError::Protocol(format!(
                        "response id {id} does not match request id {expect_id}"
                    )));
                }
                Err(e) => {
                    // the stream may sit mid-frame or hold a late response
                    self.poisoned = true;
                    if matches!(
                        &e,
                        RpcError::Io(io)
                            if io.kind() == std::io::ErrorKind::TimedOut
                                || io.kind() == std::io::ErrorKind::WouldBlock
                    ) {
                        cp_obs::counter!("rpc.client.timeouts").inc();
                    } else {
                        cp_obs::counter!("rpc.client.transport_errors").inc();
                    }
                    return Err(e);
                }
            }
        }
    }

    /// The typed error for a response that isn't the expected payload kind:
    /// remote rejections, retryable `Busy`/`Expired` shedding, and genuine
    /// protocol surprises, uniformly across every typed helper.
    fn unexpected(kind: &'static str, resp: Response) -> RpcError {
        match resp {
            Response::Error(msg) => RpcError::Remote(msg),
            Response::Busy(msg) => RpcError::Busy(msg),
            Response::Expired(msg) => RpcError::Expired(msg),
            other => RpcError::Protocol(format!("expected {kind}, got {other:?}")),
        }
    }

    /// Send `req` and require the bare `Ok` acknowledgement (`Shutdown`,
    /// and any session-scoped request whose reply carries no payload).
    pub fn expect_ok(&mut self, req: &Request) -> RpcResult<()> {
        match self.call(req)? {
            Response::Ok => Ok(()),
            other => Err(Self::unexpected("Ok", other)),
        }
    }

    /// The lightweight liveness probe: no session, no state, one tiny round
    /// trip — what a half-open circuit breaker sends before committing real
    /// work to a possibly-still-dead shard.
    pub fn ping(&mut self) -> RpcResult<()> {
        self.expect_ok(&Request::Ping)
    }

    /// The server-minted session this client drives (`0` until
    /// [`ShardClient::open`] succeeds).
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Open a cleaning session over a shard, binding this client to the
    /// minted [`SessionId`] and returning the opened row count. An
    /// admission-control refusal surfaces as the retryable
    /// [`RpcError::Busy`].
    pub fn open(&mut self, open: OpenShard) -> RpcResult<usize> {
        match self.call(&Request::Open(Box::new(open)))? {
            Response::Opened { session, n_rows } => {
                self.session = session;
                Ok(n_rows)
            }
            other => Err(Self::unexpected("Opened", other)),
        }
    }

    /// Free this client's session on the server (the connection stays
    /// usable; a later [`ShardClient::open`] can mint a fresh one).
    pub fn close(&mut self) -> RpcResult<()> {
        let session = self.session;
        self.session = 0;
        self.expect_ok(&Request::Close { session })
    }

    /// Apply one idempotent cleaning step to this client's session.
    pub fn step(&mut self, local_row: u32, expect_cleaned: u32) -> RpcResult<()> {
        let session = self.session;
        self.expect_ok(&Request::Step {
            session,
            local_row,
            expect_cleaned,
        })
    }

    /// Request one batched scan stream in semiring `S`.
    pub fn scan<S: WireSemiring>(
        &mut self,
        val: usize,
        k: usize,
        pins: Option<&Pins>,
    ) -> RpcResult<ShardStream<S>> {
        decode_stream::<S>(&self.scan_payload::<S>(val, k, pins)?)
    }

    /// [`ShardClient::scan`]'s reply payload, not yet decoded.
    fn scan_payload<S: WireSemiring>(
        &mut self,
        val: usize,
        k: usize,
        pins: Option<&Pins>,
    ) -> RpcResult<Vec<u8>> {
        let req = Request::Scan {
            session: self.session,
            val: val as u32,
            k: k as u32,
            semiring: S::TAG,
            pins: pins.cloned(),
        };
        match self.call(&req)? {
            Response::Stream(bytes) => Ok(bytes),
            other => Err(Self::unexpected("Stream", other)),
        }
    }

    /// Request the owner's half of a merged pin sweep in semiring `S`: one
    /// stream that answers every pin of shard-local row `row` for
    /// validation point `val` under the session's pins, in which the row
    /// must be unpinned.
    pub fn swept_scan<S: WireSemiring>(
        &mut self,
        val: usize,
        k: usize,
        row: usize,
    ) -> RpcResult<SweptStream<S>> {
        let req = Request::SweptScan {
            session: self.session,
            val: val as u32,
            k: k as u32,
            semiring: S::TAG,
            row: row as u32,
        };
        match self.call(&req)? {
            Response::Swept(bytes) => decode_swept::<S>(&bytes),
            other => Err(Self::unexpected("Swept", other)),
        }
    }

    /// Send a window of requests down this connection, keeping up to
    /// `SCAN_WINDOW` (8) in flight, and hand each response, in request
    /// order and with its position, to `decode`. The server answers one
    /// connection strictly in request order, so a request sees every
    /// earlier request's effect — a status request behind a `Step` reads
    /// the new pin.
    ///
    /// Returns the decoded replies before the first failure and the
    /// failure, if any. Past a failure nothing more is sent, and the
    /// replies still in flight are drained so the connection stays at a
    /// frame boundary and remains usable (transport failures have already
    /// poisoned it, which stops the drain).
    fn pipeline<T>(
        &mut self,
        reqs: impl IntoIterator<Item = Request>,
        mut decode: impl FnMut(usize, Response) -> RpcResult<T>,
    ) -> (Vec<T>, RpcResult<()>) {
        cp_obs::counter!("rpc.client.windows").inc();
        let mut reqs = reqs.into_iter();
        let mut out = Vec::new();
        let mut pending: VecDeque<u32> = VecDeque::new();
        let mut failure: Option<RpcError> = None;
        loop {
            while failure.is_none() && pending.len() < SCAN_WINDOW {
                let Some(req) = reqs.next() else { break };
                match self.send(&req) {
                    Ok(id) => {
                        pending.push_back(id);
                        // in-flight window occupancy, sampled after each send
                        // (values 1..=SCAN_WINDOW land in distinct µs-ladder
                        // buckets, so the histogram doubles as an exact tally)
                        cp_obs::histogram!("rpc.client.scan_window")
                            .record_us(pending.len() as u64);
                    }
                    Err(e) => failure = Some(e),
                }
            }
            let Some(id) = pending.pop_front() else { break };
            if self.poisoned {
                break;
            }
            let reply = self.recv(id).and_then(|resp| decode(out.len(), resp));
            match (reply, &failure) {
                (Ok(reply), None) => out.push(reply),
                (Err(e), None) => failure = Some(e),
                _ => {} // draining past the first failure
            }
        }
        (out, failure.map_or(Ok(()), Err))
    }

    /// Request one rank-ordered extreme summary under the session's
    /// current pins — the binary-Q1 status exchange: `O(|Y|·K)` entries
    /// instead of a whole scan stream.
    pub fn extreme_summary(&mut self, val: usize, k: usize) -> RpcResult<ExtremeSummary> {
        let req = Request::ExtremeSummary {
            session: self.session,
            val: val as u32,
            k: k as u32,
        };
        match self.call(&req)? {
            Response::Summary(bytes) => decode_summary(&bytes),
            other => Err(Self::unexpected("Summary", other)),
        }
    }

    /// Fetch the server's live metrics: session `0` for the whole remote
    /// process, a real [`SessionId`] (e.g. [`ShardClient::session`]) to
    /// restrict to that session's own counters. The returned
    /// [`cp_obs::Snapshot`] decodes on this side regardless of whether this
    /// build compiled its *own* metrics out.
    pub fn stats(&mut self, session: SessionId) -> RpcResult<cp_obs::Snapshot> {
        match self.call(&Request::Stats { session })? {
            Response::Stats(bytes) => cp_obs::Snapshot::decode(&bytes)
                .map_err(|e| RpcError::Malformed(format!("stats snapshot: {e}"))),
            other => Err(Self::unexpected("Stats", other)),
        }
    }

    /// Ask for this client's session view on the server.
    pub fn status(&mut self) -> RpcResult<ShardStatus> {
        let req = Request::Status {
            session: self.session,
        };
        match self.call(&req)? {
            Response::Status(status) => Ok(status),
            other => Err(Self::unexpected("Status", other)),
        }
    }
}

/// A cleaning run distributed over shard servers, answering through the
/// merged-scan algebra of `cp-shard` over decoded streams.
#[derive(Debug)]
pub struct RpcCoordinator {
    problem: Arc<CleaningProblem>,
    opts: RunOptions,
    shards: Vec<DatasetShard>,
    /// `owner[row]` = index of the shard (and server) owning a global row.
    owner: Vec<usize>,
    /// The client policy every per-shard connection (and failover re-dial)
    /// runs under.
    cfg: ClientConfig,
    /// One connection per shard; `RefCell` because the engine surface takes
    /// `&self` for selection while each call is a socket round trip.
    clients: Vec<RefCell<ShardClient>>,
    /// Per-shard rebuild recipes: the canonical `Open` payload plus the
    /// ordered applied-pin log — everything failover needs to replay a lost
    /// session onto a replacement server.
    journals: Vec<RefCell<ShardJournal>>,
    /// Per-shard circuit breakers over the recovery loop.
    breakers: Vec<RefCell<CircuitBreaker>>,
    /// Rotating cursor into [`ClientConfig::fallback_addrs`], shared by all
    /// shards so successive failovers spread over the replacement pool.
    fallback_cursor: Cell<usize>,
    /// Completed failovers (exact-ledger twin of `rpc.client.failovers`).
    failovers: Cell<u64>,
    /// Pins replayed by failovers (twin of `rpc.client.pins_replayed`).
    pins_replayed: Cell<u64>,
    /// Per-shard pin counter, bumped once per [`RpcCoordinator::clean`] on
    /// the owning shard. It is both the cleaned-count an idempotent `Step`
    /// carries and the staleness key of `base_streams`.
    mask_epochs: Vec<u64>,
    state: CleaningState,
    cp: Vec<bool>,
    /// Global effective K, computed once from the full dataset.
    k: usize,
    /// Incremental-selection state shared with the in-process engine
    /// (pin-log epochs, per-point relevance, memoized entropies).
    sel: RefCell<SelectionCache>,
    /// Per-validation-point base streams tagged with the `mask_epochs` they
    /// were fetched under; only shards whose mask moved are refetched
    /// ([`RpcCoordinator::with_base_streams`]).
    base_streams: RefCell<Vec<Option<BaseStreams>>>,
    /// Out-of-core policy; `None` keeps every stream in RAM.
    spill: Option<SpillState>,
}

/// One status reply from a shard: an extreme summary (binary) or a
/// `Possibility` stream (multiclass).
#[derive(Debug)]
enum StatusReply {
    Summary(ExtremeSummary),
    Stream(ShardStream<Possibility>),
}

/// One cached base-stream set: the per-shard mask epochs at capture time
/// plus one `f64` stream per shard (in RAM or spilled to disk).
type BaseStreams = (Vec<u64>, Vec<CachedStream<f64>>);

/// The resolved out-of-core policy of one coordinator (see
/// [`ClientConfig::spill_threshold`]).
#[derive(Debug)]
struct SpillState {
    /// Streams with at least this many boundary events go to disk.
    threshold: usize,
    /// Where run files are written.
    dir: PathBuf,
    /// Whether this coordinator created `dir` (and removes it on drop).
    owned: bool,
    /// Uniquifier for run file names.
    seq: Cell<u64>,
}

impl SpillState {
    /// The policy a [`ClientConfig`] asks for: the explicit threshold, or
    /// the `CP_SPILL_THRESHOLD` environment variable (the hook CI uses to
    /// spill every base stream of the suite), or off.
    fn resolve(cfg: &ClientConfig) -> RpcResult<Option<Self>> {
        let env = || {
            std::env::var("CP_SPILL_THRESHOLD")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
        };
        let Some(threshold) = cfg.spill_threshold.or_else(env) else {
            return Ok(None);
        };
        if threshold == usize::MAX {
            // explicitly disabled: no stream can reach the threshold
            return Ok(None);
        }
        let (dir, owned) = match &cfg.spill_dir {
            Some(dir) => (dir.clone(), false),
            None => {
                static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
                let dir = std::env::temp_dir().join(format!(
                    "cp-spill-{}-{}",
                    std::process::id(),
                    NEXT_DIR.fetch_add(1, Ordering::Relaxed)
                ));
                (dir, true)
            }
        };
        std::fs::create_dir_all(&dir)?;
        Ok(Some(SpillState {
            threshold,
            dir,
            owned,
            seq: Cell::new(0),
        }))
    }

    fn next_path(&self, tag: &str) -> PathBuf {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.dir.join(format!("{tag}-{seq}.run"))
    }
}

impl RpcCoordinator {
    /// Connect to shard servers and distribute the problem: partition the
    /// dataset over (at most) `addrs.len()` shards — clamped to the row
    /// count exactly like [`cp_core::IncompleteDataset::partition`] — ship
    /// each shard to its server via [`Request::Open`], and evaluate the
    /// initial global CP status by merged stream scans. Servers beyond the
    /// clamped arity are left untouched.
    ///
    /// # Panics
    /// Panics if `addrs` is empty or the problem does not validate.
    pub fn connect<A: ToSocketAddrs>(
        problem: &CleaningProblem,
        addrs: &[A],
        opts: &RunOptions,
    ) -> RpcResult<Self> {
        Self::connect_with(problem, addrs, opts, &ClientConfig::default())
    }

    /// [`RpcCoordinator::connect`] under an explicit [`ClientConfig`]
    /// (connect/read/write timeouts and bounded connect retries per shard
    /// server).
    ///
    /// # Panics
    /// Panics if `addrs` is empty or the problem does not validate.
    pub fn connect_with<A: ToSocketAddrs>(
        problem: &CleaningProblem,
        addrs: &[A],
        opts: &RunOptions,
        client_cfg: &ClientConfig,
    ) -> RpcResult<Self> {
        assert!(!addrs.is_empty(), "need at least one shard server");
        problem.validate();
        let problem = Arc::new(problem.clone());
        let shards = problem.dataset.partition(addrs.len());
        let mut owner = vec![0usize; problem.dataset.len()];
        for (s, sh) in shards.iter().enumerate() {
            for row in sh.rows() {
                owner[row] = s;
            }
        }
        let k = problem.config.k_eff(problem.dataset.len());
        let mut clients = Vec::with_capacity(shards.len());
        let mut journals = Vec::with_capacity(shards.len());
        for (sh, addr) in shards.iter().zip(addrs) {
            let mut client = ShardClient::connect_with(addr, client_cfg)?;
            let open = Arc::new(OpenShard {
                start: sh.start(),
                n_labels: sh.dataset().n_labels(),
                k: problem.config.k,
                kernel: problem.config.kernel,
                n_threads: opts.n_threads.max(1),
                examples: (0..sh.len())
                    .map(|i| {
                        let ex = sh.dataset().example(i);
                        (ex.label, ex.candidates.clone())
                    })
                    .collect(),
                val_x: problem.val_x.as_ref().clone(),
                truth_choice: slice_choices(&problem.truth_choice, sh),
                default_choice: slice_choices(&problem.default_choice, sh),
            });
            // a Busy refusal (session cap on a multi-tenant server) and a
            // deadline-shed Open are retryable under the same policy as
            // connect itself, since load drains as other coordinators
            // close their sessions
            let open_once = || match client.open((*open).clone()) {
                Err(e) if e.is_retryable() => Attempt::Retry(e),
                result => Attempt::Done(result),
            };
            let n_rows = client_cfg.retry_policy().run(1, open_once, |e| match e {
                RpcError::Expired(_) => cp_obs::counter!("rpc.client.expired_retries").inc(),
                _ => cp_obs::counter!("rpc.client.busy_retries").inc(),
            });
            let n_rows = n_rows?;
            if n_rows != sh.len() {
                return Err(RpcError::Protocol(format!(
                    "server opened {n_rows} rows, expected {}",
                    sh.len()
                )));
            }
            clients.push(RefCell::new(client));
            journals.push(RefCell::new(ShardJournal::new(open)));
        }
        let mask_epochs = vec![0u64; shards.len()];
        let state = CleaningState::new(&problem);
        let cp = vec![false; problem.val_x.len()];
        let sel = RefCell::new(SelectionCache::new(
            problem.dataset.len(),
            problem.val_x.len(),
        ));
        let base_streams = RefCell::new((0..problem.val_x.len()).map(|_| None).collect());
        let spill = SpillState::resolve(client_cfg)?;
        let breakers = (0..shards.len())
            .map(|_| {
                RefCell::new(CircuitBreaker::new(
                    BREAKER_THRESHOLD,
                    client_cfg.breaker_cooldown,
                ))
            })
            .collect();
        let mut coordinator = RpcCoordinator {
            problem,
            opts: opts.clone(),
            shards,
            owner,
            cfg: client_cfg.clone(),
            clients,
            journals,
            breakers,
            fallback_cursor: Cell::new(0),
            failovers: Cell::new(0),
            pins_replayed: Cell::new(0),
            mask_epochs,
            state,
            cp,
            k,
            sel,
            base_streams,
            spill,
        };
        coordinator.refresh(None)?;
        Ok(coordinator)
    }

    /// The (global) problem this coordinator cleans.
    pub fn problem(&self) -> &CleaningProblem {
        &self.problem
    }

    /// Number of shards actually served (the clamped partition arity).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The dataset partition.
    pub fn shards(&self) -> &[DatasetShard] {
        &self.shards
    }

    /// The shard owning a global row.
    pub fn owner_of(&self, row: usize) -> usize {
        self.owner[row]
    }

    /// The global cleaning progress so far.
    pub fn state(&self) -> &CleaningState {
        &self.state
    }

    /// Per-validation-point global CP status under the current pins,
    /// maintained incrementally by merged stream scans.
    pub fn status(&self) -> &[bool] {
        &self.cp
    }

    /// Number of validation points currently certainly predicted.
    pub fn n_certain(&self) -> usize {
        self.cp.iter().filter(|&&c| c).count()
    }

    /// `true` iff every validation point is certainly predicted.
    pub fn converged(&self) -> bool {
        self.cp.iter().all(|&c| c)
    }

    /// Rows cleaned so far.
    pub fn n_cleaned(&self) -> usize {
        self.state.n_cleaned()
    }

    /// Dirty rows not yet cleaned (global row ids).
    pub fn remaining(&self) -> Vec<usize> {
        self.state.remaining(&self.problem)
    }

    /// Completed failovers so far — the exact-ledger twin of the
    /// `rpc.client.failovers` counter, scoped to this coordinator.
    pub fn failover_count(&self) -> u64 {
        self.failovers.get()
    }

    /// Pins replayed by failovers so far — the exact-ledger twin of the
    /// `rpc.client.pins_replayed` counter, scoped to this coordinator.
    pub fn pins_replayed_count(&self) -> u64 {
        self.pins_replayed.get()
    }

    /// Run one remote operation against shard `s` under the unified
    /// recovery loop: breaker admission, revival of a poisoned connection
    /// (reconnect, escalating to failover), the operation itself, then
    /// classification of any failure —
    ///
    /// * `Busy` / `Expired`: the server shed unstarted work; retry after a
    ///   jittered backoff, no reconnect.
    /// * transport failures (`Io`, `Truncated`, `FrameTooLarge`) and
    ///   poisoned-connection protocol failures (id mismatch, frame CRC):
    ///   a breaker failure; the next attempt revives the connection.
    /// * `Remote("unknown session …")`: the server lost our session (a
    ///   replacement process, or a restart without its WAL) — fail over
    ///   and replay the journal, then retry.
    /// * anything else (a *valid* frame carrying a wrong answer, a remote
    ///   rejection of the operation itself): a bug, not weather — surface
    ///   it immediately rather than retrying into double-application.
    ///
    /// Attempts and pacing come from [`ClientConfig::retry_policy`], with a
    /// floor of two attempts so the historical reconnect-and-retransmit-once
    /// `Step` semantics hold under the zero-retry default config.
    fn with_recovery<R>(
        &self,
        s: usize,
        mut op: impl FnMut(&mut ShardClient) -> RpcResult<R>,
    ) -> RpcResult<R> {
        let attempt = || {
            match self.breakers[s].borrow_mut().admit() {
                Admission::Allow => {}
                Admission::FastFail => {
                    cp_obs::counter!("rpc.client.breaker_fast_fails").inc();
                    return Attempt::Retry(RpcError::Io(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        format!("shard {s} circuit breaker open"),
                    )));
                }
                Admission::Probe => {
                    cp_obs::counter!("rpc.client.breaker_probes").inc();
                    let probe = self
                        .revive(s)
                        .and_then(|()| self.clients[s].borrow_mut().ping());
                    match probe {
                        Ok(()) => self.breakers[s].borrow_mut().on_success(),
                        Err(e) => {
                            self.breakers[s].borrow_mut().on_failure();
                            return Attempt::Retry(e);
                        }
                    }
                }
            }
            if let Err(e) = self.revive(s) {
                self.breakers[s].borrow_mut().on_failure();
                return Attempt::Retry(e);
            }
            let result = op(&mut self.clients[s].borrow_mut());
            let e = match result {
                Ok(r) => {
                    self.breakers[s].borrow_mut().on_success();
                    return Attempt::Done(Ok(r));
                }
                Err(e) => e,
            };
            let poisoned = self.clients[s].borrow().is_poisoned();
            match &e {
                RpcError::Busy(_) => cp_obs::counter!("rpc.client.busy_retries").inc(),
                RpcError::Expired(_) => cp_obs::counter!("rpc.client.expired_retries").inc(),
                RpcError::Io(_) | RpcError::Truncated { .. } | RpcError::FrameTooLarge { .. } => {
                    self.breakers[s].borrow_mut().on_failure()
                }
                // id-pairing or frame-CRC poison: recoverable weather. The
                // same variants on an unpoisoned client decoded from a
                // *valid* frame — a bug.
                RpcError::Protocol(_) | RpcError::Malformed(_) | RpcError::BadTag { .. }
                    if poisoned =>
                {
                    self.breakers[s].borrow_mut().on_failure()
                }
                RpcError::Remote(msg) if msg.starts_with("unknown session") => {
                    // the server is alive but lost our session: not a
                    // transport fault (no breaker penalty), but only a
                    // journal replay can cure it
                    if let Err(fe) = self.failover(s) {
                        return Attempt::Retry(fe);
                    }
                }
                _ => return Attempt::Done(Err(e)),
            }
            Attempt::Retry(e)
        };
        self.cfg.retry_policy().run(2, attempt, |_| {})
    }

    /// Make shard `s`'s client callable again if a transport failure
    /// poisoned it: reconnect to the same server, escalating to
    /// [`RpcCoordinator::failover`] when the re-dial itself fails.
    fn revive(&self, s: usize) -> RpcResult<()> {
        if !self.clients[s].borrow().is_poisoned() {
            return Ok(());
        }
        let reconnected = self.clients[s].borrow_mut().reconnect();
        match reconnected {
            Ok(()) => Ok(()),
            Err(_) => self.failover(s),
        }
    }

    /// Rebuild shard `s`'s session from the journal on whatever server will
    /// take it: re-dial the remembered address first (the dead-process /
    /// fresh-data-dir case — the listener may be back under a new process),
    /// then each [`ClientConfig::fallback_addrs`] entry in rotation.
    /// A successful re-dial best-effort-`Close`s the stale session id (a
    /// server that *did* keep it would otherwise leak a session slot) and
    /// replays `Open` + pins.
    fn failover(&self, s: usize) -> RpcResult<()> {
        cp_obs::counter!("rpc.client.failovers").inc();
        self.failovers.set(self.failovers.get() + 1);
        let stale = self.clients[s].borrow().session();
        let home = self.clients[s].borrow().peer_addr();
        let n_fallbacks = self.cfg.fallback_addrs.len();
        let mut last: Option<RpcError> = None;
        for candidate in 0..=n_fallbacks {
            let target = if candidate == 0 {
                match &home {
                    Some(addr) => addr.clone(),
                    None => continue,
                }
            } else {
                let cursor = self.fallback_cursor.get();
                self.fallback_cursor.set(cursor.wrapping_add(1));
                self.cfg.fallback_addrs[cursor % n_fallbacks].clone()
            };
            let redialed = self.clients[s].borrow_mut().redial(target.as_str());
            if let Err(e) = redialed {
                last = Some(e);
                continue;
            }
            if stale != 0 {
                // ignore the outcome: a replacement server never held the
                // session, the original dedups the close with the replay
                let _ = self.clients[s]
                    .borrow_mut()
                    .expect_ok(&Request::Close { session: stale });
            }
            let replayed = self.journals[s]
                .borrow()
                .replay(&mut self.clients[s].borrow_mut());
            match replayed {
                Ok(n) => {
                    self.pins_replayed.set(self.pins_replayed.get() + n as u64);
                    return Ok(());
                }
                Err(e) => {
                    last = Some(e);
                    continue;
                }
            }
        }
        Err(last
            .unwrap_or_else(|| RpcError::Protocol(format!("shard {s} has no failover candidate"))))
    }

    /// Reject a decoded value whose `(K, |Y|)` shape does not match what
    /// was requested: the merge layers `assert!` on shape mismatches, and a
    /// remote peer's data must surface as a typed error, never a panic.
    fn check_shape(&self, what: &str, k: usize, n_labels: usize) -> RpcResult<()> {
        let expect_labels = self.problem.dataset.n_labels();
        if k != self.k || n_labels != expect_labels {
            return Err(RpcError::Protocol(format!(
                "{what} shape mismatch: got k={k} |Y|={n_labels}, expected k={} |Y|={expect_labels}",
                self.k
            )));
        }
        Ok(())
    }

    fn check_stream_shape<S: WireSemiring>(
        &self,
        stream: ShardStream<S>,
    ) -> RpcResult<ShardStream<S>> {
        self.check_shape("stream", stream.k(), stream.n_labels())?;
        Ok(stream)
    }

    /// Check a swept stream against the row it was asked for: its shape,
    /// its row, one similarity per candidate, and no event of the row
    /// naming another candidate.
    fn check_swept(&self, swept: &SweptStream<f64>, row: usize) -> RpcResult<()> {
        let ds = &self.problem.dataset;
        self.check_shape("swept stream", swept.stream.k(), swept.stream.n_labels())?;
        let m = ds.set_size(row);
        if swept.row != row || swept.sims.len() != m {
            return Err(RpcError::Protocol(format!(
                "swept stream of row {} with {} candidates, expected row {row} with {m}",
                swept.row,
                swept.sims.len()
            )));
        }
        if let Some(e) = swept
            .stream
            .events
            .iter()
            .find(|e| e.row == row && e.cand as usize >= m)
        {
            return Err(RpcError::Protocol(format!(
                "swept stream event names candidate {} of row {row}, which has {m}",
                e.cand
            )));
        }
        Ok(())
    }

    /// Fetch one batched stream per shard for validation point `v` under
    /// the servers' current pin masks (through the recovery loop: a shard
    /// that drops its connection mid-fetch reconnects or fails over and the
    /// scan re-runs — scans are read-only, so re-running is always safe).
    fn fetch_streams<S: WireSemiring>(&self, v: usize) -> RpcResult<Vec<ShardStream<S>>> {
        (0..self.clients.len())
            .map(|s| {
                let stream = self.with_recovery(s, |c| c.scan::<S>(v, self.k, None))?;
                self.check_stream_shape(stream)
            })
            .collect()
    }

    /// Fetch shard `s`'s base stream for validation point `v` (through
    /// the recovery loop) and wrap it for the cache: in RAM, or — when the
    /// out-of-core policy says so — its reply payload written to a run as
    /// received. A replaced or dropped entry deletes its run file.
    fn fetch_base(&self, v: usize, s: usize) -> RpcResult<CachedStream<f64>> {
        let payload = self.with_recovery(s, |c| c.scan_payload::<f64>(v, self.k, None))?;
        let stream = self.check_stream_shape(decode_stream::<f64>(&payload)?)?;
        match &self.spill {
            Some(sp) if stream.events.len() >= sp.threshold => {
                let path = sp.next_path(&format!("base-v{v}-s{s}"));
                CachedStream::spill(&path, &payload, &stream)
            }
            _ => Ok(CachedStream::Ram(stream)),
        }
    }

    /// Run `f` over the base streams (one per shard, under the servers'
    /// current masks) for validation point `v`, read through the
    /// epoch-keyed cache: only shards whose `mask_epochs` entry moved since
    /// capture are refetched. Selection's base entropies and merged
    /// hypothetical scans both come through here, so a shard untouched by
    /// recent cleaning ships its base stream once across many steps. Under
    /// the spill policy large cached streams live on disk as runs, which
    /// `f` reads back with [`CachedStream::load`].
    fn with_base_streams<R>(
        &self,
        v: usize,
        f: impl FnOnce(&[CachedStream<f64>]) -> RpcResult<R>,
    ) -> RpcResult<R> {
        {
            let mut cache = self.base_streams.borrow_mut();
            match &mut cache[v] {
                Some((epochs, streams)) => {
                    for s in 0..self.clients.len() {
                        if epochs[s] != self.mask_epochs[s] {
                            cp_obs::counter!("rpc.coordinator.base_fetches").inc();
                            streams[s] = self.fetch_base(v, s)?;
                            epochs[s] = self.mask_epochs[s];
                        }
                    }
                }
                entry @ None => {
                    cp_obs::counter!("rpc.coordinator.base_fetches").add(self.clients.len() as u64);
                    let streams = (0..self.clients.len())
                        .map(|s| self.fetch_base(v, s))
                        .collect::<RpcResult<Vec<_>>>()?;
                    *entry = Some((self.mask_epochs.clone(), streams));
                }
            }
        }
        let cache = self.base_streams.borrow();
        let (_, streams) = cache[v].as_ref().expect("filled above");
        f(streams)
    }

    fn check_summary_shape(&self, summary: ExtremeSummary) -> RpcResult<ExtremeSummary> {
        self.check_shape("summary", summary.k(), summary.n_labels())?;
        Ok(summary)
    }

    /// The certainly-predicted label of validation point `v` (if any) under
    /// the current pins — the same dispatch as the in-process session:
    /// binary label spaces ship one `O(|Y|·K)` [`ExtremeSummary`] per shard
    /// and fold them by rank (no boundary-event stream crosses the wire);
    /// everything else merges fresh `Possibility` streams. Travels the same
    /// per-shard pipelined windows as a status refresh.
    pub fn certain_label_at(&self, v: usize) -> RpcResult<Option<Label>> {
        let labels = self.status_windows(None, &[v], &Cell::new(false))?;
        Ok(labels[0])
    }

    /// Whether status requests ask for extreme summaries (binary label
    /// spaces) rather than `Possibility` scans.
    fn summary_status(&self) -> bool {
        self.problem.dataset.n_labels() == 2
    }

    /// Send shard `s` one pipelined window ([`ShardClient::pipeline`]): the
    /// optional `Step { local_row, expect_cleaned }` first, then one status
    /// request per point of `vals` — a summary or a `Possibility` scan, as
    /// [`Self::summary_status`] picks. The server answers in request order,
    /// so the status requests see the new pin.
    ///
    /// The window is retried as a unit under the recovery loop: `Step` is
    /// idempotent and status requests are read-only. The first time the
    /// `Step` is acknowledged the pin is journaled and `acked` is set, so
    /// a failover later in the window replays it, and the caller commits
    /// the pin locally even when a later reply fails.
    fn status_window(
        &self,
        s: usize,
        step: Option<(u32, u32)>,
        vals: &[usize],
        acked: &Cell<bool>,
    ) -> RpcResult<Vec<StatusReply>> {
        let summaries = self.summary_status();
        let k = self.k as u32;
        let replies = self.with_recovery(s, |c| {
            let session = c.session();
            let step_req = step.map(|(local_row, expect_cleaned)| Request::Step {
                session,
                local_row,
                expect_cleaned,
            });
            let n_step = usize::from(step_req.is_some());
            let status_reqs = vals.iter().map(|&v| {
                let val = v as u32;
                if summaries {
                    Request::ExtremeSummary { session, val, k }
                } else {
                    Request::Scan {
                        session,
                        val,
                        k,
                        semiring: <Possibility as WireSemiring>::TAG,
                        pins: None,
                    }
                }
            });
            let reqs = step_req.into_iter().chain(status_reqs);
            let (replies, outcome) = c.pipeline(reqs, |i, resp| match (i < n_step, resp) {
                (true, Response::Ok) => Ok(None),
                (true, other) => Err(ShardClient::unexpected("Ok", other)),
                (false, Response::Summary(bytes)) if summaries => {
                    decode_summary(&bytes).map(|x| Some(StatusReply::Summary(x)))
                }
                (false, Response::Stream(bytes)) if !summaries => {
                    decode_stream(&bytes).map(|x| Some(StatusReply::Stream(x)))
                }
                (false, other) => Err(ShardClient::unexpected(
                    if summaries { "Summary" } else { "Stream" },
                    other,
                )),
            });
            if let Some((local_row, _)) = step {
                if !replies.is_empty() && !acked.replace(true) {
                    self.journals[s].borrow_mut().record_pin(local_row);
                }
            }
            outcome.map(|()| replies)
        })?;
        replies
            .into_iter()
            .flatten()
            .map(|reply| match reply {
                StatusReply::Summary(x) => self.check_summary_shape(x).map(StatusReply::Summary),
                StatusReply::Stream(x) => self.check_stream_shape(x).map(StatusReply::Stream),
            })
            .collect()
    }

    /// The certainly-predicted label of every point of `vals`, from one
    /// [`Self::status_window`] per shard; `step = Some((s, local_row,
    /// expect_cleaned))` puts a `Step` at the head of shard `s`'s window.
    fn status_windows(
        &self,
        step: Option<(usize, u32, u32)>,
        vals: &[usize],
        acked: &Cell<bool>,
    ) -> RpcResult<Vec<Option<Label>>> {
        let mut per_shard = Vec::with_capacity(self.clients.len());
        for s in 0..self.clients.len() {
            let shard_step = step
                .filter(|&(owner, ..)| owner == s)
                .map(|(_, local_row, expect)| (local_row, expect));
            per_shard.push(self.status_window(s, shard_step, vals, acked)?.into_iter());
        }
        Ok(vals
            .iter()
            .map(|_| {
                let (mut summaries, mut streams) = (Vec::new(), Vec::new());
                for replies in &mut per_shard {
                    match replies.next().expect("one reply per point") {
                        StatusReply::Summary(x) => summaries.push(x),
                        StatusReply::Stream(x) => streams.push(x),
                    }
                }
                if streams.is_empty() {
                    certain_label_from_summaries(&summaries)
                } else {
                    certain_label_from_streams(&streams)
                }
            })
            .collect())
    }

    /// Exact Q2 counts for validation point `v` under the current pins, in
    /// any wire semiring and with the same algorithm-selector fallbacks as
    /// the in-process engine — the handle the every-semiring equivalence
    /// tests drive.
    ///
    /// A `u128` query over `2^128` or more possible worlds is refused with
    /// [`RpcError::Protocol`] before any scan is sent: the counts would
    /// overflow.
    pub fn q2_at<S: WireSemiring>(&self, v: usize, algo: Q2Algorithm) -> RpcResult<Q2Result<S>> {
        self.check_counts_fit::<S>(self.state().pins())?;
        let streams = self.fetch_streams::<S>(v)?;
        Ok(q2_from_streams_with_algorithm(&streams, algo))
    }

    /// [`RpcCoordinator::q2_at`] under an explicit *global* pin mask
    /// (restricted per shard and shipped with each scan request) instead of
    /// the servers' current masks.
    pub fn q2_with_pins<S: WireSemiring>(
        &self,
        v: usize,
        global_pins: &Pins,
        algo: Q2Algorithm,
    ) -> RpcResult<Q2Result<S>> {
        self.check_counts_fit::<S>(global_pins)?;
        let streams: Vec<ShardStream<S>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(s, sh)| {
                let local = sh.local_pins(global_pins);
                let stream = self.with_recovery(s, |c| c.scan::<S>(v, self.k, Some(&local)))?;
                self.check_stream_shape(stream)
            })
            .collect::<RpcResult<_>>()?;
        Ok(q2_from_streams_with_algorithm(&streams, algo))
    }

    /// Refuse `u128` counting when the global world count under `pins`
    /// reaches `2^128`: the merged counts would overflow. Each server makes
    /// the same check over its own shard.
    fn check_counts_fit<S: WireSemiring>(&self, pins: &Pins) -> RpcResult<()> {
        if S::TAG == <u128 as WireSemiring>::TAG
            && pins.world_count_u128(&self.problem.dataset).is_none()
        {
            return Err(RpcError::Protocol(U128_OVERFLOW.into()));
        }
        Ok(())
    }

    /// Clean one externally chosen global row: route the pin to the owning
    /// server first, then record it in the coordinator's state and refresh
    /// the global CP status.
    ///
    /// The `Step` and the owner's status requests for every uncertain point
    /// travel in one pipelined window (`ShardClient::pipeline`); every
    /// other shard gets one window of status requests, and nothing else
    /// goes out.
    ///
    /// Failure semantics: a transport failure in the window is ambiguous —
    /// the server may have applied the pin and lost the ack — so the
    /// recovery loop reconnects (or fails over and replays the journal) and
    /// retransmits the whole window; the idempotent `Step` (it carries the
    /// cleaned-count it expects) acknowledges without double-pinning on a
    /// server that had already applied it. If the `Step` is never
    /// acknowledged, the error surfaces with nothing local mutated. Once it
    /// is, the pin is journaled at once (a later failover already replays
    /// it) and committed locally even if a later reply in the window fails;
    /// that error then surfaces with the pin applied consistently on both
    /// sides, and only the cached [`Self::status`] may lag. Staleness is
    /// *sound* (certainty is monotone, so stale entries only under-report)
    /// and the next successful refresh catches up.
    ///
    /// # Panics
    /// Panics if the row is clean or already cleaned (the same misuse
    /// contract as every other engine's `clean`).
    pub fn clean(&mut self, row: usize) -> RpcResult<()> {
        let _span = cp_obs::span!("rpc.coordinator.clean_us");
        // validate the misuse preconditions up front so the server is never
        // asked to pin a row the local mutation would then reject
        assert!(!self.state.is_cleaned(row), "row {row} already cleaned");
        assert!(
            self.problem.truth_choice[row].is_some(),
            "row {row} is not dirty"
        );
        self.refresh(Some(row))
    }

    /// Clean `row` (if any) and re-evaluate the not-yet-certain validation
    /// points (certainty is monotone under cleaning, exactly as in the
    /// in-process sessions) in one window per shard, and commit an
    /// acknowledged pin locally.
    fn refresh(&mut self, row: Option<usize>) -> RpcResult<()> {
        let uncertain: Vec<usize> = (0..self.cp.len()).filter(|&v| !self.cp[v]).collect();
        let step = row.map(|row| {
            let s = self.owner[row];
            (
                row,
                s,
                self.shards[s].local_row(row).expect("owner map is exact"),
            )
        });
        let acked = Cell::new(false);
        let labels = self.status_windows(
            step.map(|(_, s, local)| (s, local as u32, self.mask_epochs[s] as u32)),
            &uncertain,
            &acked,
        );
        if let Some((row, s, _)) = step.filter(|_| acked.get()) {
            self.state.clean_row(&self.problem, row);
            self.mask_epochs[s] += 1;
        }
        for (&v, label) in uncertain.iter().zip(labels?) {
            self.cp[v] = label.is_some();
        }
        Ok(())
    }

    /// The greedy CPClean selection over the given candidate rows, running
    /// the shared incremental loop ([`cp_clean::select_next_incremental`]):
    /// cached scores are reused across steps, entropy lower bounds prune
    /// rows that provably cannot beat the incumbent, each (validation
    /// point, row) that remains costs one swept scan of the row's owner
    /// ([`ShardClient::swept_scan`]) and one merged pin sweep for all of
    /// the row's pins, and base streams are cached per validation point,
    /// refetched only from shards whose mask moved. Selects the
    /// **identical** row [`RpcCoordinator::try_select_next_serialized`]
    /// would.
    pub fn try_select_next(&self, remaining: &[usize]) -> RpcResult<usize> {
        debug_assert!(!remaining.is_empty());
        let mut sel = self.sel.borrow_mut();
        let mut backend = RpcBackend { coord: self };
        select_next_incremental(
            &self.problem,
            self.state.pins(),
            &self.cp,
            remaining,
            &mut sel,
            &mut backend,
        )
    }

    /// The from-scratch serialized selection: per uncertain
    /// validation point, every shard's base stream is fetched once and
    /// replayed for every candidate pin; only the owning shard computes a
    /// per-candidate hypothetical stream, one blocking round trip at a
    /// time. Scoring is [`pick_min_expected_entropy`] — the same code every
    /// engine's reference scorer uses. Kept as the equivalence baseline for
    /// [`RpcCoordinator::try_select_next`] and for the selection benchmark.
    pub fn try_select_next_serialized(&self, remaining: &[usize]) -> RpcResult<usize> {
        debug_assert!(!remaining.is_empty());
        let uncertain: Vec<usize> = (0..self.cp.len()).filter(|&v| !self.cp[v]).collect();
        if uncertain.is_empty() {
            return Ok(remaining[0]);
        }
        let n_labels = self.problem.dataset.n_labels();
        let shard_pins = local_pins(&self.shards, self.state.pins());
        let mut per_val: Vec<Vec<Vec<f64>>> = Vec::with_capacity(uncertain.len());
        for &v in &uncertain {
            let base: Vec<ShardStream<f64>> = self.fetch_streams(v)?;
            let mut rows = Vec::with_capacity(remaining.len());
            for &row in remaining {
                let s = self.owner[row];
                let local = self.shards[s].local_row(row).expect("owner map is exact");
                let mut cands = Vec::with_capacity(self.problem.dataset.set_size(row));
                for j in 0..self.problem.dataset.set_size(row) {
                    let mut pinned = shard_pins[s].clone();
                    pinned.pin(local, j);
                    let hyp: ShardStream<f64> = self.check_stream_shape(
                        self.with_recovery(s, |c| c.scan(v, self.k, Some(&pinned)))?,
                    )?;
                    let mut cursors: Vec<StreamCursor<'_, f64>> = base
                        .iter()
                        .enumerate()
                        .map(|(u, st)| if u == s { hyp.cursor() } else { st.cursor() })
                        .collect();
                    let probs =
                        merged_scan_sources(&mut cursors, n_labels, self.k, None, |_| false)
                            .probabilities();
                    cands.push(entropy_bits(&probs));
                }
                rows.push(cands);
            }
            per_val.push(rows);
        }
        Ok(pick_min_expected_entropy(
            &self.problem,
            remaining,
            &per_val,
        ))
    }

    /// One greedy CPClean iteration — [`CleaningEngine::step`], same
    /// contract as the in-process sessions.
    pub fn step(&mut self) -> Option<usize> {
        CleaningEngine::step(self)
    }

    /// Greedy run with curve recording —
    /// [`CleaningEngine::run_to_convergence`]: the *same* run loop the
    /// single-process session drives.
    pub fn run_to_convergence(&mut self, test_x: &[Vec<f64>], test_y: &[usize]) -> CleaningRun {
        CleaningEngine::run_to_convergence(self, test_x, test_y)
    }

    /// Fixed-order run with curve recording — [`CleaningEngine::run_order`]
    /// (global row ids).
    pub fn run_order(
        &mut self,
        order: &[usize],
        test_x: &[Vec<f64>],
        test_y: &[usize],
    ) -> CleaningRun {
        CleaningEngine::run_order(self, order, test_x, test_y)
    }

    /// End the run: free every server-side session, then end each
    /// connection, consuming the coordinator. Closing matters on a
    /// multi-tenant server — a session left open holds a slot against the
    /// admission cap until the server process exits.
    pub fn shutdown(self) -> RpcResult<()> {
        for client in &self.clients {
            let mut client = client.borrow_mut();
            client.close()?;
            client.expect_ok(&Request::Shutdown)?;
        }
        Ok(())
    }
}

/// The engine surface takes infallible methods; a transport failure mid-run
/// is unrecoverable for the run, so the `CleaningEngine` impl panics with
/// the underlying [`RpcError`]. Use [`RpcCoordinator::try_select_next`] /
/// [`RpcCoordinator::clean`] directly for fallible control.
impl CleaningEngine for RpcCoordinator {
    fn problem(&self) -> &CleaningProblem {
        &self.problem
    }

    fn run_options(&self) -> &RunOptions {
        &self.opts
    }

    fn cleaning_state(&self) -> &CleaningState {
        &self.state
    }

    fn n_certain(&self) -> usize {
        RpcCoordinator::n_certain(self)
    }

    fn n_val(&self) -> usize {
        self.cp.len()
    }

    fn clean(&mut self, row: usize) {
        RpcCoordinator::clean(self, row).expect("shard-server RPC failed during clean");
    }

    fn select_next(&self, remaining: &[usize]) -> usize {
        self.try_select_next(remaining)
            .expect("shard-server RPC failed during selection")
    }
}

impl Drop for RpcCoordinator {
    fn drop(&mut self) {
        // spilled cache entries delete their run files as they drop; the
        // coordinator-owned spill directory is then empty and removable
        self.base_streams.borrow_mut().clear();
        if let Some(sp) = &self.spill {
            if sp.owned {
                let _ = std::fs::remove_dir_all(&sp.dir);
            }
        }
    }
}

/// [`SelectionBackend`] over the shard-server connections: entropies come
/// from merged scans over base streams read through the coordinator's
/// epoch-keyed cache, and a row's hypothetical entropies from one merged
/// pin sweep over the owning shard's swept stream.
struct RpcBackend<'a> {
    coord: &'a RpcCoordinator,
}

impl SelectionBackend for RpcBackend<'_> {
    type Error = RpcError;

    fn base_entropy(&mut self, v: usize) -> RpcResult<f64> {
        let c = self.coord;
        let n_labels = c.problem.dataset.n_labels();
        c.with_base_streams(v, |base| {
            let loaded = base
                .iter()
                .map(CachedStream::load)
                .collect::<RpcResult<Vec<_>>>()?;
            let mut sources: Vec<_> = loaded.iter().map(|st| st.cursor()).collect();
            Ok(entropy_bits(
                &merged_scan_sources(&mut sources, n_labels, c.k, None, |_| false).probabilities(),
            ))
        })
    }

    /// One swept scan from the row's owner, merged once against every
    /// other shard's cached base stream ([`merged_sweep_sources`]): each
    /// pin's entropy is bit for bit the one of the merged scan with the
    /// owner's stream under that pin.
    fn hypothetical_entropies(&mut self, v: usize, row: usize) -> RpcResult<Vec<f64>> {
        let c = self.coord;
        let s = c.owner[row];
        let local = c.shards[s].local_row(row).expect("owner map is exact");
        let swept = c.with_recovery(s, |client| client.swept_scan::<f64>(v, c.k, local))?;
        c.check_swept(&swept, row)?;
        c.with_base_streams(v, |base| {
            // the owner's swept stream takes the place of its base stream
            let loaded = base
                .iter()
                .enumerate()
                .map(|(u, st)| {
                    if u == s {
                        Ok(Cow::Borrowed(&swept.stream))
                    } else {
                        st.load()
                    }
                })
                .collect::<RpcResult<Vec<_>>>()?;
            let mut sources: Vec<_> = loaded.iter().map(|st| st.cursor()).collect();
            let ds = &c.problem.dataset;
            Ok(merged_sweep_sources(
                &mut sources,
                s,
                &swept,
                ds.label(row),
                ds.n_labels(),
                c.k,
                None,
            )
            .iter()
            .map(|r| entropy_bits(&r.probabilities()))
            .collect())
        })
    }
}

fn slice_choices(choices: &[Option<usize>], shard: &DatasetShard) -> Vec<Option<u32>> {
    choices[shard.rows()]
        .iter()
        .map(|c| c.map(|j| j as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// A deliberately dropped listener: the address was just live, but by
    /// connect time nothing accepts there. The bounded retry policy must
    /// fail with a typed transport error after exhausting its attempts —
    /// not hang, not panic.
    #[test]
    fn connecting_to_a_dropped_listener_exhausts_retries_with_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);

        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_millis(250)),
            connect_retries: 2,
            retry_backoff: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let started = Instant::now();
        let err = ShardClient::connect_with(&addr, &cfg).expect_err("nothing listens there");
        assert!(matches!(err, RpcError::Io(_)), "got {err:?}");
        // all three attempts ran: two backoff pauses elapsed — nominally
        // 5ms + 10ms, at least half each under the [0.5, 1.0] jitter
        assert!(started.elapsed() >= Duration::from_millis(7));
    }

    /// A retry window long enough for the server to come up turns the same
    /// failure into a success: attempt one is refused, then the listener
    /// appears on the same port and a later attempt lands.
    #[test]
    fn connect_retries_bridge_a_late_starting_server() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let spawner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // another process can legitimately be handed the just-freed
            // ephemeral port; retry briefly, and report (rather than
            // panic) if it stays taken — that's an environment race, not
            // a retry-logic failure
            for _ in 0..200 {
                if let Ok(l) = TcpListener::bind(addr) {
                    return Some(l);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            None
        });
        let cfg = ClientConfig {
            connect_retries: 150,
            retry_backoff: Duration::from_millis(10),
            // pin the cap so 150 attempts stay a ~1.5s worst case, not an
            // exponentially-backed-off eternity
            backoff_cap: Duration::from_millis(10),
            ..ClientConfig::default()
        };
        let client = ShardClient::connect_with(addr.to_string(), &cfg);
        let rebound = spawner.join().expect("listener thread");
        if rebound.is_none() {
            eprintln!("skipping assertion: freed ephemeral port was re-taken by the environment");
            return;
        }
        client.expect("a retry after the rebind must succeed");
    }

    /// A connected-but-silent server must not hang a coordinator: with a
    /// read timeout set, the blocked response read surfaces as `Io`.
    #[test]
    fn read_timeout_turns_a_silent_server_into_a_typed_error() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let hold = std::thread::spawn(move || {
            // accept, then never answer; keep the socket open until the
            // client has timed out
            let (stream, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_millis(400));
            drop(stream);
        });

        let cfg = ClientConfig {
            read_timeout: Some(Duration::from_millis(50)),
            ..ClientConfig::default()
        };
        let mut client = ShardClient::connect_with(&addr, &cfg).expect("connect");
        let err = client
            .call(&Request::Status { session: 0 })
            .expect_err("server is silent");
        assert!(matches!(err, RpcError::Io(_)), "got {err:?}");
        // the timeout poisons the connection: a late response could still
        // arrive on this stream and be mistaken for the next call's answer,
        // so reuse must fail typed instead of returning wrong data
        assert!(client.is_poisoned());
        let err = client
            .call(&Request::Status { session: 0 })
            .expect_err("poisoned");
        assert!(
            matches!(&err, RpcError::Protocol(msg) if msg.contains("poisoned")),
            "got {err:?}"
        );
        hold.join().expect("server thread");
    }

    /// The per-pin merged computation the swept selection replaced — the
    /// owner scans the row under each pin alone, and each pinned stream
    /// merges with the other shards' cached base streams — kept as the
    /// oracle of [`RpcBackend::hypothetical_entropies`].
    fn per_pin_entropies(c: &RpcCoordinator, v: usize, row: usize) -> RpcResult<Vec<f64>> {
        let n_labels = c.problem.dataset.n_labels();
        let s = c.owner[row];
        let local = c.shards[s].local_row(row).expect("owner map is exact");
        let mask = c.shards[s].local_pins(c.state.pins());
        let hyps = (0..c.problem.dataset.set_size(row))
            .map(|j| {
                let mut pinned = mask.clone();
                pinned.pin(local, j);
                let hyp = c.with_recovery(s, |client| client.scan::<f64>(v, c.k, Some(&pinned)))?;
                c.check_stream_shape(hyp)
            })
            .collect::<RpcResult<Vec<_>>>()?;
        c.with_base_streams(v, |base| {
            let loaded = base
                .iter()
                .map(CachedStream::load)
                .collect::<RpcResult<Vec<_>>>()?;
            hyps.iter()
                .map(|hyp| {
                    let mut sources: Vec<_> = loaded
                        .iter()
                        .enumerate()
                        .map(|(u, st)| if u == s { hyp.cursor() } else { st.cursor() })
                        .collect();
                    Ok(entropy_bits(
                        &merged_scan_sources(&mut sources, n_labels, c.k, None, |_| false)
                            .probabilities(),
                    ))
                })
                .collect()
        })
    }

    /// A random small problem on an integer grid (similarity ties), with
    /// K from 1 up to beyond the row count.
    fn arb_problem() -> impl proptest::strategy::Strategy<Value = CleaningProblem> {
        use proptest::prelude::*;
        (2usize..=3, 3usize..=8, 1usize..=9).prop_flat_map(|(n_labels, n, k)| {
            let example = (proptest::collection::vec(-5i32..5, 1..=4), 0..n_labels);
            (
                proptest::collection::vec(example, n..=n),
                proptest::collection::vec(-5i32..5, 1..=3),
            )
                .prop_map(move |(rows, val)| {
                    let examples = rows
                        .into_iter()
                        .map(|(grid, label)| {
                            let candidates = grid.into_iter().map(|g| vec![g as f64]).collect();
                            cp_core::IncompleteExample::incomplete(candidates, label)
                        })
                        .collect();
                    let dataset = cp_core::IncompleteDataset::new(examples, n_labels).unwrap();
                    let choice: Vec<Option<usize>> = (0..dataset.len())
                        .map(|i| (dataset.set_size(i) > 1).then_some(0))
                        .collect();
                    CleaningProblem::new(
                        dataset,
                        cp_core::CpConfig::new(k),
                        val.into_iter().map(|v| vec![v as f64]).collect(),
                        choice.clone(),
                        choice,
                    )
                })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Every (point, unpinned row) of a swept selection, before and
        /// after cleaning some rows, is bit for bit the per-pin merged
        /// computation — over 1–3 loopback servers, with the non-owner
        /// base streams in RAM and spilled to disk.
        #[test]
        fn swept_entropies_are_the_per_pin_merged_entropies(
            problem in arb_problem(),
            n_shards in 1usize..=3,
            spill in 0u8..2,
            cleaned in 0usize..3,
        ) {
            let servers: Vec<_> = (0..n_shards)
                .map(|_| crate::spawn_server(crate::ServerConfig::default()).expect("bind"))
                .collect();
            let addrs: Vec<&str> = servers.iter().map(|s| s.addr()).collect();
            let cfg = ClientConfig {
                spill_threshold: Some(if spill == 1 { 0 } else { usize::MAX }),
                ..ClientConfig::default()
            };
            let opts = RunOptions { max_cleaned: None, n_threads: 1, record_every: 1 };
            let mut coord = RpcCoordinator::connect_with(&problem, &addrs, &opts, &cfg)
                .expect("connect");
            for row in coord.remaining().into_iter().take(cleaned) {
                coord.clean(row).expect("clean");
            }
            for v in 0..problem.val_x.len() {
                for row in coord.remaining() {
                    let got = RpcBackend { coord: &coord }
                        .hypothetical_entropies(v, row)
                        .expect("swept entropies");
                    let want = per_pin_entropies(&coord, v, row).expect("per-pin entropies");
                    let bits = |h: &[f64]| h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(&got), bits(&want), "val {} row {}", v, row);
                }
            }
            coord.shutdown().expect("shutdown");
        }
    }
}
