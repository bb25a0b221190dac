//! The multi-tenant shard server: one process serving any number of
//! independent cleaning sessions over its dataset partitions.
//!
//! A server is the remote half of the seam `cp-shard` left message-shaped.
//! Its state splits along the mutability boundary:
//!
//! * **Shared, immutable** — a `SharedShard`: the partition's rows, its
//!   [`cp_core::ValIndexCache`] of per-validation-point similarity indexes,
//!   and the validated [`cp_clean::CleaningProblem`]. Built **once** per
//!   distinct [`Request::Open`] payload (deduplicated by a canonical byte
//!   key with the thread-count knob zeroed) and handed to every session by
//!   `Arc` — session 2..N of the same shard skip the `O(|val| · NM)` index
//!   build entirely.
//! * **Per-session, mutable** — a [`Request::Open`]-minted session's
//!   [`CleaningState`] (pins, cleaned rows, cleaning order) and nothing
//!   else: certainty is a property of the whole dataset, so only the
//!   coordinator, which merges every shard's factors, decides it. The state
//!   sits behind a readers-writer lock so concurrent read-only queries
//!   (`Scan`, `SweptScan`, `ExtremeSummary`, `Status`) never wait behind
//!   another session's `Step` — or even behind their *own* session's reads.
//!
//! Each [`Request::Scan`] ships one batched [`cp_shard::ShardStream`]
//! (captured by [`cp_shard::ShardStream::capture`], delta-compressed by
//! [`crate::codec::encode_stream`]) — the recorded stream the coordinator
//! merges; [`Request::SweptScan`] ships the owner's half of a merged pin
//! sweep ([`cp_shard::SweptStream`]) under the session's pins, one stream
//! for every pin of a row, counted as one scan; [`Request::ExtremeSummary`]
//! answers binary status checks under the session's current pins with one
//! rank-ordered [`ExtremeSummary`] instead.
//!
//! The request handler ([`ShardServer::handle`]) is a pure state machine
//! over decoded messages (`&self` — the server is shared across connection
//! threads), so the protocol is unit-testable without sockets.
//! [`serve_with`] wraps it in a threaded accept loop with admission
//! control: a connection cap (excess connections get one [`Response::Busy`]
//! and are dropped), a session cap (excess [`Request::Open`]s get
//! [`Response::Busy`]), and a bounded per-connection request queue that
//! exerts TCP backpressure instead of buffering unboundedly. A duplicated
//! `Open` frame (same request id, same bytes) is answered with the first
//! frame's reply, so it mints no second session. Malformed or
//! out-of-order requests produce [`Response::Error`]; a connection that
//! fails mid-handshake is logged and dropped without disturbing the accept
//! loop — a shard server must never be panicked or halted by its network
//! input.

use crate::codec::{
    encode_stream, encode_summary, encode_swept, read_frame_opt_tagged, write_frame_tagged,
    WireSemiring, FRAME_OVERHEAD, READ_BUFFER_BYTES,
};
use crate::error::RpcResult;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::proto::{
    decode_request, encode_response, put_open, OpenShard, Request, Response, SessionId, ShardStatus,
};
use cp_clean::{index_cache, CleaningProblem, CleaningState};
use cp_core::{
    CpConfig, DatasetShard, ExtremeSummary, IncompleteDataset, IncompleteExample, Pins,
    ValIndexCache,
};
use cp_numeric::Possibility;
use cp_shard::{ShardStream, SweptStream};
use cp_store::WalWriter;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission-control and loop-shape knobs for [`serve_with`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Connections served concurrently; one over the cap is answered
    /// [`Response::Busy`] (on its first frame) and dropped.
    pub max_connections: usize,
    /// Live sessions across all connections; an over-cap
    /// [`Request::Open`] is answered [`Response::Busy`].
    pub max_sessions: usize,
    /// Decoded-request frames buffered per connection before the reader
    /// stops pulling from the socket (TCP backpressure).
    pub queue_depth: usize,
    /// Stop accepting after this many admitted connections (joining them
    /// before returning); `None` serves forever.
    pub max_accepts: Option<usize>,
    /// Durability root. When set, every session appends its `Open` payload
    /// and each applied pin to a write-ahead log under this directory
    /// (`session-<id>.wal`, fsync'd before the `Step` acknowledgement), and
    /// a restarting server replays the logs to rebuild its sessions —
    /// same ids, same pins — so a reconnecting coordinator's idempotent
    /// `Step` retransmission lands on recovered state. `None` (the default)
    /// keeps sessions purely in memory.
    pub data_dir: Option<PathBuf>,
    /// Deterministic fault injection on every connection's *outgoing*
    /// frames (see [`crate::fault::FaultPlan`]): responses are dropped,
    /// delayed, corrupted, truncated or duplicated per the seeded schedule,
    /// which is what `shard-server --chaos <seed>` sets. `None` (the
    /// default) serves clean.
    pub chaos: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_sessions: 64,
            queue_depth: 32,
            max_accepts: None,
            data_dir: None,
            chaos: None,
        }
    }
}

/// Everything sessions over one shard share, built once per distinct
/// `Open` payload: the partition, its validated problem, and the
/// per-validation-point similarity indexes.
#[derive(Debug)]
struct SharedShard {
    /// Canonical `Open` bytes (thread count zeroed) — full-byte equality is
    /// the dedup test, so two shards can never be conflated by a hash
    /// collision.
    key: Vec<u8>,
    shard: DatasetShard,
    problem: Arc<CleaningProblem>,
    cache: ValIndexCache,
}

/// Per-session registry handles, resolved once at open so the `Step`/`Scan`
/// hot paths pay one atomic increment, not a name lookup. Names carry the
/// server's process-unique instance id (`rpc.server.s<inst>.session.<id>.*`)
/// so two `ShardServer`s in one process — the multi-tenant tests spawn
/// several — can't alias each other's session counters.
struct SessionMetrics {
    steps: cp_obs::Counter,
    scans: cp_obs::Counter,
}

impl SessionMetrics {
    fn new(instance: u64, id: SessionId) -> Self {
        SessionMetrics {
            steps: cp_obs::counter(&format!("rpc.server.s{instance}.session.{id}.steps")),
            scans: cp_obs::counter(&format!("rpc.server.s{instance}.session.{id}.scans")),
        }
    }
}

impl std::fmt::Debug for SessionMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionMetrics").finish_non_exhaustive()
    }
}

/// One minted session: the shared shard plus this tenant's mutable state.
#[derive(Debug)]
struct Session {
    shared: Arc<SharedShard>,
    metrics: SessionMetrics,
    /// The session's write-ahead pin log (servers with a `data_dir` only).
    /// Record 0 is the session's encoded `Open` request; every later record
    /// is one applied pin (`u32` local row, little-endian). `handle_step`
    /// appends + fsyncs **before** applying the pin, so an acknowledged
    /// step is always recoverable.
    wal: Option<Mutex<WalWriter>>,
    /// The log's path, kept so `Close` can delete it.
    wal_path: Option<PathBuf>,
    /// The session's pins and cleaned rows — the only copy on either side
    /// of the wire.
    state: RwLock<CleaningState>,
}

impl Session {
    /// Read this session's state, recovering from a poisoned lock (handlers
    /// hold no invariant a panic could break mid-write: `clean_row` checks
    /// before it mutates).
    fn read_state(&self) -> RwLockReadGuard<'_, CleaningState> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_state(&self) -> RwLockWriteGuard<'_, CleaningState> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
    }
}

/// A multi-tenant shard server: shared shard data plus a registry of live
/// sessions. All methods take `&self` — one server value is shared across
/// every connection thread.
#[derive(Debug)]
pub struct ShardServer {
    max_sessions: usize,
    /// Process-unique server instance id, embedded in per-session metric
    /// names (see [`SessionMetrics`]).
    instance: u64,
    /// Next session id to mint; starts at 1 so id 0 (an unopened client's
    /// default) never names a session.
    next_session: AtomicU64,
    sessions: RwLock<HashMap<SessionId, Arc<Session>>>,
    /// The deduplicated shared-shard pool, scanned linearly by canonical
    /// key (opens are rare and the compare is cheap next to an index build).
    shards: Mutex<Vec<Arc<SharedShard>>>,
    /// Durability root (see [`ServerConfig::data_dir`]); `None` = in-memory
    /// sessions only.
    data_dir: Option<PathBuf>,
}

impl Default for ShardServer {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardServer {
    /// A server with no sessions yet, under the default session cap.
    pub fn new() -> Self {
        Self::with_max_sessions(ServerConfig::default().max_sessions)
    }

    /// A server admitting at most `max_sessions` live sessions.
    pub fn with_max_sessions(max_sessions: usize) -> Self {
        Self::with_config(max_sessions, None)
    }

    /// A server with an optional durability root. When `data_dir` is set,
    /// existing `session-<id>.wal` logs under it are replayed first: each
    /// valid log rebuilds its session — same id, same shared shard (dedup
    /// by canonical `Open` key still applies), pins re-applied in logged
    /// order — and a damaged log is skipped with a warning, never a panic.
    pub fn with_config(max_sessions: usize, data_dir: Option<PathBuf>) -> Self {
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
        let server = ShardServer {
            max_sessions,
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            next_session: AtomicU64::new(1),
            sessions: RwLock::new(HashMap::new()),
            shards: Mutex::new(Vec::new()),
            data_dir,
        };
        if let Some(dir) = server.data_dir.clone() {
            if let Err(e) = std::fs::create_dir_all(&dir) {
                cp_obs::obs_warn!(
                    "rpc.server",
                    "cannot create data dir {}: {e}; sessions will fail to open",
                    dir.display()
                );
            } else {
                server.recover_sessions(&dir);
            }
        }
        server
    }

    /// Live sessions right now.
    pub fn n_sessions(&self) -> usize {
        self.read_sessions().len()
    }

    /// Distinct shared shards built so far (dedup survives session close).
    pub fn n_shards(&self) -> usize {
        self.shards.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    fn read_sessions(&self) -> RwLockReadGuard<'_, HashMap<SessionId, Arc<Session>>> {
        self.sessions.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_sessions(&self) -> RwLockWriteGuard<'_, HashMap<SessionId, Arc<Session>>> {
        self.sessions.write().unwrap_or_else(|e| e.into_inner())
    }

    fn session(&self, id: SessionId) -> Result<Arc<Session>, Response> {
        self.read_sessions()
            .get(&id)
            .cloned()
            .ok_or_else(|| Response::Error(format!("unknown session {id}")))
    }

    /// Apply one decoded request. Protocol-level rejections come back as
    /// [`Response::Error`] (or [`Response::Busy`] for admission refusals);
    /// this function does not panic on any input.
    pub fn handle(&self, req: Request) -> Response {
        // A deadline envelope reaching handle() directly (an embedder
        // calling without a serve loop) is treated as unexpired — queue
        // wait is the serve loop's concern; it sheds before dispatch.
        if let Request::Deadline { inner, .. } = req {
            return self.handle(*inner);
        }
        // per-request-type handler latency (span records on scope exit, so
        // error responses are timed too — they're served latency all the same)
        let _span = match &req {
            Request::Open(_) => cp_obs::span!("rpc.server.latency.open_us"),
            Request::Scan { .. } => cp_obs::span!("rpc.server.latency.scan_us"),
            Request::SweptScan { .. } => cp_obs::span!("rpc.server.latency.swept_scan_us"),
            Request::ExtremeSummary { .. } => {
                cp_obs::span!("rpc.server.latency.extreme_summary_us")
            }
            Request::Step { .. } => cp_obs::span!("rpc.server.latency.step_us"),
            Request::Status { .. } => cp_obs::span!("rpc.server.latency.status_us"),
            Request::Stats { .. } => cp_obs::span!("rpc.server.latency.stats_us"),
            Request::Close { .. } => cp_obs::span!("rpc.server.latency.close_us"),
            Request::Shutdown => cp_obs::span!("rpc.server.latency.shutdown_us"),
            // Deadline is unwrapped above; Ping is the breaker's liveness probe
            Request::Ping | Request::Deadline { .. } => {
                cp_obs::span!("rpc.server.latency.ping_us")
            }
        };
        match req {
            Request::Open(open) => self.handle_open(*open),
            Request::Scan {
                session,
                val,
                k,
                semiring,
                pins,
            } => match self.session(session) {
                Ok(sess) => Self::handle_scan(&sess, val, k, semiring, pins),
                Err(resp) => resp,
            },
            Request::SweptScan {
                session,
                val,
                k,
                semiring,
                row,
            } => match self.session(session) {
                Ok(sess) => Self::handle_swept_scan(&sess, val, k, semiring, row),
                Err(resp) => resp,
            },
            Request::ExtremeSummary { session, val, k } => match self.session(session) {
                Ok(sess) => Self::handle_extreme_summary(&sess, val, k),
                Err(resp) => resp,
            },
            Request::Step {
                session,
                local_row,
                expect_cleaned,
            } => match self.session(session) {
                Ok(sess) => Self::handle_step(&sess, local_row, expect_cleaned),
                Err(resp) => resp,
            },
            Request::Status { session } => match self.session(session) {
                Ok(sess) => Self::handle_status(&sess),
                Err(resp) => resp,
            },
            Request::Stats { session } => self.handle_stats(session),
            Request::Close { session } => {
                if let Some(sess) = self.write_sessions().remove(&session) {
                    // a closed session's per-session counters would otherwise
                    // accumulate forever in the process-wide registry
                    cp_obs::remove_prefix(&format!(
                        "rpc.server.s{}.session.{}.",
                        self.instance, session
                    ));
                    // an explicit close is a completed session: its log has
                    // nothing left to recover
                    if let Some(path) = &sess.wal_path {
                        if let Err(e) = std::fs::remove_file(path) {
                            cp_obs::obs_warn!(
                                "rpc.server",
                                "cannot delete session log {}: {e}",
                                path.display()
                            );
                        }
                    }
                    Response::Ok
                } else {
                    Response::Error(format!("unknown session {session}"))
                }
            }
            Request::Shutdown => Response::Ok,
            // liveness probe: no session, no state — just an ack
            Request::Ping => Response::Ok,
            // unreachable in practice (unwrapped on entry), but recursing is
            // still the correct non-panicking answer
            Request::Deadline { inner, .. } => self.handle(*inner),
        }
    }

    /// The canonical dedup key of an `Open` payload: its wire encoding with
    /// the thread-count knob zeroed (how many threads build the indexes
    /// doesn't change what shard is being opened).
    fn canonical_key(open: &OpenShard) -> Vec<u8> {
        let mut key = Vec::new();
        put_open(&mut key, open, 0);
        key
    }

    /// Find or build the shared shard for an `Open` payload: a
    /// byte-identical payload was already validated and indexed when its
    /// shard was first built — reuse it and skip both.
    fn shared_for(&self, open: OpenShard, key: Vec<u8>) -> Result<Arc<SharedShard>, Response> {
        let existing = {
            let shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
            shards.iter().find(|s| s.key == key).cloned()
        };
        match existing {
            Some(shared) => Ok(shared),
            None => {
                let shared = Self::build_shared(open, key)?;
                let mut shards = self.shards.lock().unwrap_or_else(|e| e.into_inner());
                // another connection may have built the same shard while
                // we did; keep the first so every session shares one copy
                Ok(match shards.iter().find(|s| s.key == shared.key).cloned() {
                    Some(first) => first,
                    None => {
                        let shared = Arc::new(shared);
                        shards.push(shared.clone());
                        shared
                    }
                })
            }
        }
    }

    /// The log path of a session under this server's data dir.
    fn wal_path(dir: &Path, id: SessionId) -> PathBuf {
        dir.join(format!("session-{id}.wal"))
    }

    fn handle_open(&self, open: OpenShard) -> Response {
        if self.read_sessions().len() >= self.max_sessions {
            cp_obs::counter!("rpc.server.busy_rejections").inc();
            return Response::Busy(format!("{} sessions at capacity", self.max_sessions));
        }
        let key = Self::canonical_key(&open);
        // the open's full wire encoding becomes the log's first record, so
        // a restart can rebuild the session from the log alone
        let mut open_record = Vec::new();
        if self.data_dir.is_some() {
            put_open(&mut open_record, &open, open.n_threads);
        }
        let shared = match self.shared_for(open, key) {
            Ok(shared) => shared,
            Err(resp) => return resp,
        };
        let n_rows = shared.shard.len();
        let state = CleaningState::new(&shared.problem);
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        // make the session durable *before* it is admitted: once `Opened`
        // is on the wire the coordinator may step immediately after a crash
        let (wal, wal_path) = match &self.data_dir {
            Some(dir) => {
                let path = Self::wal_path(dir, id);
                let mut w = match WalWriter::open(&path) {
                    Ok(w) => w,
                    Err(e) => return Response::Error(format!("cannot open session log: {e}")),
                };
                if let Err(e) = w.append(&open_record) {
                    let _ = std::fs::remove_file(&path);
                    return Response::Error(format!("cannot log session open: {e}"));
                }
                (Some(Mutex::new(w)), Some(path))
            }
            None => (None, None),
        };
        let mut sessions = self.write_sessions();
        // re-check under the write lock: another connection may have filled
        // the last slot while the shard was being built
        if sessions.len() >= self.max_sessions {
            cp_obs::counter!("rpc.server.busy_rejections").inc();
            if let Some(path) = &wal_path {
                let _ = std::fs::remove_file(path);
            }
            return Response::Busy(format!("{} sessions at capacity", self.max_sessions));
        }
        let entry = Arc::new(Session {
            shared,
            metrics: SessionMetrics::new(self.instance, id),
            wal,
            wal_path,
            state: RwLock::new(state),
        });
        sessions.insert(id, entry);
        Response::Opened {
            session: id,
            n_rows,
        }
    }

    /// Replay every `session-<id>.wal` under `dir` into a live session. A
    /// log that fails to replay (corrupt record, invalid open, impossible
    /// pin) is skipped with a warning — one damaged session must not stop
    /// the others from recovering — but its id is still retired so a new
    /// session can never collide with the leftover file.
    fn recover_sessions(&self, dir: &Path) {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                cp_obs::obs_warn!("rpc.server", "cannot scan data dir {}: {e}", dir.display());
                return;
            }
        };
        let mut max_id = 0u64;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(id) = name
                .strip_prefix("session-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            max_id = max_id.max(id);
            match self.recover_one(&entry.path(), id) {
                Ok(n_pins) => {
                    cp_obs::obs_info!(
                        "rpc.server",
                        "recovered session {id} with {n_pins} pins from {name}"
                    );
                }
                Err(msg) => {
                    cp_obs::obs_warn!("rpc.server", "skipping session log {name}: {msg}");
                }
            }
        }
        // ids strictly above every logged session, recovered or not
        self.next_session.fetch_max(max_id + 1, Ordering::Relaxed);
    }

    /// Rebuild one session from its log: record 0 is the `Open` request,
    /// every later record one pin, re-applied in logged order. Log records
    /// are external input, so a pin of a row out of range, of a clean row,
    /// or of a row already pinned is an `Err`, never a panic. Returns the
    /// number of replayed pins.
    fn recover_one(&self, path: &Path, id: SessionId) -> Result<usize, String> {
        let records = cp_store::wal::replay(path).map_err(|e| e.to_string())?;
        let Some((open_record, steps)) = records.split_first() else {
            return Err("log holds no open record".into());
        };
        let Ok(Request::Open(open)) = decode_request(open_record) else {
            return Err("first record does not decode to an Open request".into());
        };
        let key = Self::canonical_key(&open);
        let shared = self
            .shared_for(*open, key)
            .map_err(|resp| format!("invalid logged open: {resp:?}"))?;
        let problem = &shared.problem;
        let mut state = CleaningState::new(problem);
        for rec in steps {
            let bytes: [u8; 4] = rec
                .as_slice()
                .try_into()
                .map_err(|_| format!("pin record of {} bytes (expected 4)", rec.len()))?;
            let row = u32::from_le_bytes(bytes) as usize;
            if row >= problem.dataset.len() {
                return Err(format!(
                    "replayed row {row} out of range (shard has {} rows)",
                    problem.dataset.len()
                ));
            }
            if problem.truth_choice[row].is_none() {
                return Err(format!("replayed row {row} is not dirty"));
            }
            if state.is_cleaned(row) {
                return Err(format!("replayed row {row} appears twice in the log"));
            }
            state.clean_row(problem, row);
        }
        let n_pins = steps.len();
        let metrics = SessionMetrics::new(self.instance, id);
        // replayed pins are steps this session has served; the counter must
        // agree with what a never-restarted server would report
        metrics.steps.add(n_pins as u64);
        let wal = WalWriter::open(path).map_err(|e| e.to_string())?;
        let entry = Arc::new(Session {
            shared,
            metrics,
            wal: Some(Mutex::new(wal)),
            wal_path: Some(path.to_path_buf()),
            state: RwLock::new(state),
        });
        self.write_sessions().insert(id, entry);
        Ok(n_pins)
    }

    /// Validate an `Open` payload and build its shared shard (the heavy
    /// path: dataset construction, problem validation, index builds under
    /// the open's thread cap).
    fn build_shared(open: OpenShard, key: Vec<u8>) -> Result<SharedShard, Response> {
        let examples: Vec<IncompleteExample> = open
            .examples
            .into_iter()
            .map(|(label, candidates)| IncompleteExample { candidates, label })
            .collect();
        let dataset = match IncompleteDataset::new(examples, open.n_labels) {
            Ok(ds) => ds,
            Err(e) => return Err(Response::Error(format!("invalid shard dataset: {e}"))),
        };
        if open.k == 0 {
            return Err(Response::Error("k must be positive".into()));
        }
        if open.val_x.is_empty() {
            return Err(Response::Error("empty validation set".into()));
        }
        if open.val_x.iter().any(|x| x.len() != dataset.dim()) {
            return Err(Response::Error("validation dimension mismatch".into()));
        }
        // a NaN or infinite coordinate would be ranked by `total_cmp` as if
        // it were a similarity — refused like a non-finite feature
        let non_finite = open
            .val_x
            .iter()
            .enumerate()
            .find_map(|(v, x)| x.iter().position(|c| !c.is_finite()).map(|d| (v, d)));
        if let Some((v, d)) = non_finite {
            return Err(Response::Error(format!(
                "validation point {v} has a non-finite coordinate {d}"
            )));
        }
        // the simulated-human choices must validate against the shard rows
        // (CleaningProblem::validate would panic on what we reject here —
        // network input must never reach a panic)
        for (name, choices) in [
            ("truth", &open.truth_choice),
            ("default", &open.default_choice),
        ] {
            if choices.len() != dataset.len() {
                return Err(Response::Error(format!("{name} choice length mismatch")));
            }
            for (i, c) in choices.iter().enumerate() {
                let dirty = dataset.example(i).is_dirty();
                match c {
                    Some(j) if !dirty => {
                        return Err(Response::Error(format!(
                            "{name} choice {j} on clean row {i}"
                        )))
                    }
                    Some(j) if *j as usize >= dataset.set_size(i) => {
                        return Err(Response::Error(format!(
                            "{name} choice {j} out of range at row {i}"
                        )))
                    }
                    None if dirty => {
                        return Err(Response::Error(format!(
                            "dirty row {i} lacks a {name} choice"
                        )))
                    }
                    _ => {}
                }
            }
        }
        let to_usize = |v: &[Option<u32>]| -> Vec<Option<usize>> {
            v.iter().map(|c| c.map(|j| j as usize)).collect()
        };
        let problem = Arc::new(CleaningProblem::new(
            dataset.clone(),
            CpConfig::with_kernel(open.k, open.kernel),
            open.val_x,
            to_usize(&open.truth_choice),
            to_usize(&open.default_choice),
        ));
        let cache = index_cache(&problem, open.n_threads.max(1));
        Ok(SharedShard {
            key,
            shard: DatasetShard::from_parts(dataset, open.start),
            problem,
            cache,
        })
    }

    /// Shared validation of per-point query requests (scans and extreme
    /// summaries): the validation point must exist, `k` must be positive
    /// and within the opened classifier's configured K (an unbounded k
    /// would size allocations from network input), and a pin-mask override
    /// must fit the shard's rows.
    fn validate_query(sess: &Session, val: usize, k: u32, pins: Option<&Pins>) -> Option<Response> {
        if val >= sess.shared.cache.len() {
            return Some(Response::Error(format!(
                "validation point {val} out of range"
            )));
        }
        if k == 0 {
            return Some(Response::Error("k must be positive".into()));
        }
        let configured_k = sess.shared.problem.config.k;
        if k as usize > configured_k {
            return Some(Response::Error(format!(
                "requested k {k} exceeds the opened classifier's k {configured_k}"
            )));
        }
        let ds = sess.shared.shard.dataset();
        if let Some(p) = pins {
            if p.len() != ds.len() {
                return Some(Response::Error("pin mask length mismatch".into()));
            }
            for i in 0..p.len() {
                if let Some(j) = p.pinned(i) {
                    if j >= ds.set_size(i) {
                        return Some(Response::Error(format!("pin ({i}, {j}) out of range")));
                    }
                }
            }
        }
        None
    }

    fn handle_scan(sess: &Session, val: u32, k: u32, semiring: u8, pins: Option<Pins>) -> Response {
        let val = val as usize;
        if let Some(reject) = Self::validate_query(sess, val, k, pins.as_ref()) {
            return reject;
        }
        let state = sess.read_state();
        let pins = pins.as_ref().unwrap_or_else(|| state.pins());
        let idx = &sess.shared.cache[val];
        let shard = &sess.shared.shard;
        if semiring == <u128 as WireSemiring>::TAG
            && pins.world_count_u128(shard.dataset()).is_none()
        {
            return Response::Error(U128_OVERFLOW.into());
        }
        let k = k as usize;
        let bytes = match semiring {
            <u128 as WireSemiring>::TAG => {
                encode_stream(&ShardStream::<u128>::capture(shard, idx, pins, k))
            }
            <f64 as WireSemiring>::TAG => {
                encode_stream(&ShardStream::<f64>::capture(shard, idx, pins, k))
            }
            <Possibility as WireSemiring>::TAG => {
                encode_stream(&ShardStream::<Possibility>::capture(shard, idx, pins, k))
            }
            tag => return Response::Error(format!("unknown semiring tag {tag}")),
        };
        // an oversized stream must be a per-request rejection, not a dead
        // connection: leave headroom for the response tag + length field
        if bytes.len() as u64 + 16 > crate::codec::MAX_FRAME_LEN {
            return Response::Error(format!(
                "scan stream of {} bytes exceeds the frame bound — repartition over more shards",
                bytes.len()
            ));
        }
        sess.metrics.scans.inc();
        Response::Stream(bytes)
    }

    /// Answer [`Request::SweptScan`]: the owner's half of a merged pin
    /// sweep over local row `row` under the session's pins
    /// ([`SweptStream::capture`]), counted as one scan. Beyond
    /// [`Self::validate_query`], the row must exist and be unpinned, and
    /// `u128` counts must fit under the row's pin.
    fn handle_swept_scan(sess: &Session, val: u32, k: u32, semiring: u8, row: u32) -> Response {
        let val = val as usize;
        if let Some(reject) = Self::validate_query(sess, val, k, None) {
            return reject;
        }
        let state = sess.read_state();
        let pins = state.pins();
        let shard = &sess.shared.shard;
        let row = row as usize;
        if row >= shard.len() {
            return Response::Error(format!("swept row {row} out of range"));
        }
        if let Some(j) = pins.pinned(row) {
            return Response::Error(format!(
                "swept row {row} is already pinned (to candidate {j})"
            ));
        }
        if semiring == <u128 as WireSemiring>::TAG {
            let mut pinned = pins.clone();
            pinned.pin(row, 0);
            if pinned.world_count_u128(shard.dataset()).is_none() {
                return Response::Error(U128_OVERFLOW.into());
            }
        }
        let idx = &sess.shared.cache[val];
        let k = k as usize;
        let bytes = match semiring {
            <u128 as WireSemiring>::TAG => {
                encode_swept(&SweptStream::<u128>::capture(shard, idx, pins, k, row))
            }
            <f64 as WireSemiring>::TAG => {
                encode_swept(&SweptStream::<f64>::capture(shard, idx, pins, k, row))
            }
            <Possibility as WireSemiring>::TAG => encode_swept(
                &SweptStream::<Possibility>::capture(shard, idx, pins, k, row),
            ),
            tag => return Response::Error(format!("unknown semiring tag {tag}")),
        };
        if bytes.len() as u64 + 16 > crate::codec::MAX_FRAME_LEN {
            return Response::Error(format!(
                "swept stream of {} bytes exceeds the frame bound — repartition over more shards",
                bytes.len()
            ));
        }
        sess.metrics.scans.inc();
        Response::Swept(bytes)
    }

    fn handle_extreme_summary(sess: &Session, val: u32, k: u32) -> Response {
        let val = val as usize;
        if let Some(reject) = Self::validate_query(sess, val, k, None) {
            return reject;
        }
        // the extreme-world equivalence is only proven for binary label
        // spaces — the regime the coordinator dispatches summaries in
        if sess.shared.shard.dataset().n_labels() != 2 {
            return Response::Error(
                "extreme summaries answer binary Q1 only; scan the Possibility semiring instead"
                    .into(),
            );
        }
        let state = sess.read_state();
        let idx = &sess.shared.cache[val];
        let summary = ExtremeSummary::build(&sess.shared.shard, idx, state.pins(), k as usize);
        Response::Summary(encode_summary(&summary))
    }

    fn handle_step(sess: &Session, local_row: u32, expect_cleaned: u32) -> Response {
        let mut state = sess.write_state();
        let row = local_row as usize;
        let ds = sess.shared.shard.dataset();
        if row >= ds.len() {
            return Response::Error(format!("row {row} out of range"));
        }
        if !ds.example(row).is_dirty() {
            return Response::Error(format!("row {row} is not dirty"));
        }
        let n_cleaned = state.n_cleaned();
        let expect = expect_cleaned as usize;
        // a retransmission of a step this session already applied (the first
        // reply was lost in flight) must acknowledge without re-pinning —
        // this is what makes a coordinator retry after reconnect safe
        if n_cleaned == expect + 1 && state.is_cleaned(row) {
            return Response::Ok;
        }
        if n_cleaned != expect {
            return Response::Error(format!(
                "step expected {expect} cleaned rows, shard has {n_cleaned}"
            ));
        }
        if state.is_cleaned(row) {
            return Response::Error(format!("row {row} already cleaned"));
        }
        // durable before acknowledged: the pin record is on stable storage
        // before the pin applies or `Ok` hits the wire. A crash between
        // append and apply is safe — replay re-applies the pin, and the
        // coordinator's retransmission lands on the idempotency path above.
        if let Some(wal) = &sess.wal {
            let mut wal = wal.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(e) = wal.append(&local_row.to_le_bytes()) {
                return Response::Error(format!("cannot log pin: {e}"));
            }
        }
        state.clean_row(&sess.shared.problem, row);
        // counted after the pin applies: a retransmission acknowledged above
        // re-reports a step the counter already holds, so per-session step
        // counts stay exact under retries
        sess.metrics.steps.inc();
        Response::Ok
    }

    fn handle_status(sess: &Session) -> Response {
        let state = sess.read_state();
        Response::Status(ShardStatus {
            start: sess.shared.shard.start(),
            n_rows: sess.shared.shard.len(),
            n_cleaned: state.n_cleaned(),
            pins: state.pins().clone(),
        })
    }

    /// Answer [`Request::Stats`]: session `0` exports the whole process's
    /// registry, a real session id exports just that session's own metrics
    /// (its `rpc.server.s<inst>.session.<id>.*` names). The snapshot is
    /// taken live — nothing is reset.
    fn handle_stats(&self, session: SessionId) -> Response {
        let snap = cp_obs::snapshot();
        if session == 0 {
            return Response::Stats(snap.encode());
        }
        if !self.read_sessions().contains_key(&session) {
            return Response::Error(format!("unknown session {session}"));
        }
        let prefix = format!("rpc.server.s{}.session.{}.", self.instance, session);
        Response::Stats(snap.filtered(|name| name.starts_with(&prefix)).encode())
    }
}

/// The refusal of a `u128` scan whose world count reaches `2^128`.
pub(crate) const U128_OVERFLOW: &str = "u128 counts overflow: the scan covers 2^128 or more \
     possible worlds; scan in f64, or count exactly with BigUint in process";

/// [`ShardServer::handle`] behind `catch_unwind`: a handler panic answers
/// [`Response::Error`] instead of silently stalling the connection.
fn handle_caught(server: &ShardServer, req: Request) -> Response {
    std::panic::catch_unwind(AssertUnwindSafe(|| server.handle(req))).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        cp_obs::counter!("rpc.server.handler_panics").inc();
        cp_obs::obs_error!("rpc.server", "request handler panicked: {msg}");
        Response::Error(format!("request handler panicked: {msg}"))
    })
}

/// Unwrap a [`Request::Deadline`] envelope, shedding the request if its
/// wire-carried budget has already passed after `waited_us` in the queue
/// (a zero budget is pre-expired by definition). Non-envelope requests
/// pass through untouched.
fn shed_expired(req: Request, waited_us: u64) -> Result<Request, Response> {
    match req {
        Request::Deadline { budget_us, inner } => {
            if budget_us == 0 || waited_us > budget_us {
                cp_obs::counter!("rpc.server.expired_requests").inc();
                Err(Response::Expired(format!(
                    "queued {waited_us}us against a {budget_us}us budget"
                )))
            } else {
                Ok(*inner)
            }
        }
        other => Ok(other),
    }
}

/// Serve one connection through a bounded request queue: a reader thread
/// pulls frames off the socket into a `sync_channel` of `queue_depth`
/// decoded-frame slots (filling the queue stops the reads — TCP
/// backpressure, not unbounded buffering) while this thread decodes,
/// handles and replies. Returns `true` on [`Request::Shutdown`].
///
/// The connection remembers its last [`Request::Open`]: a frame repeating
/// both its request id and its bytes — a duplicated frame, since a client
/// numbers its requests afresh — gets the same reply again without reaching
/// [`ShardServer::handle`], so it cannot mint a second session.
fn serve_queued_connection(
    server: &ShardServer,
    stream: TcpStream,
    queue_depth: usize,
    chaos: Option<&FaultPlan>,
) -> RpcResult<bool> {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    // a chaos-wrapped writer can't reach TcpStream::shutdown, so keep a raw
    // handle for teardown regardless of wrapping
    let shutdown_handle = stream.try_clone()?;
    let mut writer: Box<dyn std::io::Write + Send> = match chaos {
        Some(plan) => Box::new(FaultyTransport::new(stream.try_clone()?, plan.schedule())),
        None => Box::new(stream.try_clone()?),
    };
    let (tx, rx) = sync_channel::<(u32, Vec<u8>, Instant)>(queue_depth.max(1));
    let queue_gauge = cp_obs::gauge!("rpc.server.queue_depth");
    // the connection's own read buffer: one read usually brings in a whole
    // request frame, or several of a pipelined window
    let mut reader_stream = BufReader::with_capacity(READ_BUFFER_BYTES, stream);
    let reader = std::thread::spawn(move || -> RpcResult<()> {
        let queue_gauge = cp_obs::gauge!("rpc.server.queue_depth");
        loop {
            match read_frame_opt_tagged(&mut reader_stream) {
                Ok(Some((req_id, frame))) => {
                    cp_obs::counter!("rpc.server.bytes_in")
                        .add(FRAME_OVERHEAD + frame.len() as u64);
                    // counted while (possibly) blocked on a full queue, so
                    // the gauge reads true backlog including this frame
                    queue_gauge.add(1.0);
                    // arrival time starts the queue-wait clock that the
                    // processor checks deadline envelopes against
                    if tx.send((req_id, frame, Instant::now())).is_err() {
                        // processor gone (shutdown or write failure)
                        queue_gauge.add(-1.0);
                        return Ok(());
                    }
                }
                Ok(None) => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    });
    let mut result: RpcResult<bool> = Ok(false);
    let mut handled = 0usize;
    // the last `Open` frame's request id, bytes and encoded reply
    let mut last_open: Option<(u32, Vec<u8>, Vec<u8>)> = None;
    for (req_id, frame, arrived) in rx.iter() {
        queue_gauge.add(-1.0);
        handled += 1;
        let (payload, shutdown) = match &last_open {
            Some((id, bytes, reply)) if *id == req_id && *bytes == frame => (reply.clone(), false),
            _ => {
                let mut opened = false;
                let (resp, shutdown) = match decode_request(&frame) {
                    Ok(req) => {
                        let waited_us =
                            u64::try_from(arrived.elapsed().as_micros()).unwrap_or(u64::MAX);
                        match shed_expired(req, waited_us) {
                            Ok(req) => {
                                let shutdown = matches!(req, Request::Shutdown);
                                opened = matches!(req, Request::Open(_));
                                (handle_caught(server, req), shutdown)
                            }
                            Err(resp) => (resp, false),
                        }
                    }
                    Err(e) => {
                        cp_obs::counter!("rpc.server.malformed_requests").inc();
                        cp_obs::obs_debug!("rpc.server", "bad request from {peer}: {e}");
                        (Response::Error(format!("bad request: {e}")), false)
                    }
                };
                let payload = encode_response(&resp);
                if opened {
                    last_open = Some((req_id, frame, payload.clone()));
                }
                (payload, shutdown)
            }
        };
        cp_obs::counter!("rpc.server.bytes_out").add(FRAME_OVERHEAD + payload.len() as u64);
        if let Err(e) = write_frame_tagged(&mut writer, req_id, &payload) {
            result = Err(e);
            break;
        }
        if shutdown {
            result = Ok(true);
            break;
        }
    }
    // unblock a reader mid-read and retire it; after a Shutdown (or a write
    // failure) its socket error is expected, not a connection fault
    let _ = shutdown_handle.shutdown(Shutdown::Both);
    // frames the reader queued but nobody will process still hold gauge slots
    for _ in rx.try_iter() {
        queue_gauge.add(-1.0);
    }
    drop(rx);
    let reader_result = reader.join().unwrap_or(Ok(()));
    if let (Ok(false), Err(e)) = (&result, reader_result) {
        result = Err(e);
    }
    // classify the failure for the operator: a connection that dies on its
    // very first frame is a misconfigured or non-protocol client (today
    // invisible), anything later is a mid-conversation fault
    if let Err(e) = &result {
        if handled == 0 {
            cp_obs::counter!("rpc.server.first_frame_drops").inc();
            cp_obs::obs_warn!(
                "rpc.server",
                "dropping connection from {peer} on its first frame: {e}"
            );
        } else {
            cp_obs::counter!("rpc.server.connection_errors").inc();
            cp_obs::obs_warn!(
                "rpc.server",
                "connection from {peer} failed after {handled} requests: {e}"
            );
        }
    }
    result
}

/// Decrements the live-connection count when a connection thread exits by
/// any path (including a handler panic).
struct SlotGuard(Arc<AtomicUsize>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Answer one over-cap connection: read its first frame (briefly), reply
/// [`Response::Busy`] echoing the request id, and drop it. Run detached so
/// a slow-writing rejected peer can't stall admission of others.
fn reject_busy(mut stream: TcpStream, msg: String) {
    cp_obs::counter!("rpc.server.busy_rejections").inc();
    cp_obs::obs_info!("rpc.server", "rejecting over-cap connection: {msg}");
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    if let Ok(Some((req_id, _frame))) = read_frame_opt_tagged(&mut BufReader::new(&stream)) {
        let _ = write_frame_tagged(&mut stream, req_id, &encode_response(&Response::Busy(msg)));
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// The accept loop: one shared [`ShardServer`] behind a thread per admitted
/// connection, with [`ServerConfig`]'s admission control. Accept errors and
/// per-connection faults (malformed first frames, mid-handshake drops) are
/// logged and the loop continues — network input never halts the server.
pub fn serve_with(listener: TcpListener, cfg: ServerConfig) -> RpcResult<()> {
    serve_inner(listener, cfg, None)
}

fn serve_inner(
    listener: TcpListener,
    cfg: ServerConfig,
    stop: Option<Arc<AtomicBool>>,
) -> RpcResult<()> {
    let server = Arc::new(ShardServer::with_config(
        cfg.max_sessions,
        cfg.data_dir.clone(),
    ));
    let live = Arc::new(AtomicUsize::new(0));
    let mut accepted = 0usize;
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if let Some(flag) = &stop {
            if flag.load(Ordering::SeqCst) {
                break;
            }
        }
        // reap finished connection threads so the handle list stays bounded
        handles = handles
            .into_iter()
            .filter_map(|h| {
                if h.is_finished() {
                    let _ = h.join();
                    None
                } else {
                    Some(h)
                }
            })
            .collect();
        let stream = match stream {
            Ok(s) => s,
            // a failed accept poisons nothing; keep serving
            Err(e) => {
                cp_obs::counter!("rpc.server.accept_errors").inc();
                cp_obs::obs_warn!("rpc.server", "accept error: {e}");
                continue;
            }
        };
        if live.load(Ordering::SeqCst) >= cfg.max_connections {
            let msg = format!("{} connections at capacity", cfg.max_connections);
            std::thread::spawn(move || reject_busy(stream, msg));
            continue;
        }
        // each frame leaves in one write; Nagle would only hold a reply back
        // until the client acknowledges the one before it
        let _ = stream.set_nodelay(true);
        live.fetch_add(1, Ordering::SeqCst);
        let guard = SlotGuard(live.clone());
        let server = server.clone();
        let queue_depth = cfg.queue_depth;
        let chaos = cfg.chaos.clone();
        handles.push(std::thread::spawn(move || {
            let _guard = guard;
            // per-connection faults should not take the whole server down;
            // serve_queued_connection already counted and logged the error
            let _ = serve_queued_connection(&server, stream, queue_depth, chaos.as_ref());
        }));
        accepted += 1;
        if let Some(max) = cfg.max_accepts {
            if accepted >= max {
                break;
            }
        }
    }
    // release the port *before* joining connection threads: a client
    // re-dialing a stopped server must see a refused connection it can
    // fail over from, not a TCP backlog it parks in forever
    drop(listener);
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}

/// A background server started by [`spawn_server`]: its bound address plus
/// the stop handle. Dropping it stops the accept loop and joins the server
/// thread (shut client connections down first, or the join waits for them).
#[derive(Debug)]
pub struct RunningServer {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl RunningServer {
    /// The server's bound `host:port`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting, wake the accept loop, and join the server thread.
    pub fn stop(self) {
        // Drop does the work
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // a dummy dial unblocks the blocking accept so it sees the flag
        let _ = TcpStream::connect(&self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Start one multi-tenant server on an ephemeral loopback port with the
/// given admission control, running until the returned [`RunningServer`] is
/// stopped or dropped. The in-one-process deployment shape the multi-tenant
/// tests and the `rpc_many_sessions` experiment share; multi-host
/// deployments run the `shard-server` binary instead.
pub fn spawn_server(cfg: ServerConfig) -> RpcResult<RunningServer> {
    spawn_server_on("127.0.0.1:0", cfg)
}

/// [`spawn_server`] on an explicit bind address. The shape crash-recovery
/// tests need: a restarted server must rebind the *same* port its
/// predecessor held, because a reconnecting [`crate::ShardClient`] redials
/// the address it remembers.
pub fn spawn_server_on(bind: &str, cfg: ServerConfig) -> RpcResult<RunningServer> {
    let listener = TcpListener::bind(bind)?;
    let addr = listener.local_addr()?.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let handle = std::thread::spawn(move || {
        if let Err(e) = serve_inner(listener, cfg, Some(flag)) {
            cp_obs::obs_error!("rpc.server", "spawned server failed: {e}");
        }
    });
    Ok(RunningServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_stream;
    use cp_knn::Kernel;
    use std::sync::mpsc::channel;

    fn tiny_open() -> OpenShard {
        OpenShard {
            start: 0,
            n_labels: 2,
            k: 1,
            kernel: Kernel::default(),
            n_threads: 1,
            examples: vec![
                (0, vec![vec![0.0]]),
                (0, vec![vec![4.8], vec![7.0]]),
                (1, vec![vec![5.5]]),
            ],
            val_x: vec![vec![5.0], vec![0.1]],
            truth_choice: vec![None, Some(0), None],
            default_choice: vec![None, Some(1), None],
        }
    }

    fn open_session(server: &ShardServer, open: OpenShard) -> SessionId {
        match server.handle(Request::Open(Box::new(open))) {
            Response::Opened { session, .. } => session,
            other => panic!("expected Opened, got {other:?}"),
        }
    }

    #[test]
    fn open_scan_step_status_flow() {
        let server = ShardServer::new();
        assert!(matches!(
            server.handle(Request::Status { session: 1 }),
            Response::Error(_)
        ));
        let resp = server.handle(Request::Open(Box::new(tiny_open())));
        let Response::Opened { session, n_rows } = resp else {
            panic!("expected Opened, got {resp:?}");
        };
        assert_eq!(n_rows, 3);
        assert_ne!(session, 0, "session id 0 is reserved");
        assert_eq!(server.n_sessions(), 1);

        let resp = server.handle(Request::Scan {
            session,
            val: 0,
            k: 1,
            semiring: <u128 as WireSemiring>::TAG,
            pins: None,
        });
        let Response::Stream(bytes) = resp else {
            panic!("expected stream, got {resp:?}");
        };
        let stream = decode_stream::<u128>(&bytes).unwrap();
        assert_eq!(stream.n_labels(), 2);
        assert!(!stream.events.is_empty());

        let summary = || {
            let resp = server.handle(Request::ExtremeSummary {
                session,
                val: 0,
                k: 1,
            });
            let Response::Summary(bytes) = resp else {
                panic!("expected summary, got {resp:?}");
            };
            crate::codec::decode_summary(&bytes).unwrap()
        };
        assert_eq!(summary().n_labels(), 2);
        assert_eq!(summary().k(), 1);
        // row 1 decides the point at 5.0: its 4.8 votes label 0, its 7.0
        // lets row 2's label 1 win
        assert_eq!(summary().certain_label(), None);

        let step = Request::Step {
            session,
            local_row: 1,
            expect_cleaned: 0,
        };
        assert_eq!(server.handle(step.clone()), Response::Ok);
        // a summary reads the session's current pins
        assert_eq!(summary().certain_label(), Some(0));
        // a retransmission of the same step (its reply was lost) is
        // acknowledged without re-pinning
        assert_eq!(server.handle(step), Response::Ok);
        // a genuinely new step on the same row is still an error
        assert!(matches!(
            server.handle(Request::Step {
                session,
                local_row: 1,
                expect_cleaned: 1,
            }),
            Response::Error(_)
        ));
        // as is a count the shard has never been at
        assert!(matches!(
            server.handle(Request::Step {
                session,
                local_row: 1,
                expect_cleaned: 7,
            }),
            Response::Error(_)
        ));
        let Response::Status(status) = server.handle(Request::Status { session }) else {
            panic!("expected status");
        };
        assert_eq!(status.n_cleaned, 1);
        assert_eq!(status.pins.pinned(1), Some(0));

        // closing frees the session; its id stops resolving
        assert_eq!(server.handle(Request::Close { session }), Response::Ok);
        assert_eq!(server.n_sessions(), 0);
        assert!(matches!(
            server.handle(Request::Status { session }),
            Response::Error(_)
        ));
    }

    #[test]
    fn stats_exports_the_registry_and_scopes_to_sessions() {
        let server = ShardServer::new();
        // stats on a never-minted session is a protocol error
        assert!(matches!(
            server.handle(Request::Stats { session: 999 }),
            Response::Error(_)
        ));
        let session = open_session(&server, tiny_open());
        assert_eq!(
            server.handle(Request::Step {
                session,
                local_row: 1,
                expect_cleaned: 0,
            }),
            Response::Ok
        );
        for _ in 0..3 {
            let resp = server.handle(Request::Scan {
                session,
                val: 0,
                k: 1,
                semiring: <f64 as WireSemiring>::TAG,
                pins: None,
            });
            assert!(matches!(resp, Response::Stream(_)));
        }
        // session-scoped stats carry exactly this session's counters, and
        // their values are exact (names are unique per server instance, so
        // concurrently-running tests can't perturb them)
        let Response::Stats(bytes) = server.handle(Request::Stats { session }) else {
            panic!("expected stats");
        };
        let scoped = cp_obs::Snapshot::decode(&bytes).unwrap();
        let prefix = format!("rpc.server.s{}.session.{session}.", server.instance);
        assert!(scoped.counters.keys().all(|k| k.starts_with(&prefix)));
        assert_eq!(scoped.counter(&format!("{prefix}steps")), 1);
        assert_eq!(scoped.counter(&format!("{prefix}scans")), 3);
        // a retransmitted step acknowledges without inflating the counter
        assert_eq!(
            server.handle(Request::Step {
                session,
                local_row: 1,
                expect_cleaned: 0,
            }),
            Response::Ok
        );
        let Response::Stats(bytes) = server.handle(Request::Stats { session }) else {
            panic!("expected stats");
        };
        let scoped = cp_obs::Snapshot::decode(&bytes).unwrap();
        assert_eq!(scoped.counter(&format!("{prefix}steps")), 1);
        // session 0 is the whole process: a superset with latency histograms
        let Response::Stats(bytes) = server.handle(Request::Stats { session: 0 }) else {
            panic!("expected stats");
        };
        let full = cp_obs::Snapshot::decode(&bytes).unwrap();
        assert_eq!(full.counter(&format!("{prefix}scans")), 3);
        assert!(full.histogram("rpc.server.latency.scan_us").count() >= 3);
        assert!(full.histogram("rpc.server.latency.step_us").count() >= 2);
    }

    #[test]
    fn sessions_are_independent_and_ids_never_reused() {
        let server = ShardServer::new();
        let a = open_session(&server, tiny_open());
        let b = open_session(&server, tiny_open());
        assert_ne!(a, b);
        // stepping A leaves B untouched
        assert_eq!(
            server.handle(Request::Step {
                session: a,
                local_row: 1,
                expect_cleaned: 0,
            }),
            Response::Ok
        );
        let Response::Status(sa) = server.handle(Request::Status { session: a }) else {
            panic!("expected status");
        };
        let Response::Status(sb) = server.handle(Request::Status { session: b }) else {
            panic!("expected status");
        };
        assert_eq!(sa.n_cleaned, 1);
        assert_eq!(sb.n_cleaned, 0);
        assert_eq!(sb.pins.pinned(1), None);
        // a later session never reuses a closed id
        assert_eq!(server.handle(Request::Close { session: a }), Response::Ok);
        let c = open_session(&server, tiny_open());
        assert_ne!(c, a);
    }

    #[test]
    fn identical_opens_share_one_index_build() {
        let server = ShardServer::new();
        let a = open_session(&server, tiny_open());
        // a different thread count must not split the dedup key
        let mut open = tiny_open();
        open.n_threads = 4;
        let b = open_session(&server, open);
        assert_eq!(server.n_shards(), 1, "identical shards must deduplicate");
        let sessions = server.read_sessions();
        let (sa, sb) = (&sessions[&a], &sessions[&b]);
        assert!(
            Arc::ptr_eq(&sa.shared, &sb.shared),
            "sessions over one shard share its data and indexes"
        );
        drop(sessions);
        // a genuinely different shard builds its own
        let mut other = tiny_open();
        other.val_x.push(vec![2.5]);
        let _ = open_session(&server, other);
        assert_eq!(server.n_shards(), 2);
    }

    #[test]
    fn session_cap_is_busy_and_close_frees_a_slot() {
        let server = ShardServer::with_max_sessions(1);
        let a = open_session(&server, tiny_open());
        let resp = server.handle(Request::Open(Box::new(tiny_open())));
        let Response::Busy(msg) = resp else {
            panic!("expected Busy, got {resp:?}");
        };
        assert!(msg.contains("capacity"), "{msg:?}");
        assert_eq!(server.handle(Request::Close { session: a }), Response::Ok);
        let _ = open_session(&server, tiny_open());
    }

    #[test]
    fn reads_on_one_session_never_wait_behind_anothers_step() {
        let server = Arc::new(ShardServer::new());
        let a = open_session(&server, tiny_open());
        let b = open_session(&server, tiny_open());
        // hold A's write lock, exactly as a (slow) Step would
        let sess_a = server.read_sessions()[&a].clone();
        let step_guard = sess_a.write_state();
        let (tx, rx) = channel();
        let srv = server.clone();
        let t = std::thread::spawn(move || {
            let status = srv.handle(Request::Status { session: b });
            let scan = srv.handle(Request::Scan {
                session: b,
                val: 0,
                k: 1,
                semiring: <f64 as WireSemiring>::TAG,
                pins: None,
            });
            tx.send((status, scan)).unwrap();
        });
        let (status, scan) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("B's reads must complete while A's step is in flight");
        assert!(matches!(status, Response::Status(_)), "{status:?}");
        assert!(matches!(scan, Response::Stream(_)), "{scan:?}");
        drop(step_guard);
        t.join().unwrap();
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        let server = ShardServer::new();
        let session = open_session(&server, tiny_open());
        for req in [
            Request::Scan {
                session: session + 999, // unknown session
                val: 0,
                k: 1,
                semiring: 1,
                pins: None,
            },
            Request::Scan {
                session,
                val: 99,
                k: 1,
                semiring: 1,
                pins: None,
            },
            Request::Scan {
                session,
                val: 0,
                k: 0,
                semiring: 1,
                pins: None,
            },
            // k beyond the opened classifier's k would size allocations
            // from network input
            Request::Scan {
                session,
                val: 0,
                k: u32::MAX,
                semiring: 1,
                pins: None,
            },
            Request::Scan {
                session,
                val: 0,
                k: 1,
                semiring: 0xee,
                pins: None,
            },
            Request::Scan {
                session,
                val: 0,
                k: 1,
                semiring: 1,
                pins: Some(Pins::single(3, 1, 9)),
            },
            Request::Scan {
                session,
                val: 0,
                k: 1,
                semiring: 1,
                pins: Some(Pins::none(7)),
            },
            Request::ExtremeSummary {
                session,
                val: 99,
                k: 1,
            },
            Request::ExtremeSummary {
                session,
                val: 0,
                k: 0,
            },
            Request::ExtremeSummary {
                session,
                val: 0,
                k: u32::MAX,
            },
            Request::Step {
                session,
                local_row: 77,
                expect_cleaned: 0,
            },
            // clean row
            Request::Step {
                session,
                local_row: 0,
                expect_cleaned: 0,
            },
            // stale cleaned-count (shard is at 0)
            Request::Step {
                session,
                local_row: 1,
                expect_cleaned: 3,
            },
            Request::Close { session: 0 },
        ] {
            assert!(
                matches!(server.handle(req.clone()), Response::Error(_)),
                "{req:?} must be rejected"
            );
        }
    }

    #[test]
    fn extreme_summaries_are_rejected_on_multiclass_shards() {
        let server = ShardServer::new();
        // summary on a never-minted session is a protocol error
        assert!(matches!(
            server.handle(Request::ExtremeSummary {
                session: 1,
                val: 0,
                k: 1,
            }),
            Response::Error(_)
        ));
        let mut open = tiny_open();
        open.n_labels = 3;
        open.examples.push((2, vec![vec![9.0]]));
        open.truth_choice.push(None);
        open.default_choice.push(None);
        let session = open_session(&server, open);
        let resp = server.handle(Request::ExtremeSummary {
            session,
            val: 0,
            k: 1,
        });
        let Response::Error(msg) = resp else {
            panic!("expected rejection, got {resp:?}");
        };
        assert!(msg.contains("binary Q1"), "{msg:?}");
    }

    #[test]
    fn bad_open_payloads_are_rejected() {
        type Mutation = fn(&mut OpenShard);
        let cases: Vec<(Mutation, &str)> = vec![
            (|o| o.examples.clear(), "invalid shard dataset"),
            (|o| o.k = 0, "k must be positive"),
            (|o| o.val_x.clear(), "empty validation"),
            (|o| o.val_x[0] = vec![1.0, 2.0], "dimension mismatch"),
            (|o| o.truth_choice[1] = None, "lacks a truth"),
            (|o| o.truth_choice[1] = Some(9), "out of range"),
            (|o| o.default_choice[0] = Some(0), "on clean row"),
            (
                |o| {
                    o.truth_choice.pop();
                },
                "length mismatch",
            ),
        ];
        for (mutate, needle) in cases {
            let mut open = tiny_open();
            mutate(&mut open);
            let server = ShardServer::new();
            let resp = server.handle(Request::Open(Box::new(open)));
            match resp {
                Response::Error(msg) => {
                    assert!(msg.contains(needle), "{msg:?} missing {needle:?}")
                }
                other => panic!("expected error for {needle}, got {other:?}"),
            }
            assert_eq!(server.n_sessions(), 0);
            assert_eq!(server.n_shards(), 0, "a rejected open must build nothing");
        }
    }

    /// A fresh directory under the OS temp dir, removed on drop.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cp-rpc-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// [`tiny_open`] with a second dirty row, so recovery tests can keep
    /// cleaning after the replayed pin.
    fn two_dirty_open() -> OpenShard {
        let mut open = tiny_open();
        open.examples[2] = (1, vec![vec![5.5], vec![6.0]]);
        open.truth_choice[2] = Some(0);
        open.default_choice[2] = Some(1);
        open
    }

    fn step(server: &ShardServer, session: SessionId, local_row: u32, expect: u32) -> Response {
        server.handle(Request::Step {
            session,
            local_row,
            expect_cleaned: expect,
        })
    }

    fn status(server: &ShardServer, session: SessionId) -> ShardStatus {
        match server.handle(Request::Status { session }) {
            Response::Status(s) => s,
            other => panic!("expected status, got {other:?}"),
        }
    }

    #[test]
    fn wal_replay_recovers_sessions_across_restart() {
        let dir = TestDir::new("replay");
        let data_dir = Some(dir.path().to_path_buf());
        let (session, before) = {
            let server = ShardServer::with_config(8, data_dir.clone());
            let session = open_session(&server, two_dirty_open());
            assert_eq!(step(&server, session, 1, 0), Response::Ok);
            (session, status(&server, session))
            // dropped without `Close` — the mid-run crash
        };
        assert!(
            dir.path().join(format!("session-{session}.wal")).exists(),
            "a live session must leave its log behind"
        );

        let server = ShardServer::with_config(8, data_dir);
        assert_eq!(server.n_sessions(), 1, "the session must come back");
        let after = status(&server, session);
        assert_eq!(after.n_cleaned, before.n_cleaned);
        assert_eq!(after.pins, before.pins);
        // replayed pins count as served steps — stats look like no restart
        let Response::Stats(bytes) = server.handle(Request::Stats { session }) else {
            panic!("expected stats");
        };
        let scoped = cp_obs::Snapshot::decode(&bytes).unwrap();
        let prefix = format!("rpc.server.s{}.session.{session}.", server.instance);
        assert_eq!(scoped.counter(&format!("{prefix}steps")), 1);
        // a retransmission of the logged step lands on the idempotency path
        assert_eq!(step(&server, session, 1, 0), Response::Ok);
        assert_eq!(status(&server, session).n_cleaned, 1);
        // and the recovered session keeps cleaning durably
        assert_eq!(step(&server, session, 2, 1), Response::Ok);
        assert_eq!(status(&server, session).n_cleaned, 2);
        // ids never collide with recovered (or leftover) logs
        let fresh = open_session(&server, tiny_open());
        assert!(fresh > session);
    }

    #[test]
    fn close_deletes_the_log_and_unregisters_session_metrics() {
        let dir = TestDir::new("close");
        let server = ShardServer::with_config(8, Some(dir.path().to_path_buf()));
        let session = open_session(&server, tiny_open());
        assert_eq!(step(&server, session, 1, 0), Response::Ok);
        let wal = dir.path().join(format!("session-{session}.wal"));
        assert!(wal.exists());
        let prefix = format!("rpc.server.s{}.session.{session}.", server.instance);
        assert_eq!(
            cp_obs::snapshot().counter(&format!("{prefix}steps")),
            1,
            "session counters live while the session does"
        );
        assert_eq!(server.handle(Request::Close { session }), Response::Ok);
        assert!(!wal.exists(), "a closed session has nothing to recover");
        let snap = cp_obs::snapshot();
        assert!(
            snap.counters.keys().all(|k| !k.starts_with(&prefix)),
            "closed session left counters behind"
        );
        // nothing to recover on the next boot
        let server = ShardServer::with_config(8, Some(dir.path().to_path_buf()));
        assert_eq!(server.n_sessions(), 0);
    }

    #[test]
    fn damaged_and_foreign_logs_are_skipped_not_fatal() {
        let dir = TestDir::new("damaged");
        let data_dir = Some(dir.path().to_path_buf());
        let good = {
            let server = ShardServer::with_config(8, data_dir.clone());
            let good = open_session(&server, tiny_open());
            assert_eq!(step(&server, good, 1, 0), Response::Ok);
            good
        };
        // a log whose open record is garbage
        let mut w = WalWriter::open(&dir.path().join("session-500.wal")).unwrap();
        w.append(b"not an open request").unwrap();
        drop(w);
        // an empty log, a mid-write CRC hit, and files that aren't logs
        WalWriter::open(&dir.path().join("session-501.wal")).unwrap();
        std::fs::write(dir.path().join("session-502.wal"), [0xFF; 64]).unwrap();
        std::fs::write(dir.path().join("notes.txt"), b"ignore me").unwrap();

        let server = ShardServer::with_config(8, data_dir);
        assert_eq!(server.n_sessions(), 1, "only the healthy session recovers");
        assert_eq!(status(&server, good).n_cleaned, 1);
        // damaged logs still retire their ids — a new session can never be
        // minted onto a leftover file
        let fresh = open_session(&server, tiny_open());
        assert!(fresh > 502, "id {fresh} could collide with a skipped log");
    }

    /// A log whose pins no live session could have applied — a row out of
    /// range, a clean row, a row pinned twice — is skipped, never replayed
    /// in part, and its id is still retired.
    #[test]
    fn wal_logs_with_impossible_pins_are_skipped_and_retire_their_ids() {
        let dir = TestDir::new("bad-pins");
        let open = crate::proto::encode_request(&Request::Open(Box::new(two_dirty_open())));
        for (id, rows) in [(7u64, vec![99u32]), (8, vec![0]), (9, vec![1, 1])] {
            let mut w = WalWriter::open(&dir.path().join(format!("session-{id}.wal"))).unwrap();
            w.append(&open).unwrap();
            for row in rows {
                w.append(&row.to_le_bytes()).unwrap();
            }
        }
        // the same open with a valid order replays
        let mut w = WalWriter::open(&dir.path().join("session-6.wal")).unwrap();
        w.append(&open).unwrap();
        for row in [2u32, 1] {
            w.append(&row.to_le_bytes()).unwrap();
        }
        drop(w);

        let server = ShardServer::with_config(8, Some(dir.path().to_path_buf()));
        assert_eq!(server.n_sessions(), 1, "only the valid order recovers");
        let st = status(&server, 6);
        assert_eq!(st.n_cleaned, 2);
        assert_eq!(st.pins, Pins::from_pairs(3, &[(1, 0), (2, 0)]));
        for id in [7, 8, 9] {
            assert!(matches!(
                server.handle(Request::Status { session: id }),
                Response::Error(_)
            ));
        }
        let fresh = open_session(&server, tiny_open());
        assert!(fresh > 9, "id {fresh} could collide with a skipped log");
    }

    #[test]
    fn torn_wal_tail_drops_only_the_unacknowledged_pin() {
        let dir = TestDir::new("torn");
        let data_dir = Some(dir.path().to_path_buf());
        let session = {
            let server = ShardServer::with_config(8, data_dir.clone());
            let session = open_session(&server, two_dirty_open());
            assert_eq!(step(&server, session, 1, 0), Response::Ok);
            session
        };
        // a crash mid-append leaves a torn frame: the record for a pin that
        // was never acknowledged
        let path = dir.path().join(format!("session-{session}.wal"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[4, 0, 0, 0, 0xAA]); // length prefix + 1 of 8 frame bytes
        std::fs::write(&path, &bytes).unwrap();

        let server = ShardServer::with_config(8, data_dir);
        let st = status(&server, session);
        assert_eq!(st.n_cleaned, 1, "the torn pin must not replay");
        // the truncated-on-reopen log keeps accepting pins
        assert_eq!(step(&server, session, 2, 1), Response::Ok);
        assert_eq!(status(&server, session).n_cleaned, 2);
    }

    #[test]
    fn ping_needs_no_session_and_deadlines_unwrap_on_direct_handle() {
        let server = ShardServer::new();
        assert_eq!(server.handle(Request::Ping), Response::Ok);
        // a direct handle() call has no queue wait: the envelope is
        // transparent regardless of budget…
        assert_eq!(
            server.handle(Request::Deadline {
                budget_us: 1,
                inner: Box::new(Request::Ping),
            }),
            Response::Ok
        );
        // …and shed_expired (the serve loop's gate) sheds a pre-expired
        // zero budget but passes a live one through
        assert!(matches!(
            shed_expired(
                Request::Deadline {
                    budget_us: 0,
                    inner: Box::new(Request::Ping),
                },
                0,
            ),
            Err(Response::Expired(_))
        ));
        assert!(matches!(
            shed_expired(
                Request::Deadline {
                    budget_us: 1_000_000,
                    inner: Box::new(Request::Ping),
                },
                5,
            ),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            shed_expired(
                Request::Deadline {
                    budget_us: 10,
                    inner: Box::new(Request::Ping),
                },
                11,
            ),
            Err(Response::Expired(_))
        ));
    }

    #[test]
    fn queued_serving_sheds_expired_deadlines_over_loopback() {
        use crate::codec::read_frame_tagged;
        use crate::proto::encode_request;

        let running = spawn_server(ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut send = |id: u32, req: &Request| {
            write_frame_tagged(&mut stream, id, &encode_request(req)).unwrap();
        };
        // budget 0 is pre-expired by definition: deterministic shedding
        send(
            1,
            &Request::Deadline {
                budget_us: 0,
                inner: Box::new(Request::Ping),
            },
        );
        // a generous budget sails through to the inner request
        send(
            2,
            &Request::Deadline {
                budget_us: 60_000_000,
                inner: Box::new(Request::Ping),
            },
        );
        send(3, &Request::Shutdown);
        let (id, frame) = read_frame_tagged(&mut stream).unwrap();
        assert_eq!(id, 1);
        assert!(matches!(
            crate::proto::decode_response(&frame).unwrap(),
            Response::Expired(_)
        ));
        let (id, frame) = read_frame_tagged(&mut stream).unwrap();
        assert_eq!(id, 2);
        assert_eq!(crate::proto::decode_response(&frame).unwrap(), Response::Ok);
        drop(stream);
        running.stop();
    }

    #[test]
    fn a_chaos_configured_server_still_converges_for_a_patient_peer() {
        use crate::codec::read_frame_tagged;
        use crate::proto::encode_request;

        // every response frame is delayed (never lost): a patient client
        // sees correct, ordered answers — chaos wiring must not change
        // semantics, only timing/loss characteristics
        let plan = FaultPlan::delay_heavy(17).with_delay(Duration::from_millis(1));
        let cfg = ServerConfig {
            chaos: Some(plan),
            ..ServerConfig::default()
        };
        let running = spawn_server(cfg).unwrap();
        let mut stream = TcpStream::connect(running.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut ok = 0usize;
        for id in 1..=20u32 {
            write_frame_tagged(&mut stream, id, &encode_request(&Request::Ping)).unwrap();
            match read_frame_tagged(&mut stream) {
                Ok((got, frame)) => {
                    assert_eq!(got, id);
                    assert_eq!(crate::proto::decode_response(&frame).unwrap(), Response::Ok);
                    ok += 1;
                }
                // delay_heavy keeps a small rate of other faults; a dead
                // connection ends the exchange early
                Err(_) => break,
            }
        }
        assert!(ok > 0, "at least the first delayed responses must arrive");
        drop(stream);
        running.stop();
    }
}
