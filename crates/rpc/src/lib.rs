//! # cp-rpc — the multi-process serving layer
//!
//! `cp-shard` made a single CP query partition-parallel and left the seams
//! message-shaped: a worker owns one [`cp_core::DatasetShard`] plus, per
//! session, the [`cp_clean::CleaningState`] of its partition (the pins and
//! cleaned rows — state that never needs to leave the worker), and the
//! coordinator's exchange per scan is one recorded
//! [`cp_shard::ShardStream`] of boundary keys and compact polynomial
//! factors. Certainty is decided only by the coordinator, the one party
//! that merges every shard. This crate turns those seams into
//! an actual wire protocol over `std::net::TcpStream` — no external
//! dependencies, a hand-rolled length-prefixed frame codec — and is the one
//! sharded cleaning engine: in one process, the shard servers run on
//! loopback ports ([`server::spawn_server`]).
//!
//! ## Layers
//!
//! * [`wire`] / [`codec`] — bounds-checked primitive encodings, the frame
//!   layer (`u32` big-endian length prefix, bounded by
//!   [`codec::MAX_FRAME_LEN`], then a `u32` request id the server echoes on
//!   the response so clients can pipeline, then a CRC32 trailer; one
//!   `write` per frame, buffered reads), and serializers for
//!   [`cp_core::Pins`], extreme summaries and whole batched
//!   [`cp_shard::ShardStream`]s, one layout per message. Wire
//!   semirings: exact
//!   `u128`, probability-space `f64`, and the boolean
//!   [`cp_numeric::Possibility`] ([`codec::WireSemiring`]).
//! * [`proto`] — the message schema: `Open`, `Scan`, `SweptScan`,
//!   `ExtremeSummary`, `Step`, `Status`, `Stats`, `Close`, `Ping`,
//!   `Shutdown` and their responses. `Open` mints a [`proto::SessionId`] that every
//!   session-scoped request carries, so independent cleaning sessions
//!   multiplex over one server process. Binary-label status checks ship
//!   `ExtremeSummary` messages — `O(|Y|·K)` rank-ordered entries per shard,
//!   merged by rank at the coordinator — instead of whole boundary-event
//!   streams; scan streams travel delta-compressed (varint deltas plus a
//!   per-stream scalar dictionary, [`codec::encode_stream`]). A greedy
//!   selection's `SweptScan` returns one stream for every pin of a row
//!   (stream version 3, [`codec::encode_swept`]): the owner's scan with the
//!   row's leaf held at the identity, plus the row's candidate
//!   similarities and its pinned world total.
//! * [`server`] — [`server::ShardServer`]: a **multi-tenant** session
//!   registry over shared shard data. Index caches are built once per
//!   distinct `Open` payload and shared by every session over that shard;
//!   per-session state — the session's pins and cleaned rows, nothing
//!   more — sits behind a readers-writer lock so one session's
//!   `Step` never blocks another's reads. [`server::serve_with`] runs the
//!   threaded accept loop with admission control ([`server::ServerConfig`]:
//!   connection cap, session cap, bounded per-connection request queues;
//!   over-cap work is answered with the retryable `Busy`). Each scan
//!   request returns the shard's **whole** locally-sorted boundary-event
//!   stream (factor deltas included) in a single message — one round trip
//!   per *scan*, not one per boundary event. Runs behind the `shard-server`
//!   binary; [`server::spawn_server`] runs the same loop on a background
//!   thread for in-process deployments, tests and benchmarks.
//! * [`coordinator`] — [`coordinator::RpcCoordinator`]: partitions a
//!   cleaning problem over N servers, replays their decoded streams through
//!   [`cp_shard::merged_scan_sources`] — and, for a greedy step's missed
//!   rows, one swept stream per (point, row) through
//!   [`cp_shard::merged_sweep_sources`], which answers all of the row's
//!   pins from one merged scan — and exposes the `step()` /
//!   `status()` / `run_to_convergence()` / `run_order()` engine surface.
//!   Status vectors and cleaning orders are *identical* to
//!   [`cp_clean::CleaningSession`]'s, and Q2 counts to
//!   [`cp_shard::q2_from_streams_with_algorithm`]'s over the same shards'
//!   captured streams, bit for bit — property-tested over real loopback
//!   sockets.
//! * [`spill`] — the out-of-core seam over `cp-store`: a cached base
//!   stream past [`coordinator::ClientConfig::spill_threshold`] (env
//!   `CP_SPILL_THRESHOLD`) is written to an immutable on-disk run as the
//!   wire bytes it arrived in, and [`spill::CachedStream::load`] reads,
//!   CRC-checks and decodes it back into an ordinary stream when a scan
//!   needs it, so the merge loop is unchanged and the answers stay
//!   bit-identical. On the server side, `--data-dir` adds per-session
//!   write-ahead pin logs (fsync-before-ack) with replay on restart — a
//!   crashed server resumes every in-flight session.
//! * [`fault`] / [`retry`] / [`journal`] — the failure layer.
//!   [`fault::FaultPlan`] is deterministic, seeded fault injection at the
//!   frame layer (drop/delay/corrupt/truncate/duplicate frames, refused
//!   dials, scripted kills), selectable in tests and behind `shard-server
//!   --chaos <seed>`. [`retry::RetryPolicy`] unifies connect, `Busy` and
//!   request retries under capped exponential backoff with seeded jitter;
//!   [`retry::CircuitBreaker`] fails fast per shard after
//!   [`coordinator::BREAKER_THRESHOLD`] consecutive failures, half-open-probing with the
//!   lightweight `Ping`. [`journal::ShardJournal`] records each shard's
//!   canonical `Open` plus the ordered applied-pin log, so the coordinator
//!   can **fail over** to a replacement server (same address or
//!   [`coordinator::ClientConfig::fallback_addrs`]) and replay the session
//!   as idempotent protocol traffic — resuming a mid-greedy run with
//!   bit-identical picks.
//!
//! ## Robustness
//!
//! Every decoder treats its input as hostile: truncations, unknown tags,
//! non-boolean flag bytes, out-of-range labels, oversized length prefixes
//! and trailing bytes are all typed [`RpcError`]s, never panics or
//! unbounded allocations (fuzz-style property tests feed garbage and
//! truncated frames through every entry point). Every frame carries a
//! CRC32 trailer, so a flipped bit anywhere in transit is a typed
//! decode failure, never a silently wrong value. A shard server survives
//! malformed requests, rejecting them per-request without dropping the
//! connection; a coordinator survives dropped, corrupted and killed
//! connections by reconnecting or failing over and replaying its journal —
//! chaos property tests drive full cleaning runs through seeded fault
//! schedules and assert results bit-identical to fault-free runs.
//!
//! ## Observability
//!
//! Every layer records into the process-wide `cp-obs` registry: the server
//! keeps per-request-type latency histograms, byte counters, per-session
//! step/scan counts, queue-depth gauges and `Busy`/malformed/first-frame
//! drop counters; [`codec::encode_stream`] counts the stream bytes it
//! produces (`rpc.codec.stream_bytes_delta`); the client tracks
//! per-peer RTT histograms, reconnect/retry/timeout counters and
//! pipeline-window occupancy. The `Stats` request (session-optional) ships
//! an encoded `cp_obs::Snapshot` to any client via
//! [`coordinator::ShardClient::stats`], and the `shard-server` binary dumps
//! the registry periodically under `--stats-interval`. Silent drops are
//! gone: accept-loop and connection faults go through `cp-obs`'s
//! rate-limited leveled logger (`CP_LOG=warn|info|debug`).

pub mod codec;
pub mod coordinator;
pub mod error;
pub mod fault;
pub mod journal;
pub mod proto;
pub mod retry;
pub mod server;
pub mod spill;
pub mod wire;

pub use codec::{
    decode_stream, decode_summary, decode_swept, encode_stream, encode_summary, encode_swept,
    read_frame_opt_tagged, read_frame_tagged, write_frame_tagged, WireSemiring, FRAME_OVERHEAD,
};
pub use coordinator::{ClientConfig, RpcCoordinator, ShardClient};
pub use error::{RpcError, RpcResult};
pub use fault::{FaultAction, FaultPlan, FaultSchedule, FaultyTransport};
pub use journal::ShardJournal;
pub use proto::{OpenShard, Request, Response, SessionId, ShardStatus};
pub use retry::{Admission, CircuitBreaker, RetryPolicy};
pub use server::{
    serve_with, spawn_server, spawn_server_on, RunningServer, ServerConfig, ShardServer,
};
pub use spill::CachedStream;
