//! Deterministic, in-process fault injection for the frame transport.
//!
//! A [`FaultPlan`] is a seeded schedule of transport misbehavior:
//! dropping, delaying, corrupting, truncating or duplicating whole frames,
//! refusing dials, and killing a connection after N frames — everything a
//! flaky network or a dying peer does, without real process kills. The
//! plan is shared (cheaply cloned) between any number of connections; each
//! connection draws its own [`FaultSchedule`] whose RNG stream mixes the
//! plan seed with a connection ordinal, so the whole run is reproducible
//! from one seed while connections still misbehave independently.
//!
//! [`FaultyTransport`] wraps any `Read + Write` transport and applies the
//! schedule at **frame granularity**: the frame codec writes a frame as one
//! `write_all` followed by one `flush` ([`crate::write_frame_tagged`]), and
//! the wrapper holds what was written until that flush, so it makes exactly
//! one fault decision per frame at flush time. Reads pass through untouched
//! (the client's read buffer sits above the wrapper) — faulting each
//! peer's *writes* covers both directions when both sides are wrapped, and
//! exactly one direction when only one side is (e.g. `shard-server
//! --chaos` serving a clean client).
//!
//! Every fault is **detectable** by the peer: drops surface as read
//! timeouts (pair a plan with a read timeout!), corruption trips the frame
//! CRC, truncation and kills surface as truncated frames or broken pipes,
//! and a duplicate's second reply carries an earlier request id, which the
//! client's id pairing recognizes and skips. That detectability is
//! the contract the recovery layer builds on — a chaos run must converge
//! to *bit-identical* results, never silently diverge.
//!
//! An optional **fault budget** bounds the total number of injected faults
//! across the whole plan; once spent, every connection behaves cleanly.
//! Chaos tests use it to guarantee convergence: the tail of the run is
//! fault-free by construction, so bounded retry policies always suffice.

use crate::retry::splitmix64;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One per-frame decision drawn from a [`FaultSchedule`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward the frame untouched.
    None,
    /// Discard the frame silently (the peer sees nothing — its read times
    /// out).
    Drop,
    /// Sleep before forwarding the frame intact.
    Delay(Duration),
    /// Flip one bit at a seeded position (the peer's frame CRC catches it).
    Corrupt,
    /// Write a seeded proper prefix of the frame, then fail the connection.
    Truncate,
    /// Write the frame twice (the client's request-id pairing skips the
    /// echoed reply; a duplicated idempotent `Step` is absorbed
    /// server-side).
    Duplicate,
    /// Write a seeded prefix, then fail this and every later operation —
    /// the connection is dead.
    Kill,
}

/// Shared, seeded schedule of transport faults. Cloning shares the budget,
/// the connection counter and the arm switch; construction is via the
/// profile constructors ([`FaultPlan::mixed`], [`FaultPlan::drop_heavy`],
/// …) plus the builder-style knobs.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-frame fault rates in permille, drawn cumulatively in this order.
    drop_pm: u16,
    delay_pm: u16,
    corrupt_pm: u16,
    truncate_pm: u16,
    duplicate_pm: u16,
    kill_pm: u16,
    /// Per-dial refusal rate in permille.
    refuse_dial_pm: u16,
    /// Injected delay length for [`FaultAction::Delay`].
    delay: Duration,
    /// Deterministic kill: the 1-based outgoing frame index at which every
    /// connection dies (overrides the probabilistic rates for that frame).
    kill_at_frame: Option<u64>,
    /// Remaining fault budget; `u64::MAX` = unlimited.
    budget: Arc<AtomicU64>,
    /// Ordinal source for per-connection RNG streams.
    connections: Arc<AtomicU64>,
    /// Master switch: a paused plan forwards everything untouched (and
    /// consumes no randomness), so setup/teardown traffic can run clean.
    armed: Arc<AtomicBool>,
}

impl FaultPlan {
    fn with_rates(
        seed: u64,
        rates: [u16; 6], // drop, delay, corrupt, truncate, duplicate, kill
        refuse_dial_pm: u16,
    ) -> Self {
        FaultPlan {
            seed,
            drop_pm: rates[0],
            delay_pm: rates[1],
            corrupt_pm: rates[2],
            truncate_pm: rates[3],
            duplicate_pm: rates[4],
            kill_pm: rates[5],
            refuse_dial_pm,
            delay: Duration::from_millis(2),
            kill_at_frame: None,
            budget: Arc::new(AtomicU64::new(u64::MAX)),
            connections: Arc::new(AtomicU64::new(0)),
            armed: Arc::new(AtomicBool::new(true)),
        }
    }

    /// A balanced profile exercising every fault kind — the schedule behind
    /// `shard-server --chaos <seed>`.
    pub fn mixed(seed: u64) -> Self {
        Self::with_rates(seed, [6, 6, 5, 2, 4, 2], 40)
    }

    /// Mostly dropped frames (the timeout/reconnect path).
    pub fn drop_heavy(seed: u64) -> Self {
        Self::with_rates(seed, [35, 4, 2, 1, 2, 1], 30)
    }

    /// Mostly delayed frames (the latency-tail path; rarely fatal).
    pub fn delay_heavy(seed: u64) -> Self {
        Self::with_rates(seed, [2, 60, 2, 1, 2, 1], 20)
    }

    /// Mostly corrupted / truncated / duplicated frames (the CRC +
    /// id-pairing detection paths).
    pub fn corrupt_heavy(seed: u64) -> Self {
        Self::with_rates(seed, [2, 4, 30, 8, 8, 1], 20)
    }

    /// A ~1%-of-frames schedule for throughput benches: light enough to
    /// measure, heavy enough to exercise recovery.
    pub fn light(seed: u64) -> Self {
        Self::with_rates(seed, [3, 3, 2, 0, 2, 0], 10)
    }

    /// A purely scripted plan: every connection dies on its `n`-th outgoing
    /// frame (1-based), with no probabilistic faults at all. The chaos
    /// tests use it to kill a server's only connection at an exact point
    /// mid-run.
    pub fn kill_after_frames(n: u64) -> Self {
        let mut plan = Self::with_rates(0, [0; 6], 0);
        plan.kill_at_frame = Some(n.max(1));
        plan
    }

    /// Replace the total fault budget: at most `n` faults are injected
    /// across all connections sharing this plan, then everything runs
    /// clean. (A scripted [`FaultPlan::kill_after_frames`] kill ignores
    /// the budget — it is the test's explicit act, not background noise.)
    pub fn with_budget(self, n: u64) -> Self {
        self.budget.store(n, Ordering::SeqCst);
        self
    }

    /// Override the injected delay for [`FaultAction::Delay`].
    pub fn with_delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }

    /// Stop injecting faults (connection setup, teardown, oracle runs).
    pub fn pause(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Resume injecting faults.
    pub fn resume(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Whether this dial attempt should be refused (a synthetic
    /// `ConnectionRefused` before any socket work). Deterministic in the
    /// sequence of dial attempts made against the plan.
    pub fn should_refuse_dial(&self) -> bool {
        if !self.armed.load(Ordering::SeqCst) || self.refuse_dial_pm == 0 {
            return false;
        }
        let ordinal = self.connections.fetch_add(1, Ordering::SeqCst);
        let draw = splitmix64(self.seed ^ 0xD1A1_D1A1_D1A1_D1A1 ^ ordinal) % 1000;
        if draw < u64::from(self.refuse_dial_pm) && self.spend_budget() {
            cp_obs::counter!("rpc.fault.refused_dials").inc();
            return true;
        }
        false
    }

    /// Draw this connection's schedule (advances the connection ordinal).
    pub fn schedule(&self) -> FaultSchedule {
        let ordinal = self.connections.fetch_add(1, Ordering::SeqCst);
        FaultSchedule {
            plan: self.clone(),
            rng: splitmix64(self.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            frame: 0,
        }
    }

    /// Try to spend one unit of fault budget.
    fn spend_budget(&self) -> bool {
        self.budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                if b == u64::MAX {
                    Some(u64::MAX) // unlimited: never decremented
                } else {
                    b.checked_sub(1)
                }
            })
            .is_ok()
    }
}

/// One connection's deterministic fault stream, drawn from a shared
/// [`FaultPlan`].
#[derive(Debug)]
pub struct FaultSchedule {
    plan: FaultPlan,
    rng: u64,
    frame: u64,
}

impl FaultSchedule {
    fn next_u64(&mut self) -> u64 {
        self.rng = splitmix64(self.rng);
        self.rng
    }

    /// The fault decision for the next outgoing frame.
    pub fn next_action(&mut self) -> FaultAction {
        if !self.plan.armed.load(Ordering::SeqCst) {
            return FaultAction::None;
        }
        self.frame += 1;
        if let Some(at) = self.plan.kill_at_frame {
            return if self.frame == at {
                cp_obs::counter!("rpc.fault.kills").inc();
                FaultAction::Kill
            } else {
                FaultAction::None
            };
        }
        let draw = self.next_u64() % 1000;
        let p = &self.plan;
        let thresholds = [
            (p.drop_pm, FaultAction::Drop),
            (p.delay_pm, FaultAction::Delay(p.delay)),
            (p.corrupt_pm, FaultAction::Corrupt),
            (p.truncate_pm, FaultAction::Truncate),
            (p.duplicate_pm, FaultAction::Duplicate),
            (p.kill_pm, FaultAction::Kill),
        ];
        let mut cumulative = 0u64;
        for (pm, action) in thresholds {
            cumulative += u64::from(pm);
            if draw < cumulative {
                if !self.plan.spend_budget() {
                    return FaultAction::None;
                }
                let name = match action {
                    FaultAction::Drop => "rpc.fault.drops",
                    FaultAction::Delay(_) => "rpc.fault.delays",
                    FaultAction::Corrupt => "rpc.fault.corruptions",
                    FaultAction::Truncate => "rpc.fault.truncations",
                    FaultAction::Duplicate => "rpc.fault.duplicates",
                    FaultAction::Kill => "rpc.fault.kills",
                    FaultAction::None => unreachable!(),
                };
                cp_obs::counter(name).inc();
                return action;
            }
        }
        FaultAction::None
    }

    /// A seeded draw in `0..n` for positioning corruption/truncation.
    fn position(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }
}

/// A `Read + Write` wrapper applying a [`FaultSchedule`] to outgoing
/// frames. Writes are held until `flush` — the frame codec's one flush per
/// frame, after its one `write_all` — so each frame gets exactly one fault
/// decision. Reads pass through untouched.
#[derive(Debug)]
pub struct FaultyTransport<T> {
    inner: T,
    schedule: FaultSchedule,
    wbuf: Vec<u8>,
    killed: bool,
}

impl<T> FaultyTransport<T> {
    /// Wrap a transport with a connection's fault schedule.
    pub fn new(inner: T, schedule: FaultSchedule) -> Self {
        FaultyTransport {
            inner,
            schedule,
            wbuf: Vec::new(),
            killed: false,
        }
    }

    /// The wrapped transport (e.g. to reach `TcpStream::shutdown`).
    pub fn get_ref(&self) -> &T {
        &self.inner
    }

    fn dead() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "connection killed by fault injection",
        )
    }
}

impl<T: Read> Read for FaultyTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.killed {
            return Err(Self::dead());
        }
        self.inner.read(buf)
    }
}

impl<T: Write> Write for FaultyTransport<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.killed {
            return Err(Self::dead());
        }
        self.wbuf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.killed {
            return Err(Self::dead());
        }
        if self.wbuf.is_empty() {
            return self.inner.flush();
        }
        let frame = std::mem::take(&mut self.wbuf);
        match self.schedule.next_action() {
            FaultAction::None => {
                self.inner.write_all(&frame)?;
            }
            FaultAction::Drop => {} // the peer's read timeout finds out
            FaultAction::Delay(d) => {
                std::thread::sleep(d);
                self.inner.write_all(&frame)?;
            }
            FaultAction::Corrupt => {
                let mut damaged = frame;
                let at = self.schedule.position(damaged.len());
                let bit = (self.schedule.next_u64() % 8) as u8;
                damaged[at] ^= 1 << bit;
                self.inner.write_all(&damaged)?;
            }
            FaultAction::Truncate => {
                // a proper prefix: at least 0, at most len-1 bytes
                let cut = self.schedule.position(frame.len());
                self.inner.write_all(&frame[..cut])?;
                let _ = self.inner.flush();
                self.killed = true;
                return Err(Self::dead());
            }
            FaultAction::Duplicate => {
                self.inner.write_all(&frame)?;
                self.inner.write_all(&frame)?;
            }
            FaultAction::Kill => {
                let cut = self.schedule.position(frame.len());
                self.inner.write_all(&frame[..cut])?;
                let _ = self.inner.flush();
                self.killed = true;
                return Err(Self::dead());
            }
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{read_frame_tagged, write_frame_tagged};
    use crate::RpcError;
    use std::io::Cursor;

    /// A plan that faults every frame with the given single action's rate
    /// at 1000 permille.
    fn always(action: FaultAction) -> FaultPlan {
        let rates = match action {
            FaultAction::Drop => [1000, 0, 0, 0, 0, 0],
            FaultAction::Delay(_) => [0, 1000, 0, 0, 0, 0],
            FaultAction::Corrupt => [0, 0, 1000, 0, 0, 0],
            FaultAction::Truncate => [0, 0, 0, 1000, 0, 0],
            FaultAction::Duplicate => [0, 0, 0, 0, 1000, 0],
            FaultAction::Kill => [0, 0, 0, 0, 0, 1000],
            FaultAction::None => [0; 6],
        };
        FaultPlan::with_rates(9, rates, 0)
    }

    #[test]
    fn schedules_are_deterministic_per_seed_and_connection() {
        let draw = |plan: &FaultPlan| -> Vec<FaultAction> {
            let mut s = plan.schedule();
            (0..64).map(|_| s.next_action()).collect()
        };
        let a = FaultPlan::mixed(7);
        let b = FaultPlan::mixed(7);
        assert_eq!(draw(&a), draw(&b), "same seed, same ordinal, same stream");
        // the same plan's next connection draws a different stream
        assert_ne!(draw(&a), draw(&a));
        // a different seed decorrelates
        assert_ne!(draw(&FaultPlan::mixed(7)), draw(&FaultPlan::mixed(8)));
    }

    #[test]
    fn a_paused_plan_is_transparent_and_preserves_the_stream() {
        let plan = always(FaultAction::Drop);
        let mut sched = plan.schedule();
        plan.pause();
        assert_eq!(sched.next_action(), FaultAction::None);
        plan.resume();
        assert_eq!(sched.next_action(), FaultAction::Drop);
    }

    #[test]
    fn budget_exhaustion_turns_the_transport_clean() {
        let plan = always(FaultAction::Drop).with_budget(3);
        let mut sched = plan.schedule();
        let injected = (0..10)
            .filter(|_| sched.next_action() == FaultAction::Drop)
            .count();
        assert_eq!(injected, 3, "exactly the budget is spent");
    }

    #[test]
    fn dropped_frames_never_reach_the_peer() {
        let mut t = FaultyTransport::new(Vec::new(), always(FaultAction::Drop).schedule());
        write_frame_tagged(&mut t, 1, b"gone").unwrap();
        assert!(t.get_ref().is_empty());
    }

    #[test]
    fn corrupted_frames_fail_the_crc_on_read() {
        let mut t = FaultyTransport::new(Vec::new(), always(FaultAction::Corrupt).schedule());
        write_frame_tagged(&mut t, 3, b"some payload to damage").unwrap();
        let mut r = Cursor::new(t.get_ref().clone());
        assert!(
            read_frame_tagged(&mut r).is_err(),
            "a corrupted frame must not read back cleanly"
        );
    }

    #[test]
    fn duplicated_frames_read_back_twice() {
        let mut t = FaultyTransport::new(Vec::new(), always(FaultAction::Duplicate).schedule());
        write_frame_tagged(&mut t, 5, b"echo").unwrap();
        let mut r = Cursor::new(t.get_ref().clone());
        assert_eq!(read_frame_tagged(&mut r).unwrap(), (5, b"echo".to_vec()));
        assert_eq!(read_frame_tagged(&mut r).unwrap(), (5, b"echo".to_vec()));
    }

    #[test]
    fn truncation_and_kill_poison_the_transport() {
        for action in [FaultAction::Truncate, FaultAction::Kill] {
            let mut t = FaultyTransport::new(Vec::new(), always(action).schedule());
            let err = write_frame_tagged(&mut t, 1, b"never whole").unwrap_err();
            assert!(matches!(err, RpcError::Io(_)), "{action:?}: {err:?}");
            assert!(
                t.get_ref().len() < 4 + 4 + 11 + 4,
                "{action:?} must not ship the whole frame"
            );
            // a truncated prefix must not read back as a clean frame
            let mut r = Cursor::new(t.get_ref().clone());
            assert!(read_frame_tagged(&mut r).is_err() || t.get_ref().is_empty());
            // the connection stays dead
            assert!(write_frame_tagged(&mut t, 2, b"more").is_err());
            assert!(t.flush().is_err());
        }
    }

    #[test]
    fn kill_after_frames_is_exact() {
        let plan = FaultPlan::kill_after_frames(3);
        let mut t = FaultyTransport::new(Vec::new(), plan.schedule());
        write_frame_tagged(&mut t, 1, b"one").unwrap();
        write_frame_tagged(&mut t, 2, b"two").unwrap();
        assert!(write_frame_tagged(&mut t, 3, b"three").is_err());
        let mut r = Cursor::new(t.get_ref().clone());
        assert_eq!(read_frame_tagged(&mut r).unwrap().0, 1);
        assert_eq!(read_frame_tagged(&mut r).unwrap().0, 2);
        assert!(read_frame_tagged(&mut r).is_err() || r.position() as usize == t.get_ref().len());
    }

    #[test]
    fn refused_dials_are_deterministic_and_budgeted() {
        let a = FaultPlan::with_rates(11, [0; 6], 500);
        let b = FaultPlan::with_rates(11, [0; 6], 500);
        let draws_a: Vec<bool> = (0..32).map(|_| a.should_refuse_dial()).collect();
        let draws_b: Vec<bool> = (0..32).map(|_| b.should_refuse_dial()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&r| r), "a 50% rate should refuse some");
        assert!(draws_a.iter().any(|&r| !r), "…and admit some");
        let c = FaultPlan::with_rates(11, [0; 6], 1000).with_budget(2);
        let refused = (0..16).filter(|_| c.should_refuse_dial()).count();
        assert_eq!(refused, 2, "refusals spend the shared budget");
    }

    #[test]
    fn delay_forwards_the_frame_intact() {
        let plan = always(FaultAction::Delay(Duration::ZERO)).with_delay(Duration::ZERO);
        let mut t = FaultyTransport::new(Vec::new(), plan.schedule());
        write_frame_tagged(&mut t, 9, b"late but whole").unwrap();
        let mut r = Cursor::new(t.get_ref().clone());
        assert_eq!(
            read_frame_tagged(&mut r).unwrap(),
            (9, b"late but whole".to_vec())
        );
    }
}
