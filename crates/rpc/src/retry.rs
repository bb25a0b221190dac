//! The unified retry policy: capped exponential backoff with deterministic
//! seeded jitter, and the per-shard circuit breaker.
//!
//! `RetryPolicy::run` is the one retry loop: connection establishment,
//! the `Open`-on-`Busy` loop and the coordinator's request-level recovery
//! each supply only an attempt body that classifies its failure as
//! retryable or final. Each client's jitter stream is seeded
//! separately, so when a pool server restarts under a whole fleet their
//! redial schedules decorrelate instead of arriving as a thundering herd,
//! while staying fully deterministic for tests.
//!
//! The [`CircuitBreaker`] sits above the policy: after `threshold`
//! *consecutive* transport failures against one shard it opens and fails
//! fast (no socket work at all) until `cooldown` has passed, then admits a
//! single half-open probe — the coordinator sends the lightweight
//! [`crate::Request::Ping`] before committing real work. A success closes
//! the breaker; a failed probe re-opens it.

use std::time::{Duration, Instant};

/// SplitMix64 — the tiny, high-quality mixing function used for jitter.
/// Deterministic and dependency-free; identical across platforms.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Capped exponential backoff with deterministic seeded jitter. Shared by
/// connect, `Busy`/`Expired` retries, and failover.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total tries (first attempt included); `attempts = 1` means no retry.
    pub attempts: u32,
    /// Backoff before the first retry (doubled per further retry).
    pub base: Duration,
    /// Upper bound on any single backoff pause (pre-jitter).
    pub cap: Duration,
    /// Jitter seed; two policies with different seeds decorrelate their
    /// backoff schedules (same seed ⇒ identical schedule — determinism for
    /// tests and chaos runs).
    pub seed: u64,
}

impl RetryPolicy {
    /// The pause before retry number `retry` (1-based): `min(cap, base·2^(retry-1))`
    /// scaled by a deterministic jitter factor in `[0.5, 1.0]` ("equal
    /// jitter" — never less than half the nominal pause, never more than
    /// it, so tests can still assert a lower bound on elapsed time).
    pub fn backoff(&self, retry: u32) -> Duration {
        let doublings = retry.saturating_sub(1).min(32);
        let nominal = self
            .base
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.cap.max(self.base));
        let unit = splitmix64(self.seed ^ u64::from(retry)) as f64 / u64::MAX as f64;
        nominal.mul_f64(0.5 + 0.5 * unit)
    }

    /// Run `attempt` until it finishes or the attempt budget (`attempts`,
    /// but at least `min_attempts`) is spent; the last failure is returned. `on_retry` sees each
    /// failure that is about to be retried, before its pause.
    pub(crate) fn run<T, E>(
        &self,
        min_attempts: u32,
        mut attempt: impl FnMut() -> Attempt<T, E>,
        mut on_retry: impl FnMut(&E),
    ) -> Result<T, E> {
        let attempts = self.attempts.max(min_attempts);
        let mut retry = 0;
        loop {
            let failure = match attempt() {
                Attempt::Done(result) => return result,
                Attempt::Retry(e) => e,
            };
            retry += 1;
            if retry >= attempts {
                return Err(failure);
            }
            on_retry(&failure);
            let pause = self.backoff(retry);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}

/// What one attempt under [`RetryPolicy::run`] came to.
#[derive(Debug)]
pub(crate) enum Attempt<T, E> {
    /// A success, or a failure another attempt cannot cure: stop here.
    Done(Result<T, E>),
    /// A failure worth another attempt.
    Retry(E),
}

/// Breaker states, in the classic three-state design.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: everything admitted.
    Closed,
    /// Tripped: admit nothing until the cooldown passes.
    Open,
    /// Cooldown passed: admit probes until one succeeds or fails.
    HalfOpen,
}

/// What the breaker says about an admission request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Healthy — proceed normally.
    Allow,
    /// Half-open — proceed, but probe liveness cheaply (`Ping`) before
    /// committing real work.
    Probe,
    /// Open — fail fast without touching the socket.
    FastFail,
}

/// Per-shard circuit breaker: `threshold` *consecutive* transport failures
/// open it; after `cooldown` it half-opens for a probe.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    consecutive: u32,
    state: BreakerState,
    opened_at: Option<Instant>,
}

impl CircuitBreaker {
    /// A closed breaker with the given trip threshold and cooldown.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        CircuitBreaker {
            threshold,
            cooldown,
            consecutive: 0,
            state: BreakerState::Closed,
            opened_at: None,
        }
    }

    /// Ask to perform one operation against the guarded shard.
    pub fn admit(&mut self) -> Admission {
        match self.state {
            BreakerState::Closed => Admission::Allow,
            BreakerState::HalfOpen => Admission::Probe,
            BreakerState::Open => {
                let cooled = self
                    .opened_at
                    .is_some_and(|at| at.elapsed() >= self.cooldown);
                if cooled {
                    self.state = BreakerState::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::FastFail
                }
            }
        }
    }

    /// Record a successful operation (closes the breaker).
    pub fn on_success(&mut self) {
        self.consecutive = 0;
        if self.state != BreakerState::Closed {
            self.state = BreakerState::Closed;
            self.opened_at = None;
            cp_obs::gauge!("rpc.client.breaker_open").add(-1.0);
        }
    }

    /// Record a failed transport operation; trips the breaker at the
    /// threshold (and re-trips a failed half-open probe immediately).
    pub fn on_failure(&mut self) {
        self.consecutive = self.consecutive.saturating_add(1);
        let trip = self.consecutive >= self.threshold || self.state == BreakerState::HalfOpen;
        if trip && self.state != BreakerState::Open {
            if self.state == BreakerState::Closed {
                cp_obs::gauge!("rpc.client.breaker_open").add(1.0);
            }
            cp_obs::counter!("rpc.client.breaker_opens").inc();
            self.state = BreakerState::Open;
        }
        if self.state == BreakerState::Open {
            self.opened_at = Some(Instant::now());
        }
    }

    /// Whether the breaker is currently failing fast (open, cooldown not
    /// yet passed) — without mutating state.
    pub fn is_open(&self) -> bool {
        self.state == BreakerState::Open
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed,
        }
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let p = policy(42);
        for retry in 1..=8u32 {
            let nominal = Duration::from_millis(10 * (1u64 << (retry - 1))).min(p.cap);
            let b = p.backoff(retry);
            assert!(
                b >= nominal / 2 && b <= nominal,
                "retry {retry}: {b:?} outside [{:?}, {nominal:?}]",
                nominal / 2
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        let (a, b) = (policy(1), policy(1));
        assert!((1..=6).all(|r| a.backoff(r) == b.backoff(r)));
        let c = policy(2);
        assert!(
            (1..=6).any(|r| a.backoff(r) != c.backoff(r)),
            "different seeds should produce different jitter somewhere"
        );
    }

    #[test]
    fn huge_retry_counts_do_not_overflow() {
        let p = policy(7);
        assert!(p.backoff(u32::MAX) <= p.cap);
        let zero_cap = RetryPolicy {
            cap: Duration::ZERO,
            ..policy(7)
        };
        // a cap below base falls back to base, not zero
        assert!(zero_cap.backoff(3) >= zero_cap.base / 2);
    }

    #[test]
    fn run_retries_within_the_budget_and_stops_on_a_final_outcome() {
        let p = RetryPolicy {
            base: Duration::ZERO,
            ..policy(3)
        };
        let (mut calls, mut retried) = (0u32, 0u32);
        let exhausted: Result<(), u32> = p.run(
            1,
            || {
                calls += 1;
                Attempt::Retry(calls)
            },
            |_| retried += 1,
        );
        assert_eq!(exhausted, Err(5), "the last failure after 5 attempts");
        assert_eq!((calls, retried), (5, 4));

        // the floor lifts a one-attempt policy to two attempts
        let once = RetryPolicy {
            attempts: 1,
            ..p.clone()
        };
        calls = 0;
        let floored: Result<(), u32> = once.run(
            2,
            || {
                calls += 1;
                Attempt::Retry(calls)
            },
            |_| {},
        );
        assert_eq!((floored, calls), (Err(2), 2));

        // a final outcome stops at once, success or failure
        calls = 0;
        let done = p.run(
            1,
            || {
                calls += 1;
                if calls == 2 {
                    Attempt::Done(Ok(7))
                } else {
                    Attempt::Retry(0)
                }
            },
            |_| {},
        );
        assert_eq!((done, calls), (Ok(7), 2));
        let fatal: Result<(), u32> = p.run(1, || Attempt::Done(Err(9)), |_| panic!("no retry"));
        assert_eq!(fatal, Err(9));
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, Duration::from_secs(3600));
        assert_eq!(b.admit(), Admission::Allow);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.admit(), Admission::Allow, "below threshold stays closed");
        // a success resets the consecutive count
        b.on_success();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.admit(), Admission::Allow);
        b.on_failure();
        assert!(b.is_open());
        assert_eq!(b.admit(), Admission::FastFail);
    }

    #[test]
    fn breaker_half_opens_after_cooldown_then_closes_on_probe_success() {
        let mut b = CircuitBreaker::new(1, Duration::ZERO);
        b.on_failure();
        assert!(b.is_open());
        // zero cooldown: the next admit is already a half-open probe
        assert_eq!(b.admit(), Admission::Probe);
        assert_eq!(b.admit(), Admission::Probe, "half-open persists");
        b.on_success();
        assert_eq!(b.admit(), Admission::Allow);
        // and a failed probe re-opens immediately
        b.on_failure();
        assert_eq!(b.admit(), Admission::Probe);
        b.on_failure();
        assert!(b.is_open());
    }
}
