//! Offline stand-in for the `rayon` crate.
//!
//! Implements the `par_iter().map(..).collect()` shape the workspace's batch
//! engine and cleaning sessions use, with genuine data parallelism on one
//! process-wide pool of parked workers (`pool.rs`): it starts on the first
//! parallel call with [`current_num_threads`]` − 1` workers, and the calling
//! thread works too. Items are claimed one at a time from a shared index, so
//! skewed per-item costs — e.g. CP queries whose cost varies with the
//! candidate count near the decision boundary — balance dynamically, like
//! rayon's work stealing. Item order is preserved in the collected output.
//!
//! Scope is deliberately minimal: parallel iteration over slices, `&Vec`s
//! and `Range<usize>`, with `map` / `for_each` / `collect` / `sum` /
//! `reduce` as inherent methods (no trait import needed beyond the entry
//! points in [`prelude`]). One addition the real crate lacks:
//! [`ParIter::with_max_threads`] caps how many threads work one call.

mod pool;

pub use pool::threads_spawned;

/// Number of threads that work a parallel call, the caller counted: the
/// pool's size once it has started, and until then the size it will start
/// with — `RAYON_NUM_THREADS` if set to a positive integer (the same knob
/// the real crate honours), else `CP_THREADS` (this workspace's
/// experiment-wide thread cap), else the machine's available parallelism.
/// The environment is read until the pool starts, never after.
pub fn current_num_threads() -> usize {
    pool::started_size().unwrap_or_else(configured_threads)
}

/// The size the environment asks for (see [`current_num_threads`]).
fn configured_threads() -> usize {
    for var in ["RAYON_NUM_THREADS", "CP_THREADS"] {
        if let Some(n) = std::env::var(var)
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A materialized parallel iterator over items of type `I`: borrowed
/// elements or indices, which every thread of a call reads in place.
pub struct ParIter<I> {
    items: Vec<I>,
    max_threads: usize,
}

/// The result of [`ParIter::map`]: a lazy parallel map pipeline.
pub struct ParMap<I, F> {
    items: Vec<I>,
    max_threads: usize,
    f: F,
}

/// Collecting targets for parallel iterators.
pub trait FromParallelIterator<T> {
    fn from_results(results: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_results(results: Vec<T>) -> Self {
        results
    }
}

impl<I: Copy + Send + Sync> ParIter<I> {
    fn new(items: Vec<I>) -> Self {
        ParIter {
            items,
            max_threads: usize::MAX,
        }
    }

    /// Let at most `n` threads, the caller counted, work this call; `1`
    /// runs every item on the calling thread.
    pub fn with_max_threads(self, n: usize) -> Self {
        ParIter {
            max_threads: n,
            ..self
        }
    }

    /// Lazily apply `f` to every item in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParMap {
            items: self.items,
            max_threads: self.max_threads,
            f,
        }
    }

    /// Evaluate and collect in input order (only `Vec` targets supported).
    pub fn collect<C: FromParallelIterator<I>>(self) -> C {
        C::from_results(self.items)
    }

    /// Apply `f` to every item in parallel, discarding results.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        self.map(f).run();
    }
}

impl<I, R, F> ParMap<I, F>
where
    I: Copy + Send + Sync,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    /// Let at most `n` threads, the caller counted, work this call; `1`
    /// runs every item on the calling thread.
    pub fn with_max_threads(self, n: usize) -> Self {
        ParMap {
            max_threads: n,
            ..self
        }
    }

    /// Evaluate the pipeline on the pool, preserving input order.
    fn run(self) -> Vec<R> {
        let (items, f) = (&self.items, &self.f);
        pool::map_indexed(items.len(), self.max_threads, |i| f(items[i]))
    }

    /// Evaluate and collect in input order (only `Vec` targets supported).
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_results(self.run())
    }

    /// Chain another map; both functions run in the same parallel pass.
    pub fn map<R2, F2>(self, f2: F2) -> ParMap<I, impl Fn(I) -> R2 + Sync>
    where
        R2: Send,
        F2: Fn(R) -> R2 + Sync,
    {
        let f1 = self.f;
        ParMap {
            items: self.items,
            max_threads: self.max_threads,
            f: move |item| f2(f1(item)),
        }
    }

    /// Evaluate, applying `f` for its effects only.
    pub fn for_each<F2>(self, f2: F2)
    where
        F2: Fn(R) + Sync,
    {
        self.map(f2).run();
    }

    /// Evaluate and sum the results.
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<R>,
    {
        self.run().into_iter().sum()
    }

    /// Evaluate and fold the results with `op`, starting from `identity()`.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> R
    where
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        self.run().into_iter().fold(identity(), op)
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    type Item: Send;
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter::new(self.collect())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

/// `.par_iter()` sugar over borrowed collections.
pub trait IntoParallelRefIterator<'a> {
    type Item: Send;
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    fn par_iter(&'a self) -> ParIter<&'a T> {
        ParIter::new(self.iter().collect())
    }
}

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParIter, ParMap,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::{Arc, Barrier};
    use std::thread;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_into_par_iter() {
        let out: Vec<usize> = (0..257).into_par_iter().map(|i| i * i).collect();
        assert_eq!(out, (0..257).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn chained_maps_compose() {
        let out: Vec<String> = (0..10)
            .into_par_iter()
            .map(|i| i + 1)
            .map(|i| format!("{i}"))
            .collect();
        assert_eq!(out[9], "10");
    }

    #[test]
    fn sum_and_reduce() {
        let s: usize = (0..100).into_par_iter().map(|i| i).sum();
        assert_eq!(s, 4950);
        let m = (0..100).into_par_iter().map(|i| i).reduce(|| 0, usize::max);
        assert_eq!(m, 99);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = Vec::<usize>::new().par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        if super::current_num_threads() < 2 {
            return; // nothing to assert on a single-core machine
        }
        let ids: Vec<std::thread::ThreadId> = (0..64)
            .into_par_iter()
            .map(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                std::thread::current().id()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on more than one thread");
    }

    #[test]
    fn capped_maps_match_sequential() {
        let seq: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [0, 1, 2, 4, 7] {
            let out: Vec<usize> = (0..100)
                .into_par_iter()
                .with_max_threads(threads)
                .map(|i| i * i)
                .collect();
            assert_eq!(out, seq, "threads={threads}");
        }
        let empty: Vec<usize> = (0..0)
            .into_par_iter()
            .with_max_threads(4)
            .map(|i| i)
            .collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn one_thread_cap_runs_on_the_caller() {
        let me = thread::current().id();
        let ids: Vec<thread::ThreadId> = (0..64)
            .into_par_iter()
            .with_max_threads(1)
            .map(|_| thread::current().id())
            .collect();
        assert!(ids.iter().all(|&id| id == me));
        let ids: Vec<thread::ThreadId> = [0u8; 16]
            .par_iter()
            .map(|_| thread::current().id())
            .with_max_threads(1)
            .collect();
        assert!(ids.iter().all(|&id| id == me));
    }

    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            (0..32)
                .into_par_iter()
                .map(|i| {
                    if i == 7 {
                        panic!("item {i} failed");
                    }
                    i
                })
                .collect::<Vec<usize>>()
        });
        assert_eq!(panic_message(caught.unwrap_err()), "item 7 failed");
        let out: Vec<usize> = (0..32).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_on_a_worker_reaches_the_caller() {
        if super::current_num_threads() < 2 {
            return; // no worker to panic on
        }
        let caller = thread::current().id();
        // items 0 and 1 meet at the barrier, so they run on two threads at
        // once and at least one of them on a worker
        let barrier = Barrier::new(2);
        let caught = std::panic::catch_unwind(|| {
            (0..2)
                .into_par_iter()
                .with_max_threads(2)
                .map(|i| {
                    barrier.wait();
                    if thread::current().id() != caller {
                        panic!("worker item {i}");
                    }
                    i
                })
                .collect::<Vec<usize>>()
        });
        assert!(panic_message(caught.unwrap_err()).starts_with("worker item"));
        let out: Vec<usize> = (0..64).into_par_iter().map(|i| 2 * i).collect();
        assert_eq!(out, (0..64).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_complete() {
        let out: Vec<usize> = (0..16)
            .into_par_iter()
            .map(|i| (0..50).into_par_iter().map(|j| i * j).sum::<usize>())
            .collect();
        assert_eq!(out, (0..16).map(|i| i * 1225).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let start = Arc::new(Barrier::new(4));
        let callers: Vec<_> = (1..=4usize)
            .map(|c| {
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    (0..200).all(|round| {
                        let out: Vec<usize> =
                            (0..97).into_par_iter().map(|i| c * i + round).collect();
                        out == (0..97).map(|i| c * i + round).collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        for caller in callers {
            assert!(caller.join().expect("caller thread"));
        }
    }

    #[test]
    fn workers_start_once_and_never_per_call() {
        let warm: Vec<usize> = (0..64).into_par_iter().map(|i| i).collect();
        assert_eq!(warm.len(), 64);
        let size = super::current_num_threads();
        assert_eq!(super::threads_spawned(), size - 1);
        for round in 0..1000 {
            let out: usize = (0..8).into_par_iter().map(|i| i + round).sum();
            assert_eq!(out, 28 + 8 * round);
        }
        assert_eq!(super::threads_spawned(), size - 1);
        assert_eq!(super::current_num_threads(), size);
    }
}
