//! The process-wide worker pool behind every parallel iterator.
//!
//! The pool starts on the first parallel call, with
//! [`crate::current_num_threads`]` − 1` parked workers; its size is fixed
//! from then on. A call publishes a [`Job`] — its participant loop, claimed
//! from an atomic next-item index — wakes up to `cap − 1` workers, and
//! drains the loop itself. Once every item is claimed, the caller waits
//! only for the workers inside its job, which are finishing items they have
//! already claimed: it never waits on an unclaimed item, nor on another
//! caller's job. Concurrent callers share the workers first come, first
//! served, and a busy pool only means fewer helpers, never an inline
//! fallback. A call made from a pool worker runs inline on that worker.
//!
//! Workers live as long as the process, like the real crate's global pool;
//! an item's panic is caught, so a worker never dies, and reaches its
//! caller with its original payload once the call's helpers have left.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, Thread};

static POOL: OnceLock<Pool> = OnceLock::new();

/// OS threads the pool has started, over the life of the process.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is a pool worker (its calls run inline).
    static IS_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The size of the running pool, counting the calling thread, if it has
/// started.
pub(crate) fn started_size() -> Option<usize> {
    POOL.get().map(|pool| pool.size)
}

/// OS threads the pool has started since the process began: the pool's
/// size minus one once it is running, and never more.
pub fn threads_spawned() -> usize {
    SPAWNED.load(Ordering::SeqCst)
}

/// `f(0), …, f(n − 1)` in order, on at most `cap` threads of the pool with
/// the caller counted. A panic in any item is resumed in the caller with its
/// payload once the call's helpers have left.
pub(crate) fn map_indexed<R, F>(n: usize, cap: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n <= 1 || cap <= 1 || IS_WORKER.get() {
        return (0..n).map(f).collect();
    }
    let pool = POOL.get_or_init(|| Pool::start(crate::configured_threads()));
    let seats = (cap - 1).min(pool.size - 1).min(n - 1);
    if seats == 0 {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let parts: Mutex<Vec<Vec<(usize, R)>>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // one participant: claim items until none is left, keeping the results
    // locally and handing them over once, so no slot needs a lock (`next`
    // publishes no data, hence `Relaxed`; results travel through `parts`)
    let work = || {
        let mut local = Vec::new();
        let drained = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            local.push((i, f(i)));
        }));
        match drained {
            Ok(()) if local.is_empty() => {}
            Ok(()) => lock(&parts).push(local),
            Err(payload) => {
                // stop further claims; the first payload wins
                next.store(n, Ordering::Relaxed);
                lock(&failure).get_or_insert(payload);
            }
        }
    };
    pool.run(&work, seats);

    if let Some(payload) = failure.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic::resume_unwind(payload);
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts
        .into_inner()
        .expect("no lock holder panics")
        .into_iter()
        .flatten()
    {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every item ran once"))
        .collect()
}

/// Lock a mutex no holder can leave inconsistent (every update is one push
/// or one store).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A call as its helpers see it.
struct Job {
    /// The call's participant loop, its lifetime erased. It is called only
    /// by a helper counted in `inside` that then saw `open`; see
    /// [`Pool::run`] for why it is alive for every such call.
    work: &'static (dyn Fn() + Sync),
    /// Cleared by the caller once its own participant loop has returned,
    /// that is, once every item is claimed.
    open: AtomicBool,
    /// Workers inside the job: the latch the caller waits on.
    inside: AtomicUsize,
    /// Unparked by the worker that empties `inside`.
    caller: Thread,
}

impl Job {
    /// Run the participant loop as a helper, unless the caller has closed
    /// the job already.
    fn help(&self) {
        self.inside.fetch_add(1, Ordering::SeqCst);
        if self.open.load(Ordering::SeqCst) {
            (self.work)();
        }
        if self.inside.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.caller.unpark();
        }
    }
}

/// A published job with worker seats left.
struct Entry {
    job: Arc<Job>,
    seats: usize,
}

struct Pool {
    /// Threads that work a call, the caller counted.
    size: usize,
    queue: Mutex<VecDeque<Entry>>,
    /// Signalled once per seat published.
    ready: Condvar,
}

impl Pool {
    fn start(size: usize) -> Pool {
        let size = size.max(1);
        // workers reach the pool through `POOL`, which holds it once this
        // returns; until then they block in `get`
        for i in 1..size {
            thread::Builder::new()
                .name(format!("rayon-shim-{i}"))
                .spawn(|| {
                    IS_WORKER.set(true);
                    let pool = POOL.wait();
                    loop {
                        pool.take_seat().help();
                    }
                })
                .expect("spawn a pool worker");
            SPAWNED.fetch_add(1, Ordering::SeqCst);
        }
        Pool {
            size,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        }
    }

    /// Block until a published job has a seat, and take it.
    fn take_seat(&self) -> Arc<Job> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(entry) = queue.front_mut() {
                entry.seats -= 1;
                let job = Arc::clone(&entry.job);
                if entry.seats == 0 {
                    queue.pop_front();
                }
                return job;
            }
            queue = self.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Run `work` on the calling thread and on up to `seats` workers at
    /// once, returning when it has returned on the caller and no worker is
    /// inside it any more.
    fn run(&self, work: &(dyn Fn() + Sync), seats: usize) {
        // SAFETY: only the lifetime changes. The job outlives no call of
        // `work` through it: helpers call it only while counted in `inside`
        // and after seeing `open`, and `_published`, dropped before this
        // function returns or unwinds, clears `open` and then waits for
        // `inside` to reach zero (all `SeqCst`, so a helper that counts
        // itself after that wait sees `open` cleared and never calls
        // `work`). The `Arc<Job>` itself stays alive for such late helpers.
        let erased: &'static (dyn Fn() + Sync) = unsafe { mem::transmute(work) };
        let job = Arc::new(Job {
            work: erased,
            open: AtomicBool::new(true),
            inside: AtomicUsize::new(0),
            caller: thread::current(),
        });
        lock(&self.queue).push_back(Entry {
            job: Arc::clone(&job),
            seats,
        });
        for _ in 0..seats {
            self.ready.notify_one();
        }
        let _published = Published { pool: self, job };
        work();
    }
}

/// A job on the queue. Dropping it closes the job, takes back its unused
/// seats, and waits until no helper is inside it.
struct Published<'a> {
    pool: &'a Pool,
    job: Arc<Job>,
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        self.job.open.store(false, Ordering::SeqCst);
        lock(&self.pool.queue).retain(|entry| !Arc::ptr_eq(&entry.job, &self.job));
        while self.job.inside.load(Ordering::SeqCst) != 0 {
            thread::park();
        }
    }
}
