//! Deterministic nested-parallel executor with a global thread budget.
//!
//! The benchmark is parallel at two levels: the runner fans matrix rows
//! out over row workers, and each cell contains hot loops that are
//! themselves embarrassingly parallel (per-tree forest fitting, NSGA-II
//! population evaluation, HPO grid search, per-row evasion attacks,
//! ranking warm-up). Naively giving every level its own thread pool
//! oversubscribes the machine: `threads = N` outer workers each spawning
//! `N` inner workers runs `N²` compute threads.
//!
//! [`Executor`] solves this with a single *permit pool*. An executor built
//! with `Executor::new(n)` holds `n - 1` helper permits (the caller's own
//! thread is the implicit n-th). Every [`Executor::par_map_indexed`] call
//! tries to acquire helper permits with a non-blocking CAS; whatever it
//! gets (possibly zero) bounds the scoped helper threads it spawns, and
//! the permits are returned when the scope ends. Nested calls therefore
//! degrade gracefully: when the outer level has consumed the budget, inner
//! loops find zero permits and run sequentially inline — no deadlock, no
//! oversubscription, regardless of nesting depth.
//!
//! **Determinism contract.** Parallel execution must be bit-identical to
//! sequential execution at any thread count:
//!
//! 1. every work item derives its own seed from `(parent_seed, index)` —
//!    never from a shared sequential RNG;
//! 2. results are assembled *in item order* (workers tag results with the
//!    item index; the reduce step is order-fixed);
//! 3. shared counters are accumulated per-worker and merged with an
//!    associative, order-fixed reduction.
//!
//! The executor enforces (2) itself; (1) and (3) are obligations on the
//! call sites, tested end-to-end by the determinism regression suite.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// A shared thread budget for nested parallel loops.
///
/// Shared through [`Arc`](std::sync::Arc): every holder draws from the
/// same permit pool.
#[derive(Debug)]
pub struct Executor {
    /// Helper permits still available (total budget minus one implicit
    /// caller thread, minus permits currently lent out).
    permits: AtomicUsize,
    /// The configured total budget (callers + helpers), for reporting.
    threads: usize,
}

/// RAII lease on helper permits; returns them to the pool on drop, which
/// also makes the release panic-safe.
#[derive(Debug)]
pub struct PermitLease<'a> {
    pool: &'a AtomicUsize,
    count: usize,
}

impl PermitLease<'_> {
    /// Permits held (possibly fewer than asked for).
    pub fn count(&self) -> usize {
        self.count
    }
}

impl Drop for PermitLease<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.pool.fetch_add(self.count, Ordering::Release);
        }
    }
}

impl Executor {
    /// An executor with a total budget of `threads` computing threads
    /// (clamped to at least 1: the caller itself).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Executor { permits: AtomicUsize::new(threads - 1), threads }
    }

    /// An executor that always runs inline (budget 1).
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// The configured total thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Takes up to `want` helper permits (possibly zero) and holds them
    /// until the lease drops. Never blocks. `par_map_indexed` leases its
    /// scoped helpers this way; a caller that runs threads of its own (the
    /// benchmark runner's row workers) leases their permits for as long as
    /// they run, so the loops nested inside see only what is left.
    pub fn lease(&self, want: usize) -> PermitLease<'_> {
        let mut available = self.permits.load(Ordering::Acquire);
        loop {
            let take = want.min(available);
            if take == 0 {
                return PermitLease { pool: &self.permits, count: 0 };
            }
            match self.permits.compare_exchange_weak(
                available,
                available - take,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return PermitLease { pool: &self.permits, count: take },
                Err(now) => available = now,
            }
        }
    }

    /// Maps `f` over `items`, in parallel when helper permits are free,
    /// returning results **in item order**. `f` receives `(index, &item)`
    /// so call sites can derive per-item seeds from the index.
    ///
    /// Exactly equivalent to
    /// `items.iter().enumerate().map(|(i, it)| f(i, it)).collect()` — the
    /// thread count never changes the result, only the wall-clock.
    pub fn par_map_indexed<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(usize, &I) -> T + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Helpers wanted: one per item beyond the caller's own thread.
        let lease = self.lease(n - 1);
        if lease.count == 0 {
            // Sequential fallback: the budget is spent (or there is one
            // item). Plain in-order map, no scope overhead.
            return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
        }

        let next = AtomicUsize::new(0);
        // Workers pull the next unclaimed index and tag each result with
        // it; the assembly below restores item order regardless of which
        // worker computed what.
        let worker = || {
            let mut out: Vec<(usize, T)> = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                out.push((i, f(i, &items[i])));
            }
            out
        };

        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (i, v) in fan_out(lease.count, worker).into_iter().flatten() {
            slots[i] = Some(v);
        }
        // Every index in 0..n was claimed by exactly one worker, so every
        // slot is filled once the scope joins.
        slots
            .into_iter()
            .map(|s| match s {
                Some(v) => v,
                None => unreachable!("executor worker skipped an item"),
            })
            .collect()
    }

    /// Calls `f(index, &mut item)` once for every item, in parallel when
    /// helper permits are free. `f` writes its results into the item, so
    /// a caller fills one output buffer in place by passing its disjoint
    /// chunks as the items (`chunks_mut`), with no per-item buffers and no
    /// copy at the end.
    ///
    /// Exactly equivalent to
    /// `for (i, it) in items.iter_mut().enumerate() { f(i, it) }` as long
    /// as `f` reads nothing but `index`, its item and shared state it does
    /// not write (rule 1 of the determinism contract): which thread runs
    /// an item never changes what is written.
    pub fn par_for_each_mut<I, F>(&self, items: &mut [I], f: F)
    where
        I: Send,
        F: Fn(usize, &mut I) + Sync,
    {
        let lease = self.lease(items.len().saturating_sub(1));
        if lease.count == 0 {
            for (i, it) in items.iter_mut().enumerate() {
                f(i, it);
            }
            return;
        }
        // Workers claim the next item under the lock and release it
        // before running `f`, so a panicking `f` cannot poison the queue.
        let queue = Mutex::new(items.iter_mut().enumerate());
        let worker = || loop {
            let next = match queue.lock() {
                Ok(mut q) => q.next(),
                Err(_) => None,
            };
            match next {
                Some((i, it)) => f(i, it),
                None => break,
            }
        };
        fan_out(lease.count, worker);
    }
}

/// Runs `worker` on `helpers` scoped threads and on the caller's own,
/// returning every run's result (the caller's first). Spawn failure is
/// non-fatal: the caller's run and the helpers that did start drain the
/// work, and the unused permits return through the caller's lease. A
/// helper's panic resumes on the caller once every helper has joined.
fn fan_out<R, W>(helpers: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn() -> R + Sync,
{
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(helpers);
        for k in 0..helpers {
            let builder = thread::Builder::new().name(format!("dfs-exec-{k}"));
            match builder.spawn_scoped(scope, &worker) {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        let mut out = vec![worker()];
        for h in handles {
            match h.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// The host's width for work that runs before any thread budget is set
/// (corpus set-up): `available_parallelism`, capped at 8 (4 when it is
/// unknown).
pub fn host_threads() -> usize {
    thread::available_parallelism().map(|p| p.get().min(8)).unwrap_or(4)
}

/// The thread budget requested via the `DFS_THREADS` environment variable
/// (default 1; zero and unparsable values also mean 1).
pub fn env_threads() -> usize {
    std::env::var("DFS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicIsize;
    use std::sync::Mutex;

    #[test]
    fn results_preserve_item_order() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = exec.par_map_indexed(&items, |i, &v| {
            assert_eq!(i, v);
            v * 3
        });
        assert_eq!(out, (0..100).map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..57).map(|i| i * 17 + 3).collect();
        let f = |i: usize, v: &u64| v.wrapping_mul(i as u64 + 1) ^ 0xABCD;
        let seq = Executor::sequential().par_map_indexed(&items, f);
        let par = Executor::new(8).par_map_indexed(&items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let exec = Executor::new(4);
        let out: Vec<u32> = exec.par_map_indexed(&Vec::<u32>::new(), |_, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_calls_fall_back_to_sequential_without_deadlock() {
        let exec = Executor::new(2);
        let outer: Vec<usize> = (0..4).collect();
        let out = exec.par_map_indexed(&outer, |_, &o| {
            let inner: Vec<usize> = (0..8).collect();
            exec.par_map_indexed(&inner, |_, &i| o * 100 + i).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|o| (0..8).map(|i| o * 100 + i).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn concurrency_never_exceeds_budget() {
        let exec = Executor::new(3);
        let live = AtomicIsize::new(0);
        let high_water = AtomicIsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        exec.par_map_indexed(&items, |_, _| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_micros(200));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(high_water.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn permits_are_restored_after_use_and_after_panic() {
        let exec = Executor::new(4);
        let items: Vec<usize> = (0..16).collect();
        exec.par_map_indexed(&items, |_, &v| v);
        assert_eq!(exec.permits.load(Ordering::SeqCst), 3);

        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map_indexed(&items, |i, _| {
                if i == 7 {
                    panic!("boom");
                }
                i
            });
        }));
        assert!(caught.is_err());
        assert_eq!(exec.permits.load(Ordering::SeqCst), 3, "permits leaked after panic");
    }

    #[test]
    fn a_held_lease_shrinks_the_budget_of_nested_loops() {
        let exec = Executor::new(4);
        {
            let lease = exec.lease(2);
            assert_eq!(lease.count(), 2);
            assert_eq!(exec.lease(5).count(), 1, "only the unleased permit is left");
            let live = AtomicIsize::new(0);
            let high_water = AtomicIsize::new(0);
            let items: Vec<usize> = (0..32).collect();
            exec.par_map_indexed(&items, |_, _| {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                live.fetch_sub(1, Ordering::SeqCst);
            });
            assert!(high_water.load(Ordering::SeqCst) <= 2);
        }
        assert_eq!(exec.permits.load(Ordering::SeqCst), 3, "lease not returned on drop");
    }

    #[test]
    fn a_spent_budget_runs_inline_on_the_caller() {
        let exec = Executor::new(4);
        let _all = exec.lease(3);
        let tid = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let items: Vec<usize> = (0..8).collect();
        exec.par_map_indexed(&items, |_, &v| {
            assert_eq!(std::thread::current().id(), tid);
            seen.lock().unwrap().push(v);
        });
        assert_eq!(*seen.lock().unwrap(), items);
    }

    #[test]
    fn for_each_mut_fills_chunks_in_place_at_every_width() {
        let fill = |exec: &Executor, chunk: usize| {
            let mut out = vec![0u64; 103];
            let mut chunks: Vec<&mut [u64]> = out.chunks_mut(chunk).collect();
            exec.par_for_each_mut(&mut chunks, |c, part| {
                for (r, v) in part.iter_mut().enumerate() {
                    *v = ((c * chunk + r) as u64).wrapping_mul(0x9E37_79B9) ^ c as u64;
                }
            });
            out
        };
        for threads in [1, 2, 4, 8] {
            for chunk in [1, 7, 103] {
                let expect: Vec<u64> = (0..103)
                    .map(|i| (i as u64).wrapping_mul(0x9E37_79B9) ^ (i / chunk) as u64)
                    .collect();
                assert_eq!(fill(&Executor::new(threads), chunk), expect, "{threads}x{chunk}");
            }
        }
    }

    #[test]
    fn for_each_mut_restores_permits_after_a_panic() {
        let exec = Executor::new(4);
        let mut items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_for_each_mut(&mut items, |i, v| {
                if i == 7 {
                    panic!("boom");
                }
                *v += 1;
            });
        }));
        assert!(caught.is_err());
        assert_eq!(exec.permits.load(Ordering::SeqCst), 3, "permits leaked after panic");
    }

    #[test]
    fn env_threads_parses_and_defaults() {
        // Only exercises the pure parsing path indirectly: an executor
        // built from any count clamps to >= 1.
        assert_eq!(Executor::new(0).threads(), 1);
        assert_eq!(Executor::sequential().threads(), 1);
        assert_eq!(Executor::new(6).threads(), 6);
    }
}
