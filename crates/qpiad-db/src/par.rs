//! Deterministic fork–join helpers for the mediation pipeline.
//!
//! QPIAD's answer path is embarrassingly parallel — rewritten queries,
//! source fan-out, TANE partition products and per-attribute classifier
//! training are all independent units of work — but every consumer of this
//! module must stay **bit-identical** to its sequential execution. The
//! helpers here guarantee that by construction:
//!
//! * work items are claimed from a shared atomic counter, so scheduling is
//!   dynamic, but every result is tagged with its item index and the output
//!   vector is restored to input order before it is returned;
//! * callers therefore only parallelize the *computation* of independent
//!   results and keep every order-sensitive decision (dedup, pruning,
//!   merging) in a sequential pass over the ordered output.
//!
//! The worker count comes from, in priority order: the process-wide
//! [`set_thread_override`] (used by tests and benchmarks), the
//! `QPIAD_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`]. A count of 1 short-circuits to a
//! plain sequential loop with no thread or allocation overhead.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker count for the whole process (`None` restores the
/// `QPIAD_THREADS` / available-parallelism default). Benchmarks and the
/// determinism tests use this to pin both sides of a comparison.
pub fn set_thread_override(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.unwrap_or(0), Ordering::SeqCst);
}

/// The number of workers parallel sections use: override, then
/// `QPIAD_THREADS`, then available parallelism (1 if undetectable).
pub fn num_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("QPIAD_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to `0..n` and returns the results in index order.
///
/// Items are distributed dynamically over [`num_threads`] scoped workers; a
/// panic in `f` propagates to the caller. With one worker (or one item) no
/// thread is spawned at all.
pub fn parallel_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = num_threads().min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // Fan-out must sleep on the caller's mediation clock (retry backoff,
    // injected latency), so capture the thread-local slot and re-install it
    // in every worker.
    let clock = crate::health::current_clock();
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, U)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let clock = clock.clone();
                let (f, next) = (&f, &next);
                scope.spawn(move || {
                    let _clock = crate::health::install_clock(clock);
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel worker panicked"))
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, u)| u).collect()
}

/// Applies `f` to every element of `items`, returning results in the
/// slice's order. See [`parallel_map_indexed`] for the execution model.
pub fn parallel_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    parallel_map_indexed(items.len(), |i| f(&items[i]))
}

/// Applies `f` to every element of `items` in place. Workers claim the
/// elements one at a time, so each is visited by exactly one worker; see
/// [`parallel_map_indexed`] for the execution model.
pub fn parallel_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let threads = num_threads().min(items.len());
    if threads <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let clock = crate::health::current_clock();
    let next = parking_lot::Mutex::new(items.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let clock = clock.clone();
            let (f, next) = (&f, &next);
            scope.spawn(move || {
                let _clock = crate::health::install_clock(clock);
                loop {
                    // The claim's lock is released before `f` runs.
                    let Some(item) = next.lock().next() else {
                        break;
                    };
                    f(item);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    /// The override is process-global; tests touching it take this lock.
    static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn override_takes_precedence() {
        let _guard = OVERRIDE_LOCK.lock();
        set_thread_override(Some(3));
        assert_eq!(num_threads(), 3);
        set_thread_override(None);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn results_arrive_in_input_order() {
        let _guard = OVERRIDE_LOCK.lock();
        for threads in [1, 2, 8] {
            set_thread_override(Some(threads));
            let out = parallel_map_indexed(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            let items: Vec<u64> = (0..57).collect();
            let doubled = parallel_map(&items, |x| x * 2);
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let mut squared = items.clone();
            parallel_for_each_mut(&mut squared, |x| *x *= *x);
            assert_eq!(squared, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
        set_thread_override(None);
    }

    #[test]
    fn empty_and_single_inputs_are_fine() {
        let _guard = OVERRIDE_LOCK.lock();
        set_thread_override(Some(4));
        assert_eq!(parallel_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map_indexed(1, |i| i + 7), vec![7]);
        set_thread_override(None);
    }
}
