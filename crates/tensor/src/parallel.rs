//! Scoped-thread parallelism helpers shared by the whole workspace.
//!
//! Two layers of parallelism coexist in a federated round:
//!
//! * **inter-op** — independent clients training in parallel threads
//!   (`fp-fl`, `fedprophet`);
//! * **intra-op** — one kernel splitting its output rows across threads
//!   (the [`Parallel`](crate::Parallel) backend).
//!
//! To keep the two from oversubscribing the machine, callers that fan out
//! over clients use [`thread_split`] to divide the hardware budget into an
//! outer (client) worker count and an inner (kernel) thread count, and
//! hand each client a backend built with
//! [`backend_for_threads`](crate::backend_for_threads).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override of the hardware thread budget (0 = no override).
static BUDGET_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread budget returned by [`max_threads`] (`0` restores
/// hardware detection).
///
/// The kernels are bit-identical for every thread count, so this never
/// changes numerics — it exists so schedulers can be pinned to a worker
/// count (and the determinism claim regression-tested) independently of
/// the machine the tests run on.
pub fn set_thread_budget(threads: usize) {
    BUDGET_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread budget (`std::thread::available_parallelism`, falling back
/// to 1 when it cannot be queried), unless overridden by
/// [`set_thread_budget`].
pub fn max_threads() -> usize {
    let o = BUDGET_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits the hardware budget between `n_tasks` outer workers and the
/// intra-op threads each worker's kernels may use.
///
/// Returns `(outer_workers, inner_threads)` with
/// `outer_workers · inner_threads ≤ max_threads()` (and both ≥ 1): all
/// cores go to client-level parallelism first, and only leftover capacity
/// (when there are fewer clients than cores) is given to the kernels.
pub fn thread_split(n_tasks: usize) -> (usize, usize) {
    let budget = max_threads();
    let outer = n_tasks.clamp(1, budget);
    let inner = (budget / outer).max(1);
    (outer, inner)
}

/// Runs `f` over every item of `items` on at most `workers` scoped
/// threads, returning results in item order.
///
/// Items are pulled from a shared queue, so uneven per-item cost balances
/// automatically. With `workers <= 1` (or a single item) everything runs
/// on the calling thread.
///
/// # Panics
///
/// Re-raises the panic of any worker (like joining the thread directly).
pub fn parallel_map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(local) => local,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    collected.sort_by_key(|(i, _)| *i);
    collected.into_iter().map(|(_, t)| t).collect()
}

/// [`parallel_map`] with cohort batching: items are processed in
/// stable-sorted `key` order (equal keys stay in input order) so
/// same-shape work lands contiguously on the workers, while results are
/// returned in the **original** item order.
///
/// This is what cohort batching is: a worker that processes a run of
/// same-shape items keeps its thread-local packed-GEMM workspaces at a
/// constant size (no reallocation between items). Since every item is
/// still computed independently, numerics are unchanged.
pub fn parallel_map_grouped<I, T, F>(
    items: &[I],
    key: impl Fn(usize, &I) -> u64,
    workers: usize,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_key(|&i| key(i, &items[i]));
    let permuted: Vec<&I> = order.iter().map(|&i| &items[i]).collect();
    let results = parallel_map(&permuted, workers, |slot, item| f(order[slot], item));
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    for (slot, r) in results.into_iter().enumerate() {
        slots[order[slot]] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_map_returns_original_order() {
        let items: Vec<u64> = vec![3, 1, 2, 1, 3, 2, 1];
        for workers in [1, 2, 4] {
            let out = parallel_map_grouped(&items, |_, &x| x, workers, |i, &x| (i, x * 10));
            let want: Vec<(usize, u64)> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| (i, x * 10))
                .collect();
            assert_eq!(out, want, "workers={workers}");
        }
    }

    #[test]
    fn preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..97).collect();
        for workers in [1, 2, 7] {
            let out = parallel_map(&items, workers, |i, &x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = parallel_map(&[] as &[usize], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn split_never_oversubscribes() {
        for n in 1..40 {
            let (outer, inner) = thread_split(n);
            assert!(outer >= 1 && inner >= 1);
            assert!(outer * inner <= max_threads().max(1));
            assert!(outer <= n);
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..8).collect();
        parallel_map(&items, 4, |_, &x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
