//! Ordered, chunked, work-stealing parallel map.
//!
//! `par_map_indexed(n, f)` evaluates `f(0..n)` on a scoped pool and
//! returns the results in index order. Work distribution uses a single
//! shared atomic cursor over fixed-size chunks: a worker claims the
//! next chunk, evaluates it into a local vector, and appends
//! `(chunk_start, results)` to a shared list. After the scope joins,
//! the chunks are sorted by start index and flattened — ordering never
//! depends on which worker ran what, only the schedule does.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::pool;

/// Maps `f` over the index range `0..n` in parallel, returning results
/// in index order.
///
/// Runs serially on the calling thread when `n <= 1`, when
/// [`thread_count`](crate::thread_count) resolves to 1, or when called
/// from inside a pool worker (nested parallelism degrades to serial
/// rather than oversubscribing). A panic in `f` propagates to the
/// caller via `std::thread::scope`'s implicit join.
pub fn par_map_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = pool::thread_count().min(n.max(1));
    if n <= 1 || threads <= 1 || pool::in_worker() {
        return (0..n).map(f).collect();
    }

    // Small fixed chunks (4 per worker on average) keep stealing cheap
    // while still amortizing cursor contention for large n.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<T>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    pool::enter_worker();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        let results: Vec<T> = (start..end).map(&f).collect();
                        done.lock().unwrap().push((start, results));
                    }
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload reaches the
        // caller intact instead of scope's generic "a scoped thread
        // panicked".
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut chunks = done.into_inner().unwrap();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut results) in chunks {
        out.append(&mut results);
    }
    out
}

/// Maps `f` over a slice in parallel, returning results in input order.
///
/// Equivalent to `items.iter().map(f).collect()` but evaluated on the
/// worker pool; see [`par_map_indexed`] for the serial fallbacks and
/// panic behavior.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_thread_count;

    #[test]
    fn results_are_in_index_order() {
        let got = with_thread_count(4, || par_map_indexed(1000, |i| i * 3));
        let want: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = with_thread_count(4, || par_map_indexed(0, |_| unreachable!()));
        assert!(got.is_empty());
        let none: Vec<u32> = with_thread_count(4, || par_map(&[] as &[u32], |&x| x));
        assert!(none.is_empty());
    }

    #[test]
    fn single_item_runs_on_caller() {
        let caller = std::thread::current().id();
        let got = with_thread_count(4, || par_map_indexed(1, |_| std::thread::current().id()));
        assert_eq!(got, vec![caller]);
    }

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let pooled = with_thread_count(4, || par_map(&items, |&x| x * x + 1));
        assert_eq!(serial, pooled);
    }

    #[test]
    #[should_panic(expected = "worker failure 17")]
    fn worker_panic_propagates() {
        with_thread_count(4, || {
            par_map_indexed(100, |i| {
                if i == 17 {
                    panic!("worker failure 17");
                }
                i
            })
        });
    }

    #[test]
    fn nested_calls_run_serially() {
        let nested_workers = with_thread_count(4, || {
            par_map_indexed(8, |_| {
                // Inside a worker the nested map must stay on this thread.
                let me = std::thread::current().id();
                par_map_indexed(8, |_| std::thread::current().id())
                    .into_iter()
                    .all(|id| id == me)
            })
        });
        assert!(nested_workers.into_iter().all(|ok| ok));
    }

    #[test]
    fn thread_count_one_is_serial() {
        let caller = std::thread::current().id();
        let ids = with_thread_count(1, || par_map_indexed(64, |_| std::thread::current().id()));
        assert!(ids.into_iter().all(|id| id == caller));
    }

    #[test]
    fn uses_multiple_workers_when_asked() {
        use std::time::{Duration, Instant};
        // Item 0 holds its worker until a second thread has entered `f`,
        // so one worker cannot drain every chunk before the others start
        // on a loaded host; a serial run never sees a second thread.
        let entered = Mutex::new(std::collections::HashSet::new());
        let ids = with_thread_count(4, || {
            par_map_indexed(256, |i| {
                let me = std::thread::current().id();
                entered.lock().unwrap().insert(me);
                if i == 0 {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while entered.lock().unwrap().len() < 2 && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                me
            })
        });
        let distinct: std::collections::HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected at least two workers");
    }
}
