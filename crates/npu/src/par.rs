//! The order-preserving parallel map behind every sweep in the workspace.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Computes `f(0), …, f(n - 1)` on up to `jobs` scoped threads (`0` = one
/// per core) and returns the results in index order. Workers claim the
/// next unclaimed index from a shared counter, so the output never
/// depends on scheduling; one worker (or one job) runs a plain serial
/// loop.
pub fn par_map<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = match jobs {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        j => j,
    }
    .min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        mine.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}
