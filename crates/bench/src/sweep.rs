//! The deterministic parallel evaluation engine: a scoped-worker
//! work-stealing map over independent experiment cells.
//!
//! Every figure the harness regenerates decomposes into cells — a
//! `(workflow, system)` evaluation, one jittered request seed, one serving
//! scenario — whose results are pure functions of the cell itself. The
//! engine exploits that: workers race down a shared atomic index (dynamic
//! load balancing, no per-worker striping to go stale), but a cell's
//! output depends only on its index and payload — RNG seeds are derived
//! from the cell index by the caller, never from worker identity — and
//! results land in an index-addressed slot table. Any worker count
//! therefore reproduces the single-threaded output byte-for-byte; the
//! `figures -- perf-eval` target and the cross-crate property tests
//! enforce it.
//!
//! The engine keeps no state between calls: every sweeping figure takes
//! its worker count as an argument and passes it to [`par_map_workers`],
//! so figures with different widths can run side by side.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on `workers` scoped threads and returns the
/// results in item order.
///
/// Scheduling is work-stealing (a shared atomic cursor), so which worker
/// runs which cell is nondeterministic — `f` must derive everything,
/// including RNG seeds, from `(index, item)` alone. Results are placed by
/// index, making the output independent of completion order.
pub fn par_map_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        done.push((i, f(i, &items[i])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every cell executed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_land_in_item_order() {
        let items: Vec<u64> = (0..97).collect();
        for workers in [1, 2, 4, 7] {
            let out = par_map_workers(&items, workers, |i, &x| (i as u64) * 1000 + x);
            let expected: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, &x)| i as u64 * 1000 + x)
                .collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn seeded_cells_are_worker_count_invariant() {
        // A cell that hashes its index-derived seed: byte-identical across
        // worker counts because nothing depends on worker identity.
        let items: Vec<usize> = (0..53).collect();
        let cell = |i: usize, _: &usize| {
            let mut h = 0xcbf29ce484222325u64;
            for b in (i as u64).wrapping_mul(0x9e3779b97f4a7c15).to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
            format!("{h:016x}")
        };
        let solo = par_map_workers(&items, 1, cell);
        for workers in [2, 4, 7] {
            assert_eq!(par_map_workers(&items, workers, cell), solo);
        }
    }

    #[test]
    fn empty_and_oversized_worker_counts() {
        let none: Vec<i32> = par_map_workers(&[] as &[i32], 4, |_, &x| x);
        assert!(none.is_empty());
        let out = par_map_workers(&[1, 2], 16, |_, &x| x * 2);
        assert_eq!(out, vec![2, 4]);
    }
}
