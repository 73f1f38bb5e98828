//! Minimal data-parallel iteration over scoped threads.
//!
//! The experiment harness wants rayon's `par_iter().map().collect()`, but
//! the build container has no crates.io access, so this crate provides the
//! one primitive the harness needs: an order-preserving [`par_map`] built on
//! [`std::thread::scope`] with an atomic work-stealing cursor. Workers pull
//! the next unclaimed index, so uneven item costs (e.g. `-O3` binaries that
//! simulate longer) balance automatically.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can
//! be pinned with the `BINPART_THREADS` environment variable (set
//! `BINPART_THREADS=1` for strictly sequential runs).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads [`par_map`] will use for `n` items.
pub fn thread_count(n: usize) -> usize {
    let hw = std::env::var("BINPART_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        });
    hw.min(n.max(1))
}

/// Applies `f` to every item of `items` in parallel, preserving order.
///
/// Panics in `f` are propagated to the caller (the scope re-raises them),
/// matching the behavior of a plain sequential loop.
///
/// # Example
///
/// ```
/// let squares = binpart_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = thread_count(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    let slot_ptr = SendPtr(slots.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            let slot_ptr = &slot_ptr;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let value = f(&items[i]);
                // SAFETY: each index is claimed by exactly one worker (the
                // atomic fetch_add hands out distinct indices), so no two
                // threads write the same slot, and the Vec outlives the scope.
                unsafe { *slot_ptr.0.add(i) = Some(value) };
            });
        }
    });
    // Every slot is filled: the scope joined every worker (re-raising any
    // panic), and the cursor handed each index below `items.len()` to
    // exactly one of them.
    slots.into_iter().flatten().collect()
}

struct SendPtr<U>(*mut Option<U>);
// SAFETY: the pointer is only dereferenced at indices uniquely claimed via
// the atomic cursor, within the lifetime of the owning Vec.
unsafe impl<U: Send> Sync for SendPtr<U> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_order() {
        let input: Vec<u32> = (0..257).collect();
        let out = par_map(&input, |&x| x + 1);
        assert_eq!(out, (1..258).collect::<Vec<u32>>());
    }

    #[test]
    fn empty_input_ok() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_env_falls_back_to_sequential() {
        // thread_count respects the cap regardless of item count.
        assert!(thread_count(1000) >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let input = [1u32, 2, 3];
        let _ = par_map(&input, |&x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }
}
