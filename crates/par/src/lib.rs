//! Minimal data-parallel iteration over scoped threads.
//!
//! The experiment harness wants rayon's `par_iter().map().collect()`, but
//! the build container has no crates.io access, so this crate provides the
//! one primitive the harness needs: an order-preserving [`par_map`] built on
//! [`std::thread::scope`] with an atomic work-stealing cursor. Workers pull
//! the next unclaimed index, so uneven item costs (e.g. `-O3` binaries that
//! simulate longer) balance automatically. [`par_map_with`] is the same
//! scheduler with a state per worker, for callers that reuse buffers
//! across the items one worker evaluates; `par_map` is its stateless case.
//!
//! Thread count defaults to [`std::thread::available_parallelism`] and can
//! be pinned with the `BINPART_THREADS` environment variable (set
//! `BINPART_THREADS=1` for strictly sequential runs).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads [`par_map`] and [`par_map_with`] use for `n`
/// items.
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
    par_map_with(items, || (), |(), item| f(item))
}

/// [`par_map`] with per-worker state: each worker calls `init` once, before
/// its first item, and then `f(&mut state, item)` for every item it
/// claims, so buffers a worker keeps in `state` are reused across its
/// items instead of rebuilt per item. Results are in item order whatever
/// the thread count; which worker (and so which state) sees an item is
/// not, so `f`'s result must not depend on what earlier items left in the
/// state. With no items, `init` is not called.
///
/// Panics in `init` or `f` are propagated to the caller.
///
/// # Example
///
/// ```
/// // Each worker formats into one buffer it keeps.
/// let lens = binpart_par::par_map_with(&[5u32, 42, 100], String::new, |buf, &x| {
///     use std::fmt::Write;
///     buf.clear();
///     write!(buf, "{x}").unwrap();
///     buf.len()
/// });
/// assert_eq!(lens, vec![1, 2, 3]);
/// ```
pub fn par_map_with<T, U, S, I, F>(items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> U + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = thread_count(items.len());
    if threads <= 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    let slot_ptr = SendPtr(slots.as_mut_ptr());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let (init, f) = (&init, &f);
            let slot_ptr = &slot_ptr;
            scope.spawn(move || {
                let mut state = init();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let value = f(&mut state, &items[i]);
                    // SAFETY: each index is claimed by exactly one worker
                    // (the atomic fetch_add hands out distinct indices), so
                    // no two threads write the same slot, and the Vec
                    // outlives the scope.
                    unsafe { *slot_ptr.0.add(i) = Some(value) };
                }
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
    fn workers_keep_their_state_across_items() {
        let input: Vec<u32> = (0..100).collect();
        for threads in ["1", "3"] {
            std::env::set_var("BINPART_THREADS", threads);
            let inits = AtomicUsize::new(0);
            let out = par_map_with(
                &input,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::new()
                },
                |seen: &mut Vec<u32>, &x| {
                    seen.push(x);
                    // Items a worker claims arrive in increasing order.
                    assert!(seen.windows(2).all(|w| w[0] < w[1]));
                    x * 2
                },
            );
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
            let inits = inits.into_inner();
            assert!((1..=3).contains(&inits), "{threads} threads: {inits} inits");
        }
        std::env::remove_var("BINPART_THREADS");
        let none = par_map_with(&[] as &[u32], || -> u32 { panic!("init ran") }, |_, &x| x);
        assert!(none.is_empty());
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
