//! The indexed parallel-map primitive shared by every parallel path in the
//! workspace: restart sharding and portfolio arm stepping in `wdm_core`,
//! and batch solving in `wdm_xsat`.
//!
//! Std-only by design: the build environment is offline, so no rayon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `n` indexed jobs over `threads` scoped workers and returns the
/// results in index order. The closure may borrow from the caller's stack
/// (no `'static` bound). Which thread runs which index is unspecified;
/// anything order-dependent must live in the index-addressed results, never
/// in shared mutable state.
///
/// # Example
///
/// ```
/// let squares = wdm_mo::parallel::scoped_map(3, 10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn scoped_map<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("scoped_map slot lock") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("scoped_map slot lock")
                .expect("every index computed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 8] {
            let out = scoped_map(threads, 57, |i| 2 * i + 1);
            assert_eq!(out, (0..57).map(|i| 2 * i + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn borrows_from_the_stack() {
        let data: Vec<f64> = (0..32).map(f64::from).collect();
        let doubled = scoped_map(4, data.len(), |i| data[i] * 2.0);
        assert_eq!(doubled[31], 62.0);
    }

    #[test]
    fn zero_jobs() {
        let out: Vec<usize> = scoped_map(4, 0, |i| i);
        assert!(out.is_empty());
    }
}
