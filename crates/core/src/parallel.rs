//! Deterministic parallel map: data-parallel sweeps with no shared mutable
//! state, results gathered in input order.
//!
//! This lives in `abt-core` (rather than the experiment harness, where it
//! started) because two layers above need it: `abt-bench` fans experiment
//! grids of *independent instances* through it, and `abt-active`'s LP
//! decomposition layer fans the *connected components of a single
//! instance* through it (`DecomposeMode::Auto` in `abt-active::lp_model`).
//!
//! Built on `std::thread::scope` only — no external dependencies. Work is
//! handed out dynamically (a mutex-guarded iterator, cheap next to the
//! per-item work here), each worker collects its own `(index, result)`
//! vector, and results are placed directly into their output slots when
//! workers are joined. A panic inside `f` is re-raised on the caller with
//! its original payload.

use crate::error::SolveFailure;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Applies `f` to every item on a scoped worker pool, returning results in
/// input order. Falls back to sequential execution for tiny inputs.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on any worker (remaining
/// workers finish draining the queue first).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|w| w.get())
        .unwrap_or(4)
        .min(n);
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let f = &f;
    let queue = &queue;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Keep the queue usable even after another worker
                        // panicked while holding the lock.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        match next {
                            Some((idx, item)) => done.push((idx, f(item))),
                            None => return done,
                        }
                    }
                })
            })
            .collect();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok(done) => {
                    for (idx, r) in done {
                        slots[idx] = Some(r);
                    }
                }
                Err(payload) => {
                    panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every slot filled"))
        .collect()
}

/// The supervised variant of [`parallel_map`]: applies the fallible `f` to
/// every item on the same scoped worker pool, but **catches unwinds per
/// work item** instead of letting one panicking item abort the whole sweep.
/// A panic inside `f` becomes [`SolveFailure::Panicked`] (carrying the
/// payload message) in that item's slot; every other item keeps its own
/// result. This is the trust boundary of the component fan-out in
/// `abt-active` — a poisoned component LP must never take down its
/// siblings.
///
/// `f` itself returns `Result<R, SolveFailure>` so callers can layer their
/// own failure taxonomy (budget trips, numerical stalls) under the same
/// supervision; the unwind catch is a backstop for whatever the ladder did
/// not already convert into a typed failure.
///
/// No per-thread solver state survives a caught unwind: an `abt-lp` solve
/// owns its scratch, which the unwind drops, so the next item on the
/// thread starts from fresh buffers.
pub fn supervised_map<T, R, F>(items: Vec<T>, f: F) -> Vec<std::result::Result<R, SolveFailure>>
where
    T: Send,
    R: Send,
    F: Fn(T) -> std::result::Result<R, SolveFailure> + Sync,
{
    parallel_map(items, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item)))
            .unwrap_or_else(|payload| Err(SolveFailure::Panicked(panic_message(payload.as_ref()))))
    })
}

/// Best-effort extraction of a panic payload's message (`&str` and `String`
/// payloads cover `panic!`/`assert!`/`expect`; anything else is opaque).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(Vec::<i32>::new(), |x| x), Vec::<i32>::new());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Heterogeneous per-item cost exercises the dynamic hand-out.
        let out = parallel_map((0..64u64).collect(), |x| {
            let mut acc = x;
            for _ in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i as u64, *x);
        }
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map((0..32).collect(), |x: i32| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        let payload = caught.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("boom at 17"), "unexpected payload: {msg}");
    }

    #[test]
    fn supervised_map_isolates_panics_per_item() {
        let out = supervised_map((0..32).collect(), |x: i32| {
            if x % 11 == 5 {
                panic!("injected at {x}");
            }
            Ok(x * 2)
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i % 11 == 5 {
                match r {
                    Err(SolveFailure::Panicked(msg)) => {
                        assert!(msg.contains(&format!("injected at {i}")));
                    }
                    other => panic!("item {i}: expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*r, Ok(i as i32 * 2));
            }
        }
    }

    #[test]
    fn supervised_map_passes_typed_failures_through() {
        let out = supervised_map(vec![1u64, 2, 3], |x| {
            if x == 2 {
                Err(SolveFailure::NumericalStall)
            } else {
                Ok(x)
            }
        });
        assert_eq!(out, vec![Ok(1), Err(SolveFailure::NumericalStall), Ok(3)]);
    }
}
