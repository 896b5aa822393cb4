//! Deterministic fork-join parallelism for the Cyclops hot paths.
//!
//! The training and simulation pipelines are dominated by embarrassingly
//! parallel numeric work: finite-difference Jacobian columns, exhaustive
//! alignment grids, per-window link evaluation, speed-ladder sweeps. This
//! crate provides the small fork-join substrate they all share.
//!
//! Design rules (enforced by the `par_equiv` tests of the solver, core and
//! link crates, which compare results bit for bit at pool widths
//! {1, 2, 3, 8}):
//!
//! * **Bit-identical to serial.** Every helper maps an index space through a
//!   pure function and collects results in index order. There are no
//!   atomics-based float accumulations and no scheduling-dependent reduction
//!   orders, so a parallel run produces byte-for-byte the output of the
//!   serial loop regardless of thread count.
//! * **Width is a runtime value, width 1 is serial.** At width 1 (and for
//!   work smaller than `min_chunk` per thread) every helper runs the plain
//!   serial loop with no thread machinery, so `CYCLOPS_THREADS=1` is the
//!   serial reference.
//! * **Reproducible sizing.** The width resolves as: this thread's pin
//!   ([`with_threads`]) → `CYCLOPS_THREADS` env var → the machine's
//!   available parallelism. A pin is thread-local and the workers a helper
//!   spawns inherit the caller's width, so concurrent callers never see
//!   each other's pins and nested helpers keep their caller's width.
//!
//! The helpers:
//!
//! * [`par_map_indexed`] / [`par_map`] — map an index space or a slice,
//!   results in input order;
//! * [`par_for_each_mut`] — mutate each element of a slice in place, the
//!   lockstep drivers whose items carry their own state (the scheduled
//!   fleet's per-epoch session physics).
//!
//! The container this repo builds in cannot fetch crates.io, so rayon is
//! not available; the implementation uses `std::thread::scope`, which is
//! all the fork-join shape here needs. A thread is spawned per chunk per
//! call (per chunk after the first for [`par_for_each_mut`], whose chunk 0
//! runs on the caller) — negligible against the millisecond-scale chunks
//! these pipelines feed (measured by `perfbench`'s serial and parallel
//! legs; see the README's Performance section).

#![deny(missing_docs)]

use std::cell::Cell;

thread_local! {
    /// This thread's pinned width; `0` means "no pin".
    static PIN: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with this thread's pool width pinned to `n` (`0` clears the
/// pin), restoring the previous pin afterwards (also on panic).
///
/// The pin is thread-local: it never leaks into other threads, except the
/// workers a `par_*` helper spawns from inside `f`, which inherit the
/// caller's width. Values above the hardware parallelism are honoured —
/// the thread-count invariance tests rely on that to exercise real thread
/// handoffs even on small CI runners.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            PIN.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(PIN.with(|p| p.replace(n)));
    f()
}

/// The pool width `par_*` calls on this thread will use: this thread's pin
/// → `CYCLOPS_THREADS` (a positive integer; `0` or anything unparseable is
/// ignored) → available hardware parallelism (1 when it cannot be
/// determined). Always ≥ 1.
pub fn max_threads() -> usize {
    let pin = PIN.with(Cell::get);
    if pin > 0 {
        return pin;
    }
    if let Ok(v) = std::env::var("CYCLOPS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Always `true`: the fork-join path is compiled into every build, and the
/// pool width alone selects serial execution. Kept for perfbench's run
/// stamp.
pub const fn parallel_compiled() -> bool {
    true
}

/// Mixes two `u64`s into one well-distributed seed (the SplitMix64 finalizer
/// over a golden-ratio combination).
///
/// The stateful simulations (deployment noise RNGs) cannot share one RNG
/// across parallel work items without the draw order depending on the thread
/// schedule. Instead, callers derive one independent stream per item as
/// `seed_from_u64(mix64(stage_seed, item_index))` — a pure function of the
/// stage and the item, so serial and parallel runs consume identical streams.
pub const fn mix64(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `0..n` through `f`, returning results in index order.
///
/// Splits the index space into at most [`max_threads`] contiguous chunks of
/// at least `min_chunk` indices; falls back to the plain serial loop when
/// one chunk suffices. `f` must be pure for the serial/parallel outputs to
/// agree — every caller in this workspace guarantees that.
pub fn par_map_indexed<R, F>(n: usize, min_chunk: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = max_threads();
    let threads = (n / min_chunk.max(1)).clamp(1, width);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                s.spawn(move || {
                    let lo = k * chunk;
                    let hi = ((k + 1) * chunk).min(n);
                    with_threads(width, || (lo..hi).map(f).collect::<Vec<R>>())
                })
            })
            .collect();
        for h in handles {
            // Panics inside workers propagate to the caller.
            out.extend(h.join().expect("cyclops-par worker panicked"));
        }
    });
    out
}

/// Maps a slice through `f`, returning results in input order. See
/// [`par_map_indexed`] for the chunking and determinism contract.
pub fn par_map<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), min_chunk, |i| f(&items[i]))
}

/// Applies `f` to every element of `items` in place.
///
/// Splits the slice into at most [`max_threads`] contiguous chunks of at
/// least `min_chunk` elements. Chunk 0 runs on the calling thread and the
/// others on scoped workers; one chunk falls back to the plain serial loop.
/// Each element is visited by exactly one thread, so when `f` touches only
/// its own element the result is bit-identical to the serial loop. This is
/// the shape of a lockstep driver whose items carry their own state (the
/// scheduled fleet steps each session through an epoch of slots).
pub fn par_for_each_mut<T, F>(items: &mut [T], min_chunk: usize, f: F)
where
    T: Send,
    F: Fn(&mut T) + Sync,
{
    let n = items.len();
    let width = max_threads();
    let threads = (n / min_chunk.max(1)).clamp(1, width);
    if threads <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let mut chunks = items.chunks_mut(n.div_ceil(threads));
    let first = chunks.next().expect("threads > 1 implies a nonempty slice");
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = chunks
            .map(|c| s.spawn(move || with_threads(width, || c.iter_mut().for_each(f))))
            .collect();
        first.iter_mut().for_each(f);
        for h in handles {
            // Panics inside workers propagate to the caller.
            h.join().expect("cyclops-par worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that set `CYCLOPS_THREADS` or read the unpinned
    /// width, since the environment is process-wide.
    fn env_lock() -> MutexGuard<'static, ()> {
        static ENV: Mutex<()> = Mutex::new(());
        ENV.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `f` with `CYCLOPS_THREADS` set to `v` (`None`: unset), then
    /// restores the previous value.
    fn with_env<R>(v: Option<&str>, f: impl FnOnce() -> R) -> R {
        const KEY: &str = "CYCLOPS_THREADS";
        let prev = std::env::var_os(KEY);
        let set = |v: Option<&std::ffi::OsStr>| match v {
            Some(v) => std::env::set_var(KEY, v),
            None => std::env::remove_var(KEY),
        };
        set(v.map(std::ffi::OsStr::new));
        let out = f();
        set(prev.as_deref());
        out
    }

    fn hardware_width() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    #[test]
    fn map_preserves_index_order() {
        let out = par_map_indexed(1000, 1, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_matches_serial_bitwise_for_floats() {
        let f = |i: usize| ((i as f64) * 0.1).sin().exp();
        let serial: Vec<f64> = (0..10_000).map(f).collect();
        let parallel = with_threads(8, || par_map_indexed(10_000, 16, f));
        // Bit-identical, not just approximately equal.
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn small_inputs_run_serial() {
        // min_chunk larger than n forces a single chunk; must still work.
        let out = par_map_indexed(5, 100, |i| i);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn for_each_mut_matches_serial_bitwise() {
        // A stateful per-item recurrence, as a session stepping its slots.
        let step = |x: &mut (u64, f64)| {
            for _ in 0..50 {
                x.1 = (x.1 * 1.1 + x.0 as f64).sin();
            }
            x.0 += 1;
        };
        let bits = |v: &[(u64, f64)]| -> Vec<(u64, u64)> {
            v.iter().map(|&(a, b)| (a, b.to_bits())).collect()
        };
        // Fewer items than threads, an uneven split, and many items.
        for n in [0, 1, 2, 5, 97] {
            let init: Vec<(u64, f64)> = (0..n).map(|i| (i as u64, i as f64 * 0.3)).collect();
            let mut serial = init.clone();
            serial.iter_mut().for_each(step);
            for t in [1, 2, 3, 8] {
                let mut got = init.clone();
                with_threads(t, || par_for_each_mut(&mut got, 1, step));
                assert_eq!(bits(&got), bits(&serial), "n={n} threads={t}");
            }
        }
    }

    #[test]
    fn for_each_mut_propagates_worker_panics() {
        // The last item lands in a worker chunk whenever the pool is wider
        // than one thread.
        let mut items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(4, || {
                par_for_each_mut(&mut items, 1, |x| {
                    assert!(*x != 15, "item 15 fails");
                    *x += 1;
                })
            })
        }));
        assert!(caught.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn with_threads_restores() {
        let _env = env_lock();
        let before = max_threads();
        with_threads(3, || assert_eq!(max_threads(), 3));
        assert_eq!(max_threads(), before);
    }

    #[test]
    fn concurrent_pins_stay_on_their_own_thread() {
        let _env = env_lock();
        let before = max_threads();
        // Both threads hold their pin across both barriers, so each reads
        // its width while the other's pin is live.
        let gate = std::sync::Barrier::new(2);
        let seen = std::thread::scope(|s| {
            let run = |n: usize| {
                let gate = &gate;
                s.spawn(move || {
                    with_threads(n, || {
                        gate.wait();
                        let w = max_threads();
                        gate.wait();
                        w
                    })
                })
            };
            let (a, b) = (run(8), run(1));
            [a.join().unwrap(), b.join().unwrap()]
        });
        assert_eq!(seen, [8, 1], "each thread must see its own pin");
        assert_eq!(max_threads(), before, "pins must not leak");
    }

    #[test]
    fn workers_inherit_the_callers_width() {
        let widths = with_threads(3, || par_map_indexed(6, 1, |_| max_threads()));
        assert_eq!(widths, vec![3; 6]);
        let mut items = vec![0usize; 6];
        with_threads(3, || {
            par_for_each_mut(&mut items, 1, |w| *w = max_threads())
        });
        assert_eq!(items, vec![3; 6]);
    }

    #[test]
    fn pin_beats_env() {
        let _env = env_lock();
        with_env(Some("5"), || {
            assert_eq!(max_threads(), 5);
            assert_eq!(with_threads(2, max_threads), 2);
        });
    }

    #[test]
    fn env_one_is_serial() {
        let _env = env_lock();
        with_env(Some("1"), || assert_eq!(max_threads(), 1));
    }

    #[test]
    fn zero_or_unparseable_env_falls_through_to_hardware() {
        let _env = env_lock();
        for v in ["0", "", "four", "-2", "2.5"] {
            with_env(Some(v), || {
                assert_eq!(max_threads(), hardware_width(), "{v:?}")
            });
        }
        with_env(None, || assert_eq!(max_threads(), hardware_width()));
    }

    #[test]
    fn mix64_decorrelates_nearby_inputs() {
        // Consecutive (seed, index) pairs must yield thoroughly different
        // outputs — a plain XOR would leave neighbouring streams correlated.
        let mut seen = std::collections::HashSet::new();
        for a in 0..50u64 {
            for b in 0..50u64 {
                assert!(seen.insert(mix64(a, b)), "collision at ({a}, {b})");
            }
        }
        // Single-bit input change flips roughly half the output bits.
        let d = (mix64(7, 3) ^ mix64(7, 2)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn empty_input() {
        assert!(par_map_indexed(0, 1, |i| i).is_empty());
    }
}
