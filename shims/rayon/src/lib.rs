//! Vendored, offline subset of `rayon`.
//!
//! Implements `par_iter().map(..).collect()` and
//! `par_iter().flat_map_iter(..).collect()` — the shapes the lattice
//! builder and the `hb-par` AG sweep use — with real data parallelism:
//! the input slice is split into one contiguous chunk per worker and
//! each chunk is processed on a scoped `std::thread`. Output order
//! matches input order, as with real rayon's indexed parallel
//! iterators. `ThreadPool::install` scopes the worker count.

/// The glob-import surface, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelRefIterator;
}

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Per-thread worker-count override installed by [`ThreadPool::install`];
    /// `0` means "no override".
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// `RAYON_NUM_THREADS`, parsed once. `0`/absent/unparsable means "no cap".
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
    })
}

/// How many worker threads to fan out to. Precedence mirrors rayon:
/// an installed [`ThreadPool`] on the current thread, then the
/// `RAYON_NUM_THREADS` environment variable, then the machine.
fn workers() -> usize {
    let installed = POOL_THREADS.with(|c| c.get());
    if installed > 0 {
        return installed;
    }
    let env = env_threads();
    if env > 0 {
        return env;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count the next parallel call on this thread will use.
pub fn current_num_threads() -> usize {
    workers()
}

/// Error type for [`ThreadPoolBuilder::build`] (the shim cannot fail).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("rayon shim thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`. The shim spawns scoped
/// threads per call rather than keeping a pool resident, so the builder
/// only records the requested width.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with the default (machine-derived) width.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the pool at `n` workers; `0` keeps the default.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the (stateless) pool handle.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            threads: self.num_threads,
        })
    }
}

/// A thread-pool handle: in the shim, just a worker-count override that
/// [`ThreadPool::install`] scopes onto the calling thread.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Worker count parallel calls inside [`ThreadPool::install`] will use.
    pub fn current_num_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            workers()
        }
    }

    /// Runs `f` with this pool's width governing parallel calls made on
    /// the *calling* thread (chunk fan-out is decided by the caller, so
    /// nested calls made from worker threads fall back to the default —
    /// a deliberate simplification of real rayon's work-stealing pool).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let prev = POOL_THREADS.with(|c| c.get());
        let _restore = Restore(prev);
        if self.threads > 0 {
            POOL_THREADS.with(|c| c.set(self.threads));
        }
        f()
    }
}

/// Runs `f` over each element of `items`, in parallel chunks, preserving
/// order; the per-item results are concatenated.
fn chunked_map<'data, T: Sync, R: Send, F>(items: &'data [T], f: F) -> Vec<R>
where
    F: Fn(&'data T) -> R + Sync,
{
    let n = items.len();
    let k = workers().min(n.max(1));
    if k <= 1 || n < 2 {
        return items.iter().map(f).collect();
    }
    let chunk = n.div_ceil(k);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        for h in handles {
            results.push(h.join().expect("rayon shim worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// `par_iter()` entry point for slices and vectors.
pub trait IntoParallelRefIterator<'data> {
    /// The element type.
    type Item: Sync + 'data;

    /// A parallel iterator over references.
    fn par_iter(&'data self) -> ParIter<'data, Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = T;

    fn par_iter(&'data self) -> ParIter<'data, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator.
pub struct ParIter<'data, T> {
    items: &'data [T],
}

impl<'data, T: Sync> ParIter<'data, T> {
    /// Parallel map.
    pub fn map<R, F>(self, f: F) -> ParMap<'data, T, F>
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel flat-map where each item yields a serial iterator.
    pub fn flat_map_iter<I, F>(self, f: F) -> ParFlatMapIter<'data, T, F>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'data T) -> I + Sync,
    {
        ParFlatMapIter {
            items: self.items,
            f,
        }
    }
}

/// Pending parallel map; `collect` runs it.
pub struct ParMap<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T: Sync, F> ParMap<'data, T, F> {
    /// Executes the map and collects in input order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(&'data T) -> R + Sync,
        C: FromIterator<R>,
    {
        chunked_map(self.items, self.f).into_iter().collect()
    }
}

/// Pending parallel flat-map; `collect` runs it.
pub struct ParFlatMapIter<'data, T, F> {
    items: &'data [T],
    f: F,
}

impl<'data, T: Sync, F> ParFlatMapIter<'data, T, F> {
    /// Executes the flat-map and collects in input order.
    pub fn collect<C, I>(self) -> C
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(&'data T) -> I + Sync,
        C: FromIterator<I::Item>,
    {
        let per_item = chunked_map(self.items, |t| (self.f)(t).into_iter().collect::<Vec<_>>());
        per_item.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = v.par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_iter_preserves_order() {
        let v: Vec<u32> = (0..1000).collect();
        let out: Vec<u32> = v.par_iter().flat_map_iter(|&x| [x, x]).collect();
        let expected: Vec<u32> = (0..1000).flat_map(|x| [x, x]).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn install_scopes_thread_count() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let outer = crate::current_num_threads();
        let inner = pool.install(crate::current_num_threads);
        assert_eq!(inner, 3);
        assert_eq!(crate::current_num_threads(), outer);
        // Nested installs restore the enclosing width.
        pool.install(|| {
            let two = crate::ThreadPoolBuilder::new()
                .num_threads(2)
                .build()
                .unwrap();
            assert_eq!(two.install(crate::current_num_threads), 2);
            assert_eq!(crate::current_num_threads(), 3);
        });
    }

    #[test]
    fn empty_and_single() {
        let v: Vec<u32> = vec![];
        let out: Vec<u32> = v.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }
}
