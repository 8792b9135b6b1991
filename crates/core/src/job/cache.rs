//! The registry's shared input cache.
//!
//! Every kernel input in this suite is a pure function of `(kernel, size)`:
//! fixed seeds, no dependence on the model, the variant, the thread count
//! or the worker that asks. A generated input can therefore be shared —
//! immutably, behind an `Arc` — by every request for the same key, whatever
//! model it runs under. That takes input generation (a single-threaded RNG
//! plus a fresh set of page faults) off the request path, which is where the
//! paper puts it: inputs are initialised once, outside the timed region.
//!
//! Policy, all constants:
//!
//! * Resident bytes never exceed [`INPUT_CACHE_BUDGET_BYTES`]; the
//!   least-recently-used entries are evicted to make room.
//! * An input larger than half the budget is generated, used and dropped —
//!   one request must not flush everything else.
//! * An input smaller than [`MIN_CACHED_BYTES`] is never held: it is
//!   L2-resident and costs microseconds to build from the thread's malloc
//!   arena without a page fault (and see the constant for why the line is
//!   drawn where it is).
//!
//! The lock covers lookup and insert only, never generation. A miss on a
//! key another caller is building waits for that build — for at most
//! [`BUILD_WAIT`] — instead of generating a second copy, so concurrent cold
//! misses cost one generation and one input's worth of memory, not one per
//! caller. A waiter whose wait runs out builds its own copy; the first
//! insert wins and the others adopt it. Only a fully generated input is
//! ever inserted: a build that returns an error (cancelled, deadline) or
//! panics leaves the cache untouched and hands the key to the next waiter,
//! which builds it itself.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Byte budget of a registry's input cache.
pub const INPUT_CACHE_BUDGET_BYTES: usize = 64 << 20;

/// Inputs smaller than this are never cached. A constant, not a tuning
/// knob. Caching the service's 32 KiB inputs too is a measured gain in
/// small-job throughput, but at that request rate the benchmark's own
/// in-process reply log pushes `serve_small/peak_rss_mb` past its bound
/// (EXPERIMENTS.md, "Why the floor is 64 KiB"); the floor moves only after
/// the benchmark stops charging that log to the workload.
pub const MIN_CACHED_BYTES: usize = 64 << 10;

/// Longest a miss waits for another caller's build of the same key before
/// it builds its own copy. The largest input the cache admits (half the
/// budget) generates in tens of milliseconds on two cores, so a build still
/// running after this is stalled or starved, and the waiter stops tying its
/// latency to it.
pub const BUILD_WAIT: Duration = Duration::from_millis(250);

type Key = (&'static str, usize);

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    /// Value of `Lru::clock` at the last hit or insert; the smallest stamp
    /// is the eviction victim.
    stamp: u64,
}

#[derive(Default)]
struct Lru {
    entries: HashMap<Key, Entry>,
    /// Keys a caller is building right now (outside the lock).
    building: HashSet<Key>,
    clock: u64,
}

impl Lru {
    fn touch(&mut self, key: Key) -> Option<Arc<dyn Any + Send + Sync>> {
        self.clock += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.stamp = self.clock;
        Some(Arc::clone(&entry.value))
    }
}

/// A point-in-time copy of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InputCacheStats {
    /// Requests served from a resident entry (including one that waited
    /// for another request's build of it).
    pub hits: u64,
    /// Requests that generated their input (cold, evicted, or bypassing).
    pub misses: u64,
    /// Entries dropped to make room.
    pub evictions: u64,
    /// Bytes charged to resident entries right now.
    pub resident_bytes: u64,
}

/// Shared, byte-budgeted, LRU-evicted store of generated kernel inputs,
/// keyed by `(kernel, size)`. See the module docs for the policy.
pub struct InputCache {
    budget: usize,
    lru: Mutex<Lru>,
    /// Signalled on every insert and whenever a key leaves
    /// `Lru::building`.
    built: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    resident_bytes: AtomicUsize,
}

impl Default for InputCache {
    fn default() -> Self {
        Self::with_budget(INPUT_CACHE_BUDGET_BYTES)
    }
}

impl InputCache {
    /// A cache holding at most `budget` bytes. The registry always uses
    /// [`INPUT_CACHE_BUDGET_BYTES`]; tests pass a small budget so eviction
    /// is reachable without generating gigabytes.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        Self {
            budget,
            lru: Mutex::new(Lru::default()),
            built: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            resident_bytes: AtomicUsize::new(0),
        }
    }

    /// Whether an input charged at `bytes` may become resident.
    fn admits(&self, bytes: usize) -> bool {
        (MIN_CACHED_BYTES..=self.budget / 2).contains(&bytes)
    }

    /// Counters, read from the cache's own atomics (no lock).
    pub fn stats(&self) -> InputCacheStats {
        InputCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes.load(Ordering::Relaxed) as u64,
        }
    }

    /// Resident keys with their charged bytes, coldest (next victim) first.
    pub fn resident(&self) -> Vec<(&'static str, usize, usize)> {
        let lru = self.lock();
        let mut keys: Vec<_> = lru
            .entries
            .iter()
            .map(|(&(kernel, size), e)| (e.stamp, kernel, size, e.bytes))
            .collect();
        keys.sort_unstable();
        keys.into_iter().map(|(_, k, s, b)| (k, s, b)).collect()
    }

    /// The input for `(kernel, size)`: the resident value if there is one,
    /// otherwise `build()`'s, which becomes resident when it succeeds and
    /// `bytes` — the caller's charge for the value's heap footprint — is
    /// neither under [`MIN_CACHED_BYTES`] nor over half the budget. `build`
    /// runs outside the lock; its error or panic propagates and inserts
    /// nothing. While it runs, other callers asking for the same cacheable
    /// key wait for it (up to [`BUILD_WAIT`]).
    ///
    /// # Panics
    /// If two callers use one key for values of different types.
    pub fn get_or_try_build<T, E>(
        &self,
        kernel: &'static str,
        size: usize,
        bytes: usize,
        build: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: Send + Sync + 'static,
    {
        let key = (kernel, size);
        if !self.admits(bytes) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return build().map(Arc::new);
        }
        let claim = {
            let mut lru = self.lock();
            let give_up = Instant::now() + BUILD_WAIT;
            loop {
                if let Some(hit) = lru.touch(key) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(downcast(hit, key));
                }
                if lru.building.insert(key) {
                    break Some(Building { cache: self, key });
                }
                let left = give_up.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break None;
                }
                lru = self
                    .built
                    .wait_timeout(lru, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut lru = self.lock();
        if let Some(winner) = lru.touch(key) {
            // A caller that stopped waiting for us inserted first, or we
            // stopped waiting for it; share the resident copy, drop ours.
            return Ok(downcast(winner, key));
        }
        let mut resident = self.resident_bytes.load(Ordering::Relaxed);
        // Victims are freed after the lock is released (`drop(lru)` below).
        let mut evicted = Vec::new();
        while resident + bytes > self.budget {
            let victim = lru
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k)
                .expect("resident bytes are charged to entries");
            let entry = lru.entries.remove(&victim).expect("victim is resident");
            resident -= entry.bytes;
            evicted.push(entry);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // The lookup just above advanced the clock, so this stamp is unique.
        let stamp = lru.clock;
        lru.entries.insert(
            key,
            Entry {
                value: Arc::clone(&built) as Arc<dyn Any + Send + Sync>,
                bytes,
                stamp,
            },
        );
        // Written only under the lock; an atomic so `stats` needs no lock.
        self.resident_bytes
            .store(resident + bytes, Ordering::Relaxed);
        drop(lru);
        self.built.notify_all();
        drop(claim);
        Ok(built)
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        // No caller code runs under the lock and every update leaves the
        // table valid, so a poisoned guard is still a consistent one.
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A caller's claim on building one key. Dropping it — after the insert,
/// or on the build's error or panic — releases the key and wakes the
/// callers waiting for it.
struct Building<'a> {
    cache: &'a InputCache,
    key: Key,
}

impl Drop for Building<'_> {
    fn drop(&mut self) {
        self.cache.lock().building.remove(&self.key);
        self.cache.built.notify_all();
    }
}

fn downcast<T: Send + Sync + 'static>(value: Arc<dyn Any + Send + Sync>, key: Key) -> Arc<T> {
    value
        .downcast()
        .unwrap_or_else(|_| panic!("input cache key {key:?} is used for two value types"))
}

impl std::fmt::Debug for InputCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InputCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KIB: usize = 1 << 10;

    fn get(cache: &InputCache, size: usize, bytes: usize) -> Arc<usize> {
        cache
            .get_or_try_build("k", size, bytes, || Ok::<_, ()>(size))
            .unwrap()
    }

    #[test]
    fn second_request_hits_and_shares_the_value() {
        let cache = InputCache::with_budget(1 << 20);
        let a = get(&cache, 1, 100 * KIB);
        let b = get(&cache, 1, 100 * KIB);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_bytes, (100 * KIB) as u64);
    }

    #[test]
    fn evicts_least_recently_used_to_stay_in_budget() {
        let cache = InputCache::with_budget(1 << 20);
        for size in 1..=3 {
            get(&cache, size, 300 * KIB);
        }
        get(&cache, 1, 300 * KIB); // 1 is now the warmest
        get(&cache, 4, 300 * KIB); // evicts 2
        let order: Vec<usize> = cache.resident().iter().map(|&(_, s, _)| s).collect();
        assert_eq!(order, [3, 1, 4]);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_bytes, (900 * KIB) as u64);
    }

    #[test]
    fn undersized_and_oversized_inputs_are_never_resident() {
        let cache = InputCache::with_budget(1 << 20);
        get(&cache, 1, MIN_CACHED_BYTES - 1);
        get(&cache, 2, (1 << 19) + 1);
        assert!(cache.resident().is_empty());
        assert_eq!(cache.stats().misses, 2);
        get(&cache, 3, MIN_CACHED_BYTES);
        get(&cache, 4, 1 << 19);
        assert_eq!(cache.resident().len(), 2);
    }

    #[test]
    fn failed_or_panicking_build_inserts_nothing() {
        let cache = InputCache::with_budget(1 << 20);
        let r = cache.get_or_try_build::<usize, _>("k", 1, 100 * KIB, || Err("cancelled"));
        assert_eq!(r.unwrap_err(), "cancelled");
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_try_build::<usize, ()>("k", 1, 100 * KIB, || panic!("boom"))
        }));
        assert!(p.is_err());
        assert!(cache.lock().building.is_empty(), "a panic releases the key");
        assert!(cache.resident().is_empty());
        assert_eq!(cache.stats().resident_bytes, 0);
        assert_eq!(*get(&cache, 1, 100 * KIB), 1);
    }

    type Outcome = Result<usize, &'static str>;
    type Got = Result<Arc<usize>, &'static str>;

    /// Starts a build of key 1 on another thread and returns once it is
    /// running. The build ends with whatever outcome is sent on the
    /// returned channel.
    fn hold_build<'s>(
        s: &'s std::thread::Scope<'s, '_>,
        cache: &'s InputCache,
        builds: &'s AtomicUsize,
    ) -> (
        std::sync::mpsc::Sender<Outcome>,
        std::thread::ScopedJoinHandle<'s, Got>,
    ) {
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, outcome) = std::sync::mpsc::channel();
        let holder = s.spawn(move || {
            cache.get_or_try_build("k", 1, 100 * KIB, || {
                builds.fetch_add(1, Ordering::Relaxed);
                started_tx.send(()).unwrap();
                outcome.recv().unwrap()
            })
        });
        started.recv().unwrap();
        (release, holder)
    }

    /// Gives a caller just spawned time to reach the cache and wait there.
    fn let_it_wait() {
        std::thread::sleep(Duration::from_millis(50));
    }

    #[test]
    fn concurrent_cold_misses_build_once_and_share() {
        let cache = InputCache::with_budget(1 << 20);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (release, holder) = hold_build(s, &cache, &builds);
            let waiter = s.spawn(|| {
                cache.get_or_try_build("k", 1, 100 * KIB, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, &'static str>(1)
                })
            });
            let_it_wait();
            release.send(Ok(1)).unwrap();
            let (a, b) = (holder.join().unwrap(), waiter.join().unwrap());
            assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn a_failed_build_hands_the_key_to_a_waiter() {
        let cache = InputCache::with_budget(1 << 20);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (release, holder) = hold_build(s, &cache, &builds);
            let waiter = s.spawn(|| {
                cache.get_or_try_build("k", 1, 100 * KIB, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, &'static str>(7)
                })
            });
            let_it_wait();
            release.send(Err("cancelled")).unwrap();
            assert_eq!(holder.join().unwrap().unwrap_err(), "cancelled");
            assert_eq!(*waiter.join().unwrap().unwrap(), 7);
        });
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        assert_eq!(cache.resident().len(), 1);
    }

    #[test]
    fn a_stalled_build_is_waited_for_only_so_long() {
        let cache = InputCache::with_budget(1 << 20);
        let builds = AtomicUsize::new(0);
        std::thread::scope(|s| {
            let (release, holder) = hold_build(s, &cache, &builds);
            let t = Instant::now();
            let own = cache
                .get_or_try_build("k", 1, 100 * KIB, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Ok::<_, &'static str>(1)
                })
                .unwrap();
            assert!(t.elapsed() >= BUILD_WAIT);
            // The stalled build finishes last and adopts the resident copy.
            release.send(Ok(1)).unwrap();
            assert!(Arc::ptr_eq(&own, &holder.join().unwrap().unwrap()));
        });
        assert_eq!(builds.load(Ordering::Relaxed), 2);
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.resident_bytes),
            (0, 2, (100 * KIB) as u64)
        );
    }
}
