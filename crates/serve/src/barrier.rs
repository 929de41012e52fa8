//! Persistent shard workers for epoch-barrier simulations.
//!
//! [`drive`] alternates two steps until the coordinator says stop: every
//! shard is *stepped* exactly once (in parallel, no shard sees another),
//! then the coordinator runs alone with exclusive access to all of them.
//! The worker threads are spawned once per [`drive`] call and wait between
//! generations by spinning, then yielding, then parking, so a run with
//! thousands of barriers pays for thread start-up once, not per barrier.
//!
//! Each shard has a home worker (`shard % threads`): a worker steps its own
//! shards first, ascending, and only then steals other workers' unclaimed
//! shards, descending, so a shard's state stays on one core's cache unless
//! the load is uneven. Which thread steps a shard never matters for the
//! result — shards exchange nothing while they are stepped.

use chiron_runtime::Backoff;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Generation value that dismisses the helper threads.
const STOP: u64 = u64::MAX;

/// Runs `step` on every shard, then `between` on all of them, repeating
/// until `between` returns `false`. Up to `workers` threads step shards
/// (the calling thread is one of them and also runs `between`); with one
/// worker or one shard no thread is spawned.
pub(crate) fn drive<S: Send>(
    shards: &mut [S],
    workers: usize,
    step: impl Fn(&mut S) + Sync,
    mut between: impl FnMut(&mut [&mut S]) -> bool,
) {
    let threads = workers.clamp(1, shards.len().max(1));
    let crew = Crew {
        claimed: shards.iter().map(|_| AtomicU64::new(0)).collect(),
        shards: shards.iter_mut().map(Mutex::new).collect(),
        generation: AtomicU64::new(0),
        stepped: AtomicU64::new(0),
        failed: AtomicBool::new(false),
        threads,
        coordinator: std::thread::current(),
    };
    std::thread::scope(|scope| {
        let helpers: Vec<Thread> = (1..threads)
            .map(|worker| {
                let (crew, step) = (&crew, &step);
                scope
                    .spawn(move || crew.help(worker, step))
                    .thread()
                    .clone()
            })
            .collect();
        // Dismisses the helpers however this thread leaves the scope —
        // including by panic, which would otherwise wait on them forever.
        let _dismiss = Dismiss(&crew, &helpers);
        let n = crew.shards.len() as u64;
        for generation in 1.. {
            crew.generation.store(generation, Ordering::Release);
            for helper in &helpers {
                helper.unpark();
            }
            crew.work(0, generation, &step);
            wait_until(|| {
                crew.stepped.load(Ordering::Acquire) >= generation * n
                    || crew.failed.load(Ordering::Acquire)
            });
            assert!(
                !crew.failed.load(Ordering::Acquire),
                "a shard worker panicked"
            );
            let mut guards: Vec<_> = crew
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock"))
                .collect();
            let mut all: Vec<&mut S> = guards.iter_mut().map(|g| &mut ***g).collect();
            if !between(&mut all) {
                break;
            }
        }
    });
}

/// State the workers share for one [`drive`] call. Shard data passes
/// between threads through each shard's mutex; the atomics carry only
/// control (which generation, how many steps), each `Release` store or
/// read-modify-write paired with the `Acquire` load that waits on it.
struct Crew<'s, S> {
    /// Uncontended by construction: a shard is locked by the one thread
    /// that claimed it, or by the coordinator once every shard is stepped.
    shards: Vec<Mutex<&'s mut S>>,
    /// The generation each shard was last claimed for. Claiming is a CAS
    /// from `generation - 1`, so exactly one thread steps each shard per
    /// generation, and a thread still looking at an old generation can
    /// claim nothing.
    claimed: Vec<AtomicU64>,
    /// The generation being stepped, published by the coordinator.
    generation: AtomicU64,
    /// Shards stepped over all generations.
    stepped: AtomicU64,
    /// Set when a helper panics, so the coordinator stops waiting.
    failed: AtomicBool,
    threads: usize,
    coordinator: Thread,
}

impl<S> Crew<'_, S> {
    /// Steps every shard of `generation` this worker can still claim: its
    /// own shards first, then the others from the far end.
    fn work(&self, worker: usize, generation: u64, step: &impl Fn(&mut S)) {
        let n = self.shards.len();
        let own = (worker..n).step_by(self.threads);
        let others = (0..n).rev().filter(|i| i % self.threads != worker);
        for i in own.chain(others) {
            let claim = self.claimed[i].compare_exchange(
                generation - 1,
                generation,
                Ordering::AcqRel,
                Ordering::Relaxed,
            );
            if claim.is_ok() {
                step(&mut self.shards[i].lock().expect("shard lock"));
                let stepped = self.stepped.fetch_add(1, Ordering::AcqRel) + 1;
                if stepped == generation * n as u64 {
                    self.coordinator.unpark();
                }
            }
        }
    }

    /// A helper thread's life: wait for each new generation and work it.
    fn help(&self, worker: usize, step: &impl Fn(&mut S)) {
        let _alarm = Alarm(self);
        let mut seen = 0;
        loop {
            wait_until(|| self.generation.load(Ordering::Acquire) != seen);
            seen = self.generation.load(Ordering::Acquire);
            if seen == STOP {
                return;
            }
            self.work(worker, seen, step);
        }
    }
}

/// How long a waiter yields before it parks: longer than the gap between
/// two barriers of a busy run, whose wake-up a park would delay by tens of
/// microseconds, and short enough that an oversubscribed host gets its
/// CPUs back.
const PARK_AFTER: Duration = Duration::from_micros(500);

/// Spins, then yields, then parks until `ready` holds. Whoever makes it
/// hold unparks the waiter; `park`'s wake-up token makes a wake that lands
/// before the park harmless.
fn wait_until(ready: impl Fn() -> bool) {
    let mut backoff = Backoff::new();
    let mut yielding_since: Option<Instant> = None;
    while !ready() {
        if yielding_since.is_some_and(|t| t.elapsed() > PARK_AFTER) {
            std::thread::park();
        } else if backoff.snooze() {
            yielding_since.get_or_insert_with(Instant::now);
        }
    }
}

/// Tells the coordinator when a helper unwinds.
struct Alarm<'c, 's, S>(&'c Crew<'s, S>);

impl<S> Drop for Alarm<'_, '_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.failed.store(true, Ordering::Release);
            self.0.coordinator.unpark();
        }
    }
}

/// Sends the helpers home when the coordinator leaves the scope.
struct Dismiss<'c, 's, S>(&'c Crew<'s, S>, &'c [Thread]);

impl<S> Drop for Dismiss<'_, '_, S> {
    fn drop(&mut self) {
        self.0.generation.store(STOP, Ordering::Release);
        for helper in self.1 {
            helper.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forces a second thread into every generation: each step counts
    /// its start, and shard 0 (the calling thread's first claim) waits
    /// until shard 1 has begun the generation too. The wait gives up
    /// after a few seconds, so a driver bug that steps shard 0 out of
    /// turn fails the test's assertions instead of hanging it.
    struct Relay {
        /// Step starts per shard.
        begun: Vec<AtomicU64>,
        /// Generations the coordinator has seen complete.
        done: AtomicU64,
    }

    impl Relay {
        fn new(shards: usize) -> Self {
            Relay {
                begun: (0..shards).map(|_| AtomicU64::new(0)).collect(),
                done: AtomicU64::new(0),
            }
        }

        fn step(&self, shard: usize, steps: &mut u64) {
            self.begun[shard].fetch_add(1, Ordering::SeqCst);
            let give_up = Instant::now() + Duration::from_secs(5);
            while shard == 0
                && self.begun[1].load(Ordering::SeqCst) <= self.done.load(Ordering::SeqCst)
                && Instant::now() < give_up
            {
                std::thread::yield_now();
            }
            *steps += 1;
        }
    }

    /// Every shard is stepped exactly once per generation, for any worker
    /// count, and the coordinator sees every step before the next one.
    #[test]
    fn each_shard_steps_once_per_generation() {
        for workers in [1, 2, 3, 8] {
            let relay = Relay::new(7);
            let mut shards: Vec<(usize, u64)> = (0..7).map(|i| (i, 0)).collect();
            drive(
                &mut shards,
                workers,
                |(shard, steps)| match workers {
                    1 => *steps += 1,
                    _ => relay.step(*shard, steps),
                },
                |all| {
                    let rounds = relay.done.fetch_add(1, Ordering::SeqCst) + 1;
                    assert!(all.iter().all(|s| s.1 == rounds), "workers={workers}");
                    rounds < 50
                },
            );
            assert!(shards.iter().all(|s| s.1 == 50), "workers={workers}");
        }
    }

    #[test]
    fn a_panicking_helper_fails_the_drive_instead_of_hanging() {
        let outcome = std::panic::catch_unwind(|| {
            let relay = Relay::new(4);
            let mut shards: Vec<(usize, u64)> = (0..4).map(|i| (i, 0)).collect();
            drive(
                &mut shards,
                2,
                |(shard, steps)| {
                    relay.step(*shard, steps);
                    // The calling thread is held in shard 0 until shard 1
                    // begins, so shard 1 fails on a helper.
                    assert!(*shard != 1, "shard failure");
                },
                |_| {
                    relay.done.fetch_add(1, Ordering::SeqCst);
                    true
                },
            );
        });
        assert!(outcome.is_err());
    }
}
