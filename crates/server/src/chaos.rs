//! Seeded serve-tier fault injection: the serving counterpart of the
//! simulator's `dresar_faults::FaultPlan`.
//!
//! PR 3 proved the *simulated* system degrades gracefully under seeded
//! chaos (scrubs, storms, disabled switch directories). This module points
//! the same discipline at the serving layer itself: a [`ServeFaultPlan`]
//! deterministically injects worker panics, store I/O failures, store read
//! corruption, and slow jobs, so `tests/serve_chaos.rs` can prove the
//! supervision, quarantine, and deadline machinery actually fires — with a
//! pinned seed, reproducibly.
//!
//! Arming is deliberately awkward in production paths: a plan only exists
//! if constructed explicitly ([`crate::ServerConfig`]`::chaos`), parsed
//! from a `--chaos` flag, or read from the `DRESAR_SERVE_CHAOS`
//! environment variable by the binary. The default for every config is
//! `None` — zero plan, zero overhead, zero injected faults.

use dresar_types::{kvspec, SmallRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What faults to inject into the serving path, and when.
///
/// Deterministic given the seed and the request order: `*_nth` keys fire on
/// exactly the Nth event (1-based, once), `*_ppm` keys fire with the given
/// probability per event in parts-per-million drawn from a [`SmallRng`]
/// seeded by `seed`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    /// Seed for the probabilistic (`*_ppm`) draws.
    pub seed: u64,
    /// Panic the Nth engine execution (1-based; 0 = never).
    pub panic_nth: u64,
    /// Panic each execution with this parts-per-million probability.
    pub panic_ppm: u32,
    /// Sleep this many milliseconds inside every execution (0 = none) —
    /// the slow-job fault that exercises queue-deadline expiry.
    pub slow_ms: u64,
    /// Fail the Nth store write with an injected I/O error (1-based).
    pub store_write_fail_nth: u64,
    /// Fail each store write with this parts-per-million probability.
    pub store_write_fail_ppm: u32,
    /// Corrupt the bytes of the Nth store read before verification
    /// (1-based) — must surface as a quarantine, never as served garbage.
    pub store_read_corrupt_nth: u64,
}

impl ServeFaultPlan {
    /// Parses `key=value` pairs separated by commas, e.g.
    /// `seed=7,panic_nth=1,slow_ms=50`.
    ///
    /// Keys: `seed`, `panic_nth`, `panic_ppm`, `slow_ms`,
    /// `store_write_fail_nth`, `store_write_fail_ppm`,
    /// `store_read_corrupt_nth`. Unset keys keep their defaults (off).
    pub fn parse(spec: &str) -> Result<ServeFaultPlan, String> {
        let mut plan = ServeFaultPlan::default();
        for item in kvspec::items("serve chaos", spec) {
            let item = item?;
            match item.key {
                "seed" => plan.seed = item.num()?,
                "panic_nth" => plan.panic_nth = item.num()?,
                "panic_ppm" => plan.panic_ppm = item.num()? as u32,
                "slow_ms" => plan.slow_ms = item.num()?,
                "store_write_fail_nth" => plan.store_write_fail_nth = item.num()?,
                "store_write_fail_ppm" => plan.store_write_fail_ppm = item.num()? as u32,
                "store_read_corrupt_nth" => plan.store_read_corrupt_nth = item.num()?,
                _ => return Err(item.unknown_key()),
            }
        }
        Ok(plan)
    }

    /// Whether this plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_nth > 0
            || self.panic_ppm > 0
            || self.slow_ms > 0
            || self.store_write_fail_nth > 0
            || self.store_write_fail_ppm > 0
            || self.store_read_corrupt_nth > 0
    }
}

/// The armed, counting form of a [`ServeFaultPlan`]: owns the event
/// counters and the seeded RNG, and answers "does this event fault?" for
/// each injection point. One instance lives for the server's lifetime, so
/// `*_nth` means the Nth event since boot.
#[derive(Debug)]
pub struct ServeChaos {
    plan: ServeFaultPlan,
    execs: AtomicU64,
    store_writes: AtomicU64,
    store_reads: AtomicU64,
    rng: Mutex<SmallRng>,
}

impl ServeChaos {
    /// Arms `plan`. Callers gate on [`ServeFaultPlan::is_active`] if they
    /// want a no-plan fast path.
    pub fn arm(plan: ServeFaultPlan) -> ServeChaos {
        let rng = SmallRng::seed_from_u64(plan.seed);
        ServeChaos {
            plan,
            execs: AtomicU64::new(0),
            store_writes: AtomicU64::new(0),
            store_reads: AtomicU64::new(0),
            rng: Mutex::new(rng),
        }
    }

    fn ppm_draw(&self, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let mut rng = self.rng.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        rng.gen::<f64>() < f64::from(ppm) / 1_000_000.0
    }

    /// Called at the top of every engine execution. Sleeps `slow_ms` if
    /// configured, then reports whether this execution should panic.
    pub fn before_exec(&self) -> bool {
        let n = self.execs.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.slow_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(self.plan.slow_ms));
        }
        n == self.plan.panic_nth || self.ppm_draw(self.plan.panic_ppm)
    }

    /// Whether the current store write should fail with an injected error.
    pub fn fail_store_write(&self) -> bool {
        let n = self.store_writes.fetch_add(1, Ordering::Relaxed) + 1;
        n == self.plan.store_write_fail_nth || self.ppm_draw(self.plan.store_write_fail_ppm)
    }

    /// Whether the current store read's bytes should be corrupted before
    /// verification (exercising the quarantine path end to end).
    pub fn corrupt_store_read(&self) -> bool {
        let n = self.store_reads.fetch_add(1, Ordering::Relaxed) + 1;
        n == self.plan.store_read_corrupt_nth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_key() {
        let plan = ServeFaultPlan::parse(
            "seed=7, panic_nth=2, panic_ppm=100, slow_ms=5, \
             store_write_fail_nth=1, store_write_fail_ppm=3, store_read_corrupt_nth=4",
        )
        .unwrap();
        assert_eq!(
            plan,
            ServeFaultPlan {
                seed: 7,
                panic_nth: 2,
                panic_ppm: 100,
                slow_ms: 5,
                store_write_fail_nth: 1,
                store_write_fail_ppm: 3,
                store_read_corrupt_nth: 4,
            }
        );
        assert!(plan.is_active());
        assert!(!ServeFaultPlan::default().is_active());
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_numbers() {
        assert!(ServeFaultPlan::parse("frobnicate=1").is_err());
        assert!(ServeFaultPlan::parse("panic_nth=often").is_err());
        assert!(ServeFaultPlan::parse("panic_nth").is_err());
        assert_eq!(ServeFaultPlan::parse("").unwrap(), ServeFaultPlan::default());
    }

    #[test]
    fn nth_triggers_fire_exactly_once() {
        let chaos = ServeChaos::arm(ServeFaultPlan {
            panic_nth: 3,
            store_write_fail_nth: 2,
            store_read_corrupt_nth: 1,
            ..ServeFaultPlan::default()
        });
        let execs: Vec<bool> = (0..5).map(|_| chaos.before_exec()).collect();
        assert_eq!(execs, [false, false, true, false, false]);
        let writes: Vec<bool> = (0..4).map(|_| chaos.fail_store_write()).collect();
        assert_eq!(writes, [false, true, false, false]);
        let reads: Vec<bool> = (0..3).map(|_| chaos.corrupt_store_read()).collect();
        assert_eq!(reads, [true, false, false]);
    }

    #[test]
    fn ppm_draws_are_deterministic_for_a_seed() {
        let draw = |seed: u64| -> Vec<bool> {
            let chaos =
                ServeChaos::arm(ServeFaultPlan { seed, panic_ppm: 500_000, ..Default::default() });
            (0..32).map(|_| chaos.before_exec()).collect()
        };
        assert_eq!(draw(1009), draw(1009), "same seed, same fault schedule");
        assert_ne!(draw(1009), draw(7919), "different seeds diverge");
        let fired = draw(1009).iter().filter(|&&b| b).count();
        assert!(fired > 4 && fired < 28, "500000 ppm fires roughly half the time: {fired}");
    }
}
