//! Deterministic fail-point fault injection, plus the degradation log that
//! records every graceful fallback the pipeline takes (with or without
//! injection).
//!
//! A site exists only for a failure from outside this process (a disk, a
//! power loss, a refused mapping, file bytes) or a budget a called routine
//! returns; a defect of this program's own code is not simulated.
//!
//! The runtime is gated behind the `faults` cargo feature. Without it,
//! [`fired`] is a `const false` that the optimizer deletes, so production
//! builds carry no branch, no atomic, and no registry — the sites compile
//! to no-ops. With the feature on but nothing armed, the cost per site is
//! one relaxed atomic load.
//!
//! Sites are *named* and *registered*: [`SITES`] is the single source of
//! truth, mirrored by the `xtask` lint (rule VAQ006) so a site cannot be
//! added or removed without updating the registry, and by `vaq_cli chaos`
//! which arms every registered site under a seeded schedule.
//!
//! Triggering is deterministic: a [`Trigger::Probability`] site hashes
//! `(seed, site name, per-site hit counter)` through splitmix64, so the
//! same seed always fires the same hits — chaos runs are reproducible.

/// Every registered fault site, in pipeline order. Each name is
/// `stage.operation`; the wiring lives next to the real failure it
/// simulates and shares the real recovery path.
pub const SITES: &[&str] = &[
    "varpca.fit",
    "allocation.milp",
    "persist.from_bytes",
    "persist.wal_append",
    "persist.commit",
    "persist.fsync",
    "persist.mmap",
];

/// True when `site` is in [`SITES`].
pub fn is_registered(site: &str) -> bool {
    SITES.contains(&site)
}

// ---------------------------------------------------------------------------
// Degradation log (always compiled — fallbacks happen without injection too).
// ---------------------------------------------------------------------------

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Mutex;

static DEGRADATIONS_NONEMPTY: AtomicBool = AtomicBool::new(false);
static DEGRADATIONS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Records that a pipeline stage took its degraded path (`what` names the
/// fallback, e.g. `"allocation.milp: greedy fallback"`). Only failure
/// paths call this, so the lock is never contended in steady state. Every
/// entry is also surfaced as a structured `degradation` event through
/// [`crate::obs`] (a no-op while recording is disabled), so profiled runs
/// see fallbacks in sequence with the rest of the event stream.
pub fn note_degradation(what: &'static str) {
    crate::obs::event("degradation", what);
    if let Ok(mut log) = DEGRADATIONS.lock() {
        log.push(what);
        // ORDERING: Release pairs with the Acquire fast-path load in
        // `take_degradations`: a drainer that observes `true` must also
        // observe the push above. (The store happens under the mutex,
        // which already orders it against other writers.)
        DEGRADATIONS_NONEMPTY.store(true, Ordering::Release);
    }
}

/// Drains and returns the degradation log (process-wide). `vaq_cli chaos`
/// calls this between seeds to report which fallbacks each run exercised.
pub fn take_degradations() -> Vec<&'static str> {
    // ORDERING: Acquire pairs with the Release store in
    // `note_degradation`; observing `true` here guarantees the entries
    // behind it are visible once the lock is taken. A stale `false` only
    // delays draining to the caller's next poll — never loses entries.
    if !DEGRADATIONS_NONEMPTY.load(Ordering::Acquire) {
        return Vec::new();
    }
    match DEGRADATIONS.lock() {
        Ok(mut log) => {
            // ORDERING: Release keeps the flag's pairing symmetric; the
            // clearing store is already ordered by the mutex, and a
            // racing `note_degradation` re-arms the flag after its push.
            DEGRADATIONS_NONEMPTY.store(false, Ordering::Release);
            std::mem::take(&mut *log)
        }
        Err(_) => Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Injection runtime (feature-gated).
// ---------------------------------------------------------------------------

/// When and whether an armed site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Never fires (armed but inert).
    Off,
    /// Fires on every hit.
    Always,
    /// Fires on exactly the n-th hit (1-based), once.
    NthHit(u64),
    /// Fires each hit independently with probability `p`, deterministically
    /// derived from `(seed, site, hit index)`.
    Probability {
        /// Firing probability in `[0, 1]`.
        p: f64,
        /// Schedule seed.
        seed: u64,
    },
    /// Simulated power loss at the n-th hit (1-based): fires there and on
    /// every later hit, and raises the process-wide [`crashed`] flag so
    /// **all** subsequent IO sites (`persist.*`) abandon their operation
    /// whether or not they are armed — after a crash, no write reaches
    /// disk. Cleared by `disarm_all`. The crash-point harness
    /// (`vaq_cli crash`) sweeps this trigger over every IO point of a
    /// schedule and asserts recovery matches the committed prefix.
    CrashPoint(u64),
}

#[cfg(feature = "faults")]
mod runtime {
    use super::Trigger;
    use crate::sync::atomic::{AtomicBool, Ordering};
    use crate::sync::Mutex;
    use std::collections::HashMap;

    static ANY_ARMED: AtomicBool = AtomicBool::new(false);
    static REGISTRY: Mutex<Option<HashMap<&'static str, SiteState>>> = Mutex::new(None);
    /// Sticky "power was lost" flag raised by a [`Trigger::CrashPoint`]
    /// firing; while set, every `persist.*` site reports fired so no IO
    /// after the crash point reaches disk.
    static CRASHED: AtomicBool = AtomicBool::new(false);

    struct SiteState {
        trigger: Trigger,
        hits: u64,
    }

    /// splitmix64 — a tiny, well-mixed hash for reproducible schedules.
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    fn site_hash(site: &str) -> u64 {
        // FNV-1a over the site name, folded through splitmix64.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in site.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        splitmix64(h)
    }

    /// Arms `site` with `trigger`. Unknown sites are a caller bug in test
    /// infrastructure; they are ignored in release and flagged in debug.
    pub fn arm(site: &'static str, trigger: Trigger) {
        debug_assert!(super::is_registered(site), "arming unregistered fault site `{site}`");
        if let Ok(mut guard) = REGISTRY.lock() {
            let map = guard.get_or_insert_with(HashMap::new);
            map.insert(site, SiteState { trigger, hits: 0 });
            // ORDERING: Release pairs with the Acquire fast-path load in
            // `fired`: a site that observes `true` must also observe the
            // registry entry inserted above once it takes the lock.
            ANY_ARMED.store(true, Ordering::Release);
        }
    }

    /// Disarms every site, resets all hit counters, and clears the
    /// simulated-crash flag (the next schedule powers the machine back
    /// up).
    pub fn disarm_all() {
        if let Ok(mut guard) = REGISTRY.lock() {
            *guard = None;
            // ORDERING: Relaxed is enough — the flag is only consulted
            // through `fired`/`crashed`, whose callers synchronize on the
            // registry mutex or run single-threaded harness schedules.
            CRASHED.store(false, Ordering::Relaxed);
            // ORDERING: Release for symmetry with `arm`; a stale `true`
            // at a fault site only costs one registry lock that finds
            // the map empty — injection stays correct.
            ANY_ARMED.store(false, Ordering::Release);
        }
    }

    /// True after a [`Trigger::CrashPoint`] fired and before the next
    /// `disarm_all`: the simulated machine is off, all IO is abandoned.
    pub fn crashed() -> bool {
        // ORDERING: Relaxed — see the store in `fired`; harness schedules
        // are single-threaded around the crash point and recovery starts
        // only after `disarm_all`.
        CRASHED.load(Ordering::Relaxed)
    }

    /// Hits recorded at `site` since it was armed (0 when unarmed). The
    /// crash harness arms sites with [`Trigger::Off`] for a counting
    /// pass, then sweeps `CrashPoint(1..=hits)` to kill at every IO
    /// point.
    pub fn hit_count(site: &'static str) -> u64 {
        let Ok(guard) = REGISTRY.lock() else {
            return 0;
        };
        guard.as_ref().and_then(|m| m.get(site)).map_or(0, |s| s.hits)
    }

    /// Evaluates the site's trigger, counting this call as one hit.
    ///
    /// After a simulated power loss ([`Trigger::CrashPoint`]) every
    /// `persist.*` site fires unconditionally — armed or not — so the
    /// durability layer abandons all IO until `disarm_all` powers the
    /// machine back up.
    pub fn fired(site: &'static str) -> bool {
        // ORDERING: Acquire pairs with the Release store in `arm`:
        // observing `true` guarantees the armed entry is visible under
        // the lock below. A stale `false` can only skip an injection
        // that raced with arming — tests arm before spawning workers.
        if !ANY_ARMED.load(Ordering::Acquire) {
            return false;
        }
        if site.starts_with("persist.") && crashed() {
            return true;
        }
        let Ok(mut guard) = REGISTRY.lock() else {
            return false;
        };
        let Some(state) = guard.as_mut().and_then(|m| m.get_mut(site)) else {
            return false;
        };
        state.hits += 1;
        match state.trigger {
            Trigger::Off => false,
            Trigger::Always => true,
            Trigger::NthHit(n) => state.hits == n,
            Trigger::Probability { p, seed } => {
                let h = splitmix64(seed ^ site_hash(site) ^ state.hits);
                // Map the top 53 bits to [0, 1).
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                u < p
            }
            Trigger::CrashPoint(n) => {
                if state.hits >= n {
                    // ORDERING: Relaxed — the caller is the thread that
                    // will observe the abandoned IO; cross-thread
                    // visibility is not part of the crash model.
                    CRASHED.store(true, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }
}

#[cfg(feature = "faults")]
pub use runtime::{arm, crashed, disarm_all, fired, hit_count};

/// With the `faults` feature off, no site ever fires and the call
/// disappears at compile time.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn fired(_site: &'static str) -> bool {
    false
}

/// With the `faults` feature off, the machine never crashes.
#[cfg(not(feature = "faults"))]
#[inline(always)]
pub fn crashed() -> bool {
    false
}

#[cfg(all(test, feature = "faults"))]
mod tests {
    use super::*;
    use crate::sync::{Mutex, MutexGuard};

    /// The registry is process-global; serialize tests that touch it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        g
    }

    #[test]
    fn unarmed_sites_never_fire() {
        let _g = guard();
        assert!(!fired("varpca.fit"));
        assert!(!fired("persist.mmap"));
    }

    #[test]
    fn always_and_nth_hit_triggers() {
        let _g = guard();
        arm("varpca.fit", Trigger::Always);
        assert!(fired("varpca.fit"));
        assert!(fired("varpca.fit"));

        arm("persist.from_bytes", Trigger::NthHit(3));
        assert!(!fired("persist.from_bytes"));
        assert!(!fired("persist.from_bytes"));
        assert!(fired("persist.from_bytes"));
        assert!(!fired("persist.from_bytes")); // fires exactly once
        disarm_all();
        assert!(!fired("varpca.fit"));
    }

    #[test]
    fn probability_schedule_is_deterministic_per_seed() {
        let _g = guard();
        let run = |seed: u64| -> Vec<bool> {
            arm("allocation.milp", Trigger::Probability { p: 0.5, seed });
            let fires = (0..64).map(|_| fired("allocation.milp")).collect();
            disarm_all();
            fires
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must reproduce the same schedule");
        assert_ne!(a, c, "different seeds should differ");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(hits > 8 && hits < 56, "p=0.5 over 64 hits fired {hits} times");
    }

    #[test]
    fn crash_point_is_sticky_across_all_io_sites() {
        let _g = guard();
        assert!(!crashed());
        arm("persist.wal_append", Trigger::CrashPoint(3));
        assert!(!fired("persist.wal_append"));
        assert!(!fired("persist.wal_append"));
        // Unrelated sites are untouched before the crash...
        assert!(!fired("persist.commit"));
        assert!(!fired("varpca.fit"));
        // ...the third hit is the power loss...
        assert!(fired("persist.wal_append"));
        assert!(crashed());
        // ...and afterwards every IO site reports fired, armed or not,
        // while non-IO sites keep their own schedules.
        assert!(fired("persist.wal_append"));
        assert!(fired("persist.commit"));
        assert!(fired("persist.fsync"));
        assert!(!fired("varpca.fit"));
        // Power back up.
        disarm_all();
        assert!(!crashed());
        assert!(!fired("persist.commit"));
    }

    #[test]
    fn hit_counts_enumerate_io_points() {
        let _g = guard();
        arm("persist.commit", Trigger::Off);
        assert_eq!(hit_count("persist.commit"), 0);
        for _ in 0..5 {
            assert!(!fired("persist.commit"));
        }
        assert_eq!(hit_count("persist.commit"), 5);
        assert_eq!(hit_count("persist.fsync"), 0, "unarmed sites count nothing");
        disarm_all();
        assert_eq!(hit_count("persist.commit"), 0);
    }

    #[test]
    fn degradation_log_drains() {
        let _g = guard();
        take_degradations();
        note_degradation("test: fallback one");
        note_degradation("test: fallback two");
        let log = take_degradations();
        assert!(log.contains(&"test: fallback one") && log.contains(&"test: fallback two"));
        assert!(take_degradations().is_empty());
    }

    #[test]
    fn every_site_is_unique_and_well_formed() {
        for (i, s) in SITES.iter().enumerate() {
            assert!(s.contains('.'), "site `{s}` should be stage.operation");
            assert!(!SITES[..i].contains(s), "duplicate site `{s}`");
            assert!(is_registered(s));
        }
    }
}
