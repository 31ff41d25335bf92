//! Shared worker-count policy for the workspace's scoped-thread sites
//! (the query engine's batch path, [`crate::encoder`]'s bulk encode, and
//! the TI partition build).
//!
//! All three honor the `VAQ_THREADS` environment variable the same way
//! [`vaq_linalg`]'s kernel dispatch honors `VAQ_FORCE_KERNEL`: set it to
//! a positive integer to pin the thread budget (e.g. `VAQ_THREADS=1` for
//! deterministic single-threaded runs under a profiler), leave it unset
//! (or set it to something unparsable) to fall back to
//! [`std::thread::available_parallelism`]. The value is read once per
//! process and cached.

use crate::sync::{thread, OnceLock};

/// Parses a `VAQ_THREADS` value: trimmed positive integer, anything else
/// (empty, zero, garbage) means "no override".
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The process-wide thread budget: the `VAQ_THREADS` override when set,
/// otherwise the detected hardware parallelism (at least 1).
pub fn thread_budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        let raw = std::env::var("VAQ_THREADS").ok();
        parse_threads(raw.as_deref())
            .unwrap_or_else(|| thread::available_parallelism().map(|p| p.get()).unwrap_or(1))
    })
}

/// Worker count for a job of `units` independent work items: the thread
/// budget clamped to `[1, units]` so no worker starts idle.
pub fn worker_count(units: usize) -> usize {
    thread_budget().clamp(1, units.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_positive_integers_only() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some("  8 ")), Some(8));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("")), None);
        assert_eq!(parse_threads(Some("two")), None);
        assert_eq!(parse_threads(Some("-3")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn worker_count_clamps_to_units() {
        let budget = thread_budget();
        assert!(budget >= 1);
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(usize::MAX) == budget);
        assert!(worker_count(2) <= 2);
    }
}
