//! Synchronization facade: the one place `vaq-core` touches
//! `std::sync`, `std::sync::atomic`, and `std::thread`.
//!
//! Every other module imports these primitives through here (enforced by
//! lint rule VAQ008), so that building with `RUSTFLAGS="--cfg loom"`
//! swaps in the `loom` model checker's drop-ins and the concurrency
//! tests in `tests/loom_model.rs` explore *every* schedule of the
//! segment snapshot protocol — thread interleavings and, for atomics,
//! which store in the modification order each load observes. Without the
//! facade, a new `use std::sync::...` would silently escape loom
//! coverage and only ever be exercised on schedules the OS happens to
//! produce.
//!
//! What is deliberately *not* swapped under `cfg(loom)`:
//!
//! - `OnceLock`: used only for process-lifetime memoization (the thread
//!   budget); its one-time initialization is not protocol state.
//! - `thread::scope`: the scoped batch workers in `engine`/`encoder`/
//!   `ti` are pure fork-join computation over disjoint chunks with no
//!   shared mutable protocol, so modeling them would only blow up the
//!   schedule space.

#[cfg(not(loom))]
pub use std::sync::{
    Arc, LockResult, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};

#[cfg(loom)]
pub use loom::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
#[cfg(loom)]
pub use std::sync::{LockResult, OnceLock, PoisonError};

pub mod atomic {
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize};

    // `Ordering` is always std's: loom's drop-ins take it directly.
    pub use std::sync::atomic::Ordering;
}

pub mod thread {
    #[cfg(not(loom))]
    pub use std::thread::{available_parallelism, scope, spawn, yield_now, Scope};

    #[cfg(loom)]
    pub use loom::thread::{available_parallelism, scope, spawn, yield_now, Scope};
}
