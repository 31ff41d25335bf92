//! Model-aware drop-ins for the `std::sync` subset the workspace uses.
//!
//! Every type pairs a real `std` primitive with a `Registration` cell.
//! Outside a [`crate::model`] run the primitive is a plain passthrough;
//! inside one, every operation first goes through the checker (schedule
//! point, happens-before bookkeeping, decision recording) and the `std`
//! primitive is kept in sync so mixed model/non-model access still sees
//! a coherent value. All constructors are `const`, unlike real loom's,
//! so process-level statics keep working under `cfg(loom)`.

use crate::exec::{self, Registration};
use std::sync::{LockResult, PoisonError};

pub use std::sync::Arc;

pub mod atomic {
    //! Atomics whose loads/stores are modeled with per-location store
    //! histories: a `Relaxed` load inside the model may observe any
    //! coherence-legal stale store, not just the newest one.

    use super::exec;
    use super::Registration;
    pub use std::sync::atomic::Ordering;

    macro_rules! model_atomic {
        ($name:ident, $std:ident, $prim:ty) => {
            pub struct $name {
                std: std::sync::atomic::$std,
                reg: Registration,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self { std: std::sync::atomic::$std::new(v), reg: Registration::new() }
                }

                fn init(&self) -> u64 {
                    // Registration-time initial value: the std side holds
                    // the latest value whether or not a model is active.
                    self.std.load(Ordering::Relaxed) as u64
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    match exec::atomic_load(&self.reg, self.init(), order) {
                        Some(v) => v as $prim,
                        None => self.std.load(order),
                    }
                }

                pub fn store(&self, val: $prim, order: Ordering) {
                    if exec::atomic_store(&self.reg, self.init(), val as u64, order) {
                        // Only one model thread runs at a time, so this
                        // store is the modification-order tail.
                        self.std.store(val, Ordering::Relaxed);
                    } else {
                        self.std.store(val, order);
                    }
                }

                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    let f = move |x: u64| (x as $prim).wrapping_add(val) as u64;
                    match exec::atomic_rmw(&self.reg, self.init(), &f, order) {
                        Some(prev) => {
                            let prev = prev as $prim;
                            self.std.store(prev.wrapping_add(val), Ordering::Relaxed);
                            prev
                        }
                        None => self.std.fetch_add(val, order),
                    }
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    f.debug_tuple(stringify!($name))
                        .field(&self.std.load(Ordering::Relaxed))
                        .finish()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$prim>::default())
                }
            }
        };
    }

    model_atomic!(AtomicU8, AtomicU8, u8);
    model_atomic!(AtomicU32, AtomicU32, u32);
    model_atomic!(AtomicU64, AtomicU64, u64);
    model_atomic!(AtomicUsize, AtomicUsize, usize);

    pub struct AtomicBool {
        std: std::sync::atomic::AtomicBool,
        reg: Registration,
    }

    impl AtomicBool {
        pub const fn new(v: bool) -> Self {
            Self { std: std::sync::atomic::AtomicBool::new(v), reg: Registration::new() }
        }

        fn init(&self) -> u64 {
            self.std.load(Ordering::Relaxed) as u64
        }

        pub fn load(&self, order: Ordering) -> bool {
            match exec::atomic_load(&self.reg, self.init(), order) {
                Some(v) => v != 0,
                None => self.std.load(order),
            }
        }

        pub fn store(&self, val: bool, order: Ordering) {
            if exec::atomic_store(&self.reg, self.init(), val as u64, order) {
                self.std.store(val, Ordering::Relaxed);
            } else {
                self.std.store(val, order);
            }
        }

        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            let f = move |_: u64| val as u64;
            match exec::atomic_rmw(&self.reg, self.init(), &f, order) {
                Some(prev) => {
                    self.std.store(val, Ordering::Relaxed);
                    prev != 0
                }
                None => self.std.swap(val, order),
            }
        }
    }

    impl std::fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_tuple("AtomicBool").field(&self.std.load(Ordering::Relaxed)).finish()
        }
    }

    impl Default for AtomicBool {
        fn default() -> Self {
            Self::new(false)
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

pub struct Mutex<T: ?Sized> {
    reg: Registration,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Mutex<T> {
        Mutex { reg: Registration::new(), inner: std::sync::Mutex::new(t) }
    }

    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        if exec::mutex_lock(&self.reg) {
            // Model-level ownership is established; the std lock below
            // cannot contend with another *model* thread (only one runs
            // at a time and it would be model-blocked), only with
            // non-model threads of other tests, which is fine.
            let g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            Ok(MutexGuard { reg: Some(&self.reg), inner: Some(g) })
        } else {
            match self.inner.lock() {
                Ok(g) => Ok(MutexGuard { reg: None, inner: Some(g) }),
                Err(p) => {
                    Err(PoisonError::new(MutexGuard { reg: None, inner: Some(p.into_inner()) }))
                }
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    reg: Option<&'a Registration>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock first, then model-level ownership. No
        // other model thread can run between the two: control only
        // transfers at schedule points, and a model thread that raced
        // for the std lock here would already be model-blocked.
        drop(self.inner.take());
        if let Some(reg) = self.reg {
            exec::mutex_unlock(reg);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------------

pub struct RwLock<T: ?Sized> {
    reg: Registration,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(t: T) -> RwLock<T> {
        RwLock { reg: Registration::new(), inner: std::sync::RwLock::new(t) }
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
        if exec::rw_read_lock(&self.reg) {
            let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
            Ok(RwLockReadGuard { reg: Some(&self.reg), inner: Some(g) })
        } else {
            match self.inner.read() {
                Ok(g) => Ok(RwLockReadGuard { reg: None, inner: Some(g) }),
                Err(p) => Err(PoisonError::new(RwLockReadGuard {
                    reg: None,
                    inner: Some(p.into_inner()),
                })),
            }
        }
    }

    pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
        if exec::rw_write_lock(&self.reg) {
            let g = self.inner.write().unwrap_or_else(|e| e.into_inner());
            Ok(RwLockWriteGuard { reg: Some(&self.reg), inner: Some(g) })
        } else {
            match self.inner.write() {
                Ok(g) => Ok(RwLockWriteGuard { reg: None, inner: Some(g) }),
                Err(p) => Err(PoisonError::new(RwLockWriteGuard {
                    reg: None,
                    inner: Some(p.into_inner()),
                })),
            }
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    reg: Option<&'a Registration>,
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some(reg) = self.reg {
            exec::rw_read_unlock(reg);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    reg: Option<&'a Registration>,
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
}

impl<T: ?Sized> std::ops::Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present until drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present until drop")
    }
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some(reg) = self.reg {
            exec::rw_write_unlock(reg);
        }
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}
