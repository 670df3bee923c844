#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for [`parking_lot`](https://crates.io/crates/parking_lot)
//! over `std::sync`, vendored so the workspace builds in network-less
//! environments. Provides the `Mutex`/`RwLock` subset used here, with
//! parking_lot's no-`Result` locking API (poisoning is swallowed: a
//! panicked holder does not poison the data for the next locker).

use std::sync::{Mutex as StdMutex, MutexGuard, RwLock as StdRwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock whose `lock()` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// A reader-writer lock whose acquisitions never fail.
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: StdRwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: StdRwLock::new(value),
        }
    }

    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
        assert_eq!(l.into_inner(), vec![1, 2]);
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(0));
        let c = m.clone();
        let _ = std::thread::spawn(move || {
            let _guard = c.lock();
            panic!("die while holding");
        })
        .join();
        *m.lock() += 1; // parking_lot semantics: no poisoning
        assert_eq!(*m.lock(), 1);
    }
}
