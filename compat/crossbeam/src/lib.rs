#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate, vendored so the workspace builds in network-less environments.
//! Provides `crossbeam::thread::scope` scoped threads over
//! `std::thread::scope`.

pub mod thread {
    //! Scoped threads with the crossbeam 0.8 calling convention: the
    //! spawn closure receives the scope (so threads can spawn siblings),
    //! and `scope` returns a `Result` carrying any child panic payload.

    use std::thread::ScopedJoinHandle;

    /// A scope handle passed to spawned closures.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread joined at scope exit. The closure receives
        /// the scope, so it may spawn further threads.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            inner.spawn(move || f(&Scope { inner }))
        }
    }

    /// Any panic payload propagated out of a scoped thread.
    pub type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

    /// Runs `f` with a scope in which threads borrowing from the
    /// environment may be spawned; all are joined before `scope`
    /// returns. Returns `Err` with the first panic payload if any
    /// spawned thread panicked.
    pub fn scope<'env, F, R>(f: F) -> Result<R, PanicPayload>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }

    #[cfg(test)]
    mod tests {
        use std::sync::atomic::{AtomicU32, Ordering};

        #[test]
        fn threads_share_borrowed_state_and_join() {
            let counter = AtomicU32::new(0);
            let out = super::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
                }
                7
            })
            .unwrap();
            assert_eq!(out, 7);
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        }

        #[test]
        fn child_panics_surface_as_err() {
            let r = super::scope(|s| {
                s.spawn(|_| panic!("child died"));
            });
            assert!(r.is_err());
        }

        #[test]
        fn nested_spawns_work() {
            let counter = AtomicU32::new(0);
            super::scope(|s| {
                s.spawn(|s2| {
                    s2.spawn(|_| counter.fetch_add(1, Ordering::Relaxed));
                });
            })
            .unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 1);
        }
    }
}
