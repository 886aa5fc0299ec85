//! Thread-local cause attribution.
//!
//! The collection algorithms (`Session::run`, `position`, `explore`)
//! know *why* a probe is about to be sent; the prober that actually puts
//! it on the wire does not. Rather than threading attribution arguments
//! through the `Prober` trait (and every caching/borrowing wrapper
//! around it), the algorithms push the current [`Cause`] into a
//! thread-local scope and the prober's [`crate::Recorder`] reads it at
//! emit time. A probe's phase is its cause's ([`Cause::phase`]), so the
//! cause is the only attribution kept here.
//!
//! Scopes are RAII guards that restore the previous cause on drop, so
//! nesting (e.g. an in-use check inside pivot designation) works
//! naturally, and early returns cannot leak attribution into unrelated
//! probes. Everything is thread-local: parallel sessions on different
//! threads never see each other's attribution.

use std::cell::Cell;

use crate::event::Cause;

thread_local! {
    static CURRENT: Cell<Option<Cause>> = const { Cell::new(None) };
}

/// The cause of probes sent by the current thread right now.
pub(crate) fn current() -> Option<Cause> {
    CURRENT.with(Cell::get)
}

/// Enters a cause scope; probes sent until the guard drops are
/// attributed to `cause`, and to its phase.
pub fn cause_scope(cause: Cause) -> CauseScope {
    CauseScope { prev: CURRENT.with(|c| c.replace(Some(cause))) }
}

/// RAII guard restoring the previous cause on drop.
#[must_use = "attribution lasts only while the scope guard lives"]
pub struct CauseScope {
    prev: Option<Cause>,
}

impl Drop for CauseScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert_eq!(current(), None);
        {
            let _c = cause_scope(Cause::PivotDesignation);
            assert_eq!(current(), Some(Cause::PivotDesignation));
            {
                let _c2 = cause_scope(Cause::InUseCheck);
                assert_eq!(current(), Some(Cause::InUseCheck));
            }
            assert_eq!(current(), Some(Cause::PivotDesignation));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn scope_restores_across_unwind() {
        let result = std::panic::catch_unwind(|| {
            let _c = cause_scope(Cause::TraceCollection);
            panic!("unwind through the scope");
        });
        assert!(result.is_err());
        // The guard dropped during unwinding; no attribution leaked.
        assert_eq!(current(), None);
    }
}
