//! Cooperative deadlines for long compiles.
//!
//! A worker thread [`install`]s a deadline for the duration of one compile;
//! the expensive loops (the SA anneal, each dynamic-placement stage, the
//! scheduler emit loop) poll [`cancelled`], which turns true once that
//! deadline has passed. A positive poll unwinds as an explicit `Cancelled`
//! error through the normal `Result` path — no thread is ever killed, no
//! other thread is involved, and no partial output escapes.
//!
//! With no deadline installed (every direct CLI/bench compile, and every
//! served request without a budget) [`cancelled`] is one thread-local read
//! that never touches the clock, so the polls are free to leave in the hot
//! loops and compiler output stays bit-identical.

use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Installs `deadline` as the current thread's deadline until the returned
/// scope drops. Scopes nest: dropping restores whatever was installed
/// before, also when a panic unwinds through the scope.
pub fn install(deadline: Instant) -> DeadlineScope {
    DeadlineScope { previous: DEADLINE.replace(Some(deadline)) }
}

/// Guard returned by [`install`]; restores the previous thread-local
/// deadline (usually none) on drop.
pub struct DeadlineScope {
    previous: Option<Instant>,
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        DEADLINE.set(self.previous);
    }
}

/// Whether the current thread's installed deadline (if any) has passed.
/// Without a scope this is one thread-local read; inside one it adds a
/// clock read.
#[inline]
pub fn cancelled() -> bool {
    DEADLINE.get().is_some_and(|deadline| Instant::now() >= deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const HOUR: Duration = Duration::from_secs(3600);

    #[test]
    fn no_scope_is_never_cancelled() {
        assert!(!cancelled());
    }

    #[test]
    fn a_past_deadline_is_cancelled() {
        let _scope = install(Instant::now());
        assert!(cancelled());
    }

    #[test]
    fn a_future_deadline_is_not_cancelled() {
        let _scope = install(Instant::now() + HOUR);
        assert!(!cancelled());
    }

    #[test]
    fn nested_scopes_restore_the_outer_one() {
        {
            let _outer = install(Instant::now());
            {
                let _inner = install(Instant::now() + HOUR);
                assert!(!cancelled(), "the inner deadline shadows the passed outer one");
            }
            assert!(cancelled(), "the outer deadline is back after the inner scope");
        }
        assert!(!cancelled(), "every scope dropped: no deadline left");
    }

    #[test]
    fn a_scope_dropped_by_a_panic_leaves_no_deadline_behind() {
        let unwound = std::panic::catch_unwind(|| {
            let _scope = install(Instant::now());
            assert!(cancelled());
            panic!("compile panicked inside the scope");
        });
        assert!(unwound.is_err());
        // A stale deadline here would cancel the next job on this thread.
        assert!(!cancelled());
    }
}
