//! Cooperative cancellation: tokens shared between a run and its owner.
//!
//! A [`CancelToken`] is a cheap cloneable handle ([`Arc`] inside) created
//! by whoever owns a run — the service scheduler, a test, the simulation
//! harness — and threaded into the engine through
//! [`RunControl`](crate::RunControl). The engine polls it at every
//! superstep barrier and every few message batches inside `compute`, so a
//! cancelled run stops within one batch of work rather than one superstep.
//!
//! Three triggers end a run early:
//!
//! - **explicit cancel** ([`CancelToken::cancel`]) — a `cancel` request or
//!   a disconnected client; takes effect mid-superstep (*hard*: partial
//!   worker output is discarded, no checkpoint is possible);
//! - **wall-clock deadline** ([`CancelToken::with_timeout`]) — *hard* by
//!   default; *soft* when the caller requested checkpointing, in which
//!   case the engine finishes the superstep and captures the frontier at
//!   the barrier;
//! - **superstep deadline** ([`CancelToken::with_superstep_deadline`]) —
//!   always acts at the barrier before the named superstep runs, which
//!   makes it exactly reproducible; this is the trigger the deterministic
//!   simulation uses.
//!
//! However a run ends, the engine returns every pooled chunk before
//! reporting the outcome: the get/put balance assert holds on the
//! cancelled path exactly as on clean shutdown.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run was cancelled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The owner asked for cancellation (service `cancel` request).
    Explicit,
    /// The client connection that submitted the query went away.
    Disconnected,
    /// The wall-clock or superstep deadline passed.
    Deadline,
    /// The in-flight message volume exceeded the budget while
    /// checkpointing was enabled (instead of the hard
    /// [`BspError::MessageBudgetExceeded`](crate::BspError) abort).
    Budget,
    /// The scheduler's preemption barrier was reached: the run yielded
    /// its worker slot at a superstep boundary with a resumable frontier.
    /// Not an error — the owner resumes the run from the checkpoint.
    Preempted,
}

impl CancelReason {
    /// Stable wire name (used by the service protocol and stats).
    pub fn as_str(&self) -> &'static str {
        match self {
            CancelReason::Explicit => "explicit",
            CancelReason::Disconnected => "disconnected",
            CancelReason::Deadline => "deadline",
            CancelReason::Budget => "budget",
            CancelReason::Preempted => "preempted",
        }
    }
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

const REASON_NONE: u8 = 0;

fn reason_to_u8(r: CancelReason) -> u8 {
    match r {
        CancelReason::Explicit => 1,
        CancelReason::Disconnected => 2,
        CancelReason::Deadline => 3,
        CancelReason::Budget => 4,
        CancelReason::Preempted => 5,
    }
}

fn reason_from_u8(v: u8) -> Option<CancelReason> {
    match v {
        1 => Some(CancelReason::Explicit),
        2 => Some(CancelReason::Disconnected),
        3 => Some(CancelReason::Deadline),
        4 => Some(CancelReason::Budget),
        5 => Some(CancelReason::Preempted),
        _ => None,
    }
}

/// Sentinel for "no preemption barrier armed".
const PREEMPT_NONE: u32 = u32::MAX;

struct Inner {
    /// `REASON_NONE` until cancelled; then the encoded [`CancelReason`].
    /// A single atomic doubles as flag and reason so the first canceller
    /// wins without a lock.
    reason: AtomicU8,
    /// Wall-clock deadline, fixed at construction.
    deadline: Option<Instant>,
    /// Cancel at the barrier before this superstep runs (deterministic).
    superstep_deadline: Option<u32>,
    /// Yield at the barrier before this superstep runs, with a frontier
    /// capture regardless of the run's checkpoint flag. Re-armed between
    /// slices by the scheduler; `PREEMPT_NONE` means no barrier.
    preempt_barrier: AtomicU32,
}

/// Shared cancellation handle for one run. Clone it freely; all clones
/// observe the same state.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    fn build(deadline: Option<Instant>, superstep_deadline: Option<u32>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                reason: AtomicU8::new(REASON_NONE),
                deadline,
                superstep_deadline,
                preempt_barrier: AtomicU32::new(PREEMPT_NONE),
            }),
        }
    }

    /// A token with no deadline; only [`CancelToken::cancel`] ends the run.
    pub fn new() -> Self {
        Self::build(None, None)
    }

    /// A token whose wall-clock deadline is `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::build(Instant::now().checked_add(timeout), None)
    }

    /// A token that cancels at the barrier before superstep
    /// `superstep_deadline` would run — exactly reproducible, independent
    /// of wall time.
    pub fn with_superstep_deadline(superstep_deadline: u32) -> Self {
        Self::build(None, Some(superstep_deadline))
    }

    /// Requests cancellation with `reason`. The first call wins; later
    /// calls (and deadline upgrades) keep the original reason.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self.inner.reason.compare_exchange(
            REASON_NONE,
            reason_to_u8(reason),
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// Whether [`CancelToken::cancel`] has been called (deadlines are
    /// checked separately — see [`CancelToken::deadline_passed`]).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.inner.reason.load(Ordering::Relaxed) != REASON_NONE
    }

    /// The reason recorded by the first [`CancelToken::cancel`] call.
    pub fn reason(&self) -> Option<CancelReason> {
        reason_from_u8(self.inner.reason.load(Ordering::SeqCst))
    }

    /// Whether the wall-clock deadline (if any) has passed.
    #[inline]
    pub fn deadline_passed(&self) -> bool {
        self.inner.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deterministic superstep deadline, if configured.
    #[inline]
    pub fn superstep_deadline(&self) -> Option<u32> {
        self.inner.superstep_deadline
    }

    /// Arms the preemption barrier: the run yields (reason
    /// [`CancelReason::Preempted`], frontier captured) at the barrier
    /// before superstep `superstep` runs. Unlike a superstep deadline,
    /// the barrier is mutable — the scheduler re-arms it every slice —
    /// and the frontier is captured even when the run did not request
    /// checkpointing.
    pub fn set_preempt_barrier(&self, superstep: u32) {
        self.inner.preempt_barrier.store(superstep.min(PREEMPT_NONE - 1), Ordering::SeqCst);
    }

    /// Disarms the preemption barrier; the run continues to completion
    /// (or until another trigger fires).
    pub fn clear_preempt_barrier(&self) {
        self.inner.preempt_barrier.store(PREEMPT_NONE, Ordering::SeqCst);
    }

    /// The currently-armed preemption barrier, if any.
    #[inline]
    pub fn preempt_barrier(&self) -> Option<u32> {
        match self.inner.preempt_barrier.load(Ordering::SeqCst) {
            PREEMPT_NONE => None,
            v => Some(v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Disconnected);
        t.cancel(CancelReason::Explicit);
        assert!(t.is_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Disconnected));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel(CancelReason::Explicit);
        assert!(t.is_cancelled());
    }

    #[test]
    fn expired_timeout_is_observed() {
        let t = CancelToken::with_timeout(Duration::from_secs(0));
        assert!(t.deadline_passed());
        // A passed deadline is not an explicit cancel.
        assert!(!t.is_cancelled());
        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.deadline_passed());
    }

    #[test]
    fn superstep_deadline_is_exposed() {
        let t = CancelToken::with_superstep_deadline(3);
        assert_eq!(t.superstep_deadline(), Some(3));
        assert!(!t.deadline_passed());
        assert_eq!(CancelToken::new().superstep_deadline(), None);
    }

    #[test]
    fn preempt_barrier_arms_and_clears_across_clones() {
        let t = CancelToken::new();
        assert_eq!(t.preempt_barrier(), None);
        let u = t.clone();
        u.set_preempt_barrier(4);
        assert_eq!(t.preempt_barrier(), Some(4));
        // Re-arming moves the barrier; it is not first-write-wins.
        t.set_preempt_barrier(9);
        assert_eq!(u.preempt_barrier(), Some(9));
        t.clear_preempt_barrier();
        assert_eq!(u.preempt_barrier(), None);
        // A preempt barrier is not a cancel and not a deadline.
        assert!(!t.is_cancelled());
        assert!(!t.deadline_passed());
    }

    #[test]
    fn reasons_have_stable_wire_names() {
        for (r, s) in [
            (CancelReason::Explicit, "explicit"),
            (CancelReason::Disconnected, "disconnected"),
            (CancelReason::Deadline, "deadline"),
            (CancelReason::Budget, "budget"),
            (CancelReason::Preempted, "preempted"),
        ] {
            assert_eq!(r.as_str(), s);
            assert_eq!(r.to_string(), s);
        }
    }
}
