//! Cooperative cancellation shared by every layer of the workspace.
//!
//! Several searches often run on the same problem: the restart shards of
//! one analysis, or the arms of a backend portfolio. As soon as one of them
//! finds a zero of the weak distance, the remaining searches are wasted
//! work; a [`CancelToken`] threaded into the optimization problem lets the
//! driver stop them at their next objective evaluation without any
//! backend-specific plumbing. The `fpir` interpreter
//! additionally polls its token *inside* the interpreter loop, so even a
//! single long-running interpreted execution stops promptly instead of
//! waiting for the next evaluation boundary.
//!
//! Tokens form a tree: [`CancelToken::child`] creates a token that can be
//! cancelled on its own but also observes every ancestor, so an engine can
//! cancel a whole campaign (root), one problem (inner node) or one shard
//! (leaf) with a single call.
//!
//! # Example
//!
//! ```
//! use fp_runtime::CancelToken;
//!
//! let campaign = CancelToken::new();
//! let shard = campaign.child();
//! assert!(!shard.is_cancelled());
//! campaign.cancel();
//! assert!(shard.is_cancelled(), "children observe ancestors");
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, cloneable cancellation flag checked by every backend at each
/// objective evaluation (and by the `fpir` interpreter between
/// instructions).
///
/// Clones share the same flag; [`CancelToken::child`] creates a dependent
/// token with its own flag. A default token is never cancelled unless
/// [`CancelToken::cancel`] is called on it (or an ancestor).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    flag: AtomicBool,
    parent: Option<CancelToken>,
}

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a token that is cancelled when either it or `self` (or any
    /// further ancestor) is cancelled.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Requests cancellation. Every clone and descendant observes it.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Returns `true` once `self` or any ancestor has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        match &self.inner.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_not_cancelled() {
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn child_cancellation_does_not_affect_parent_or_sibling() {
        let root = CancelToken::new();
        let a = root.child();
        let b = root.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!root.is_cancelled());
        assert!(!b.is_cancelled());
    }

    #[test]
    fn grandchildren_observe_the_root() {
        let root = CancelToken::new();
        let leaf = root.child().child();
        root.cancel();
        assert!(leaf.is_cancelled());
    }

    #[test]
    fn tokens_cross_threads() {
        let token = CancelToken::new();
        let seen = std::thread::scope(|s| {
            let t = token.clone();
            let h = s.spawn(move || {
                while !t.is_cancelled() {
                    std::thread::yield_now();
                }
                true
            });
            token.cancel();
            h.join().unwrap()
        });
        assert!(seen);
    }
}
