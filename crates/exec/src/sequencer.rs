//! The ordered-claim sequencer: the orchestrator's one scheduling
//! primitive.
//!
//! Workers claim positions `0..total` in ascending order from one shared
//! counter. A claimed position `p` may only *start* once
//! `p < base + cap`; its finished result goes into slot `p % cap`. The
//! single consumer takes slot `base`, advances `base`, and so receives
//! results in exactly position order.
//!
//! The window is both the in-flight cap and the reorder buffer: at most
//! `cap` positions are ever claimed-and-admitted but not yet taken, so at
//! most `cap` results are buffered, whatever the worker count and however
//! uneven the per-position cost.
//!
//! Liveness needs no timeout. Claims are ascending, so every position
//! below the claim counter is held by some worker, and the lowest untaken
//! one, `base`, is inside the window for any `cap >= 1`. Its holder never
//! waits; once it puts, the consumer takes it and advances `base`, which
//! admits the next-lowest holder in turn. [`Sequencer::close`] is the one
//! shutdown signal: it wakes every waiter, fails pending and future
//! claims, and ends [`Sequencer::take`] once the buffered prefix drains.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State<R> {
    /// Lowest position not yet taken.
    base: usize,
    /// `slots[p % cap]` holds position `p`'s result, for
    /// `base <= p < base + cap`.
    slots: Vec<Option<R>>,
    closed: bool,
}

/// Hands positions `0..total` to workers in ascending order and their
/// results to one consumer in the same order, with at most `cap` in
/// flight.
pub struct Sequencer<R> {
    total: usize,
    cap: usize,
    next: AtomicUsize,
    state: Mutex<State<R>>,
    /// Signalled when `base` advances or the sequencer closes.
    admitted: Condvar,
    /// Signalled when slot `base` fills or the sequencer closes.
    filled: Condvar,
}

impl<R> Sequencer<R> {
    /// Creates a sequencer over positions `0..total` with at most `cap`
    /// in flight (`cap` is clamped to `1..=total`; 1 is strict serial
    /// order).
    pub fn new(total: usize, cap: usize) -> Self {
        let cap = cap.clamp(1, total.max(1));
        Sequencer {
            total,
            cap,
            next: AtomicUsize::new(0),
            state: Mutex::new(State {
                base: 0,
                slots: (0..cap).map(|_| None).collect(),
                closed: false,
            }),
            admitted: Condvar::new(),
            filled: Condvar::new(),
        }
    }

    // No user code runs under the lock, so a poisoned lock still guards
    // consistent state; recovering it lets `close` run during an unwind.
    fn lock(&self) -> MutexGuard<'_, State<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next position and waits until it is inside the window.
    /// Returns `None` once every position is claimed or the sequencer is
    /// closed. The caller must [`put`](Sequencer::put) a result for every
    /// position it is given.
    pub fn claim(&self) -> Option<usize> {
        let pos = self.next.fetch_add(1, Ordering::Relaxed);
        if pos >= self.total {
            return None;
        }
        let mut state = self.lock();
        while pos >= state.base + self.cap && !state.closed {
            state = self
                .admitted
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        (!state.closed).then_some(pos)
    }

    /// Stores the result for a claimed position. Dropped if the sequencer
    /// is closed.
    pub fn put(&self, pos: usize, result: R) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        assert!(
            pos >= state.base && pos < state.base + self.cap,
            "put for position {pos} outside the window at base {}",
            state.base
        );
        state.slots[pos % self.cap] = Some(result);
        let at_base = pos == state.base;
        drop(state);
        if at_base {
            self.filled.notify_one();
        }
    }

    /// Waits for the result at `base`, takes it and advances `base`.
    /// Returns `None` once all `total` results are taken, or once the
    /// sequencer is closed and the next result is missing.
    pub fn take(&self) -> Option<(usize, R)> {
        let mut state = self.lock();
        loop {
            if state.base == self.total {
                return None;
            }
            let pos = state.base;
            if let Some(result) = state.slots[pos % self.cap].take() {
                state.base += 1;
                drop(state);
                self.admitted.notify_all();
                return Some((pos, result));
            }
            if state.closed {
                return None;
            }
            state = self
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the sequencer and wakes every waiter.
    pub fn close(&self) {
        self.lock().closed = true;
        self.admitted.notify_all();
        self.filled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn results_come_out_in_position_order_despite_reversed_puts() {
        let seq = Sequencer::new(4, 4);
        let claimed: Vec<usize> = std::iter::from_fn(|| seq.claim()).collect();
        assert_eq!(claimed, [0, 1, 2, 3]);
        for &pos in claimed.iter().rev() {
            seq.put(pos, pos * 10);
        }
        let taken: Vec<_> = std::iter::from_fn(|| seq.take()).collect();
        assert_eq!(taken, [(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn an_empty_sequencer_ends_at_once() {
        let seq = Sequencer::<()>::new(0, 0);
        assert_eq!(seq.claim(), None);
        assert_eq!(seq.take(), None);
    }

    #[test]
    fn claim_outside_the_window_waits_for_take() {
        let seq = Sequencer::new(3, 1);
        assert_eq!(seq.claim(), Some(0));
        let admitted = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(seq.claim(), Some(1));
                admitted.store(true, Ordering::SeqCst);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert!(
                !admitted.load(Ordering::SeqCst),
                "cap 1 admits one position"
            );
            seq.put(0, 'a');
            assert_eq!(seq.take(), Some((0, 'a')));
        });
        assert!(admitted.load(Ordering::SeqCst));
    }

    #[test]
    fn close_wakes_waiters_and_drains_the_buffered_prefix() {
        let seq = Sequencer::new(5, 2);
        assert_eq!(seq.claim(), Some(0));
        assert_eq!(seq.claim(), Some(1));
        std::thread::scope(|s| {
            let parked = s.spawn(|| seq.claim());
            std::thread::sleep(Duration::from_millis(10));
            seq.put(0, 0u8);
            seq.close();
            assert_eq!(
                parked.join().unwrap(),
                None,
                "close must fail a parked claim"
            );
        });
        seq.put(1, 1);
        assert_eq!(seq.take(), Some((0, 0)));
        assert_eq!(seq.take(), None, "position 1 was put after close");
        assert_eq!(seq.claim(), None);
    }

    /// Liveness at the tightest window: eight threads claim from a cap-1
    /// sequencer, so at any moment seven of them are parked outside the
    /// window at once. Ascending claims mean the one holding `base` is
    /// always admitted, so the pool drains with no timeout, and the
    /// consumer still sees every position exactly once, in order.
    #[test]
    fn simultaneous_group_stall_drains_without_deadlock() {
        const WORKERS: usize = 8;
        const POSITIONS: usize = 64;
        let seq = Sequencer::new(POSITIONS, 1);
        let (done, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            std::thread::scope(|s| {
                for _ in 0..WORKERS {
                    s.spawn(|| {
                        while let Some(pos) = seq.claim() {
                            std::thread::yield_now();
                            seq.put(pos, pos);
                        }
                    });
                }
                let taken: Vec<(usize, usize)> = std::iter::from_fn(|| seq.take()).collect();
                done.send(taken).unwrap();
            });
        });
        let taken = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("cap-1 sequencer deadlocked under a group-wide stall");
        let want: Vec<(usize, usize)> = (0..POSITIONS).map(|p| (p, p)).collect();
        assert_eq!(taken, want);
    }
}
