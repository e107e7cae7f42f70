//! A small blocking MPMC channel for coordinator/worker protocols.
//!
//! `em-serve`'s streaming matcher keeps its mutable state on a single
//! coordinator and ships work out / results back over these channels, so
//! that state itself never sits behind a lock. The channel is the only
//! shared structure, and it is a plain `Mutex<VecDeque>` + `Condvar` —
//! unbounded, FIFO, clonable on both ends.
//!
//! Closing: every sender dropped (or an explicit [`Sender::close`]) wakes
//! all blocked receivers, which then drain the remaining queue and get
//! `None`. This is the termination signal worker loops key off. The channel
//! also closes when every receiver is dropped, so a producer whose consumers
//! have all exited gets its value back as an `Err` instead of queueing into
//! the void.

use crate::stats;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};

struct ChannelState<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    closed: bool,
}

struct Channel<T> {
    state: Mutex<ChannelState<T>>,
    ready: Condvar,
}

/// The sending half of a [`channel`]. Cloning adds a sender; the channel
/// closes when all senders are dropped or any calls [`Sender::close`].
pub struct Sender<T> {
    inner: Arc<Channel<T>>,
}

/// The receiving half of a [`channel`]. Cloning adds a competing consumer
/// (MPMC: each item is delivered to exactly one receiver).
pub struct Receiver<T> {
    inner: Arc<Channel<T>>,
}

/// Create an unbounded FIFO channel.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Channel {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            closed: false,
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            inner: Arc::clone(&inner),
        },
        Receiver { inner },
    )
}

impl<T> Sender<T> {
    /// Enqueue a value, waking one blocked receiver. Returns the value back
    /// as an `Err` if the channel was already closed or every receiver has
    /// been dropped (nobody can ever consume it).
    pub fn send(&self, value: T) -> Result<(), T> {
        let mut st = self.inner.state.lock().unwrap();
        if st.closed || st.receivers == 0 {
            return Err(value);
        }
        st.queue.push_back(value);
        drop(st);
        if stats::enabled() {
            stats::CHANNEL_SENDS.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.ready.notify_one();
        Ok(())
    }

    /// Close the channel explicitly: receivers drain the queue, then see
    /// `None`. Idempotent.
    pub fn close(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.closed = true;
        drop(st);
        self.inner.ready.notify_all();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().senders += 1;
        Sender {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().unwrap();
        st.senders -= 1;
        if st.senders == 0 {
            st.closed = true;
            drop(st);
            self.inner.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a value is available (`Some`) or the channel is closed
    /// and drained (`None`).
    pub fn recv(&self) -> Option<T> {
        let mut st = self.inner.state.lock().unwrap();
        // Time only the blocking path, and only when stats are on: a recv
        // satisfied from the queue records a zero-cost hit, not a wait.
        let mut wait_start = 0u64;
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                if stats::enabled() {
                    stats::CHANNEL_RECVS.fetch_add(1, Ordering::Relaxed);
                    if wait_start != 0 {
                        stats::RECV_WAIT_NS.record(stats::now_ns().saturating_sub(wait_start));
                    }
                }
                return Some(v);
            }
            if st.closed {
                return None;
            }
            if wait_start == 0 && stats::enabled() {
                wait_start = stats::now_ns();
            }
            st = self.inner.ready.wait(st).unwrap();
        }
    }

    /// Non-blocking receive: `Some` if a value was queued, `None` otherwise
    /// (whether the channel is open or closed).
    pub fn try_recv(&self) -> Option<T> {
        let v = self.inner.state.lock().unwrap().queue.pop_front();
        if v.is_some() && stats::enabled() {
            stats::CHANNEL_RECVS.fetch_add(1, Ordering::Relaxed);
        }
        v
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.inner.state.lock().unwrap().receivers += 1;
        Receiver {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.inner.state.lock().unwrap();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Nobody can ever consume again: close so senders learn
            // immediately instead of queueing into the void, and drop any
            // undeliverable backlog.
            st.closed = true;
            st.queue.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_a_single_consumer() {
        let (tx, rx) = channel();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn drop_of_last_sender_closes() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(2).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_after_close_fails() {
        let (tx, rx) = channel();
        tx.close();
        assert_eq!(tx.send(7), Err(7));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn send_after_all_receivers_dropped_fails() {
        let (tx, rx) = channel();
        tx.send(1).unwrap();
        let rx2 = rx.clone();
        drop(rx);
        tx.send(2).unwrap();
        drop(rx2);
        assert_eq!(tx.send(3), Err(3));
        // Still failing on a second attempt (closed is sticky).
        assert_eq!(tx.send(4), Err(4));
    }

    #[test]
    fn blocked_recv_wakes_when_last_sender_drops() {
        let (tx, rx) = channel::<usize>();
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.recv());
            // Give the receiver a chance to block, then drop the only sender.
            std::thread::sleep(std::time::Duration::from_millis(10));
            drop(tx);
            assert_eq!(h.join().unwrap(), None);
        });
    }

    #[test]
    fn contended_mpmc_delivers_each_item_exactly_once() {
        // 8 producers x 8 consumers racing over one channel: every item must
        // come out exactly once, and per-producer order must be preserved
        // in the interleaved consumption (FIFO per queue implies per-sender
        // monotonicity of what any single consumer observes in aggregate).
        const PRODUCERS: usize = 8;
        const CONSUMERS: usize = 8;
        const PER_PRODUCER: usize = 500;
        let (tx, rx) = channel::<(usize, usize)>();
        let consumed: Vec<std::sync::Mutex<Vec<(usize, usize)>>> = (0..CONSUMERS)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();
        std::thread::scope(|s| {
            for sink in &consumed {
                let rx = rx.clone();
                s.spawn(move || {
                    while let Some(item) = rx.recv() {
                        sink.lock().unwrap().push(item);
                    }
                });
            }
            drop(rx);
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send((p, i)).unwrap();
                    }
                });
            }
            drop(tx);
        });
        let mut all: Vec<(usize, usize)> = consumed
            .iter()
            .flat_map(|m| m.lock().unwrap().clone())
            .collect();
        assert_eq!(all.len(), PRODUCERS * PER_PRODUCER);
        all.sort_unstable();
        let expected: Vec<(usize, usize)> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
            .collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn cross_thread_handoff_delivers_everything() {
        let (work_tx, work_rx) = channel::<usize>();
        let (res_tx, res_rx) = channel::<usize>();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let work_rx = work_rx.clone();
                let res_tx = res_tx.clone();
                s.spawn(move || {
                    while let Some(v) = work_rx.recv() {
                        res_tx.send(v * 2).unwrap();
                    }
                });
            }
            for i in 0..100 {
                work_tx.send(i).unwrap();
            }
            work_tx.close();
            drop(res_tx);
            let mut got: Vec<usize> = std::iter::from_fn(|| res_rx.recv()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        });
    }
}
