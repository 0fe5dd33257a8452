//! The bounded work queue: a Mutex/Condvar MPMC channel with explicit
//! backpressure and a close-for-drain protocol. Pushes never block; only
//! the daemon's workers wait on it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
pub(crate) enum PushError<T> {
    /// The queue is at capacity; the item is handed back. Socket clients
    /// surface this as a `queue-full` admission reply. The spool pump
    /// checks [`WorkQueue::has_room`] before it claims a file, so it meets
    /// this only when a socket push takes the last slot in between: it
    /// then holds the claimed request and retries it on its next scan,
    /// before claiming anything else.
    Full(T),
    /// The queue was closed for drain; nothing is admitted anymore.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    /// False once the drain began: pushes fail, pops return the
    /// remaining items and then `None`.
    accepting: bool,
}

/// A bounded MPMC queue. Capacity is fixed at construction (already
/// clamped to at least 1 by [`ServeConfig::clamped`](crate::ServeConfig)).
pub(crate) struct WorkQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Wakes idle workers: one per push, all on close. Workers are the
    /// only threads that wait on it, so a notification always reaches a
    /// thread that can pop.
    ready: Condvar,
    capacity: usize,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                accepting: true,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking; refuses when full or closed.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock");
        if !inner.accepting {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues, blocking while the queue is empty but open. `None`
    /// means the queue closed and fully drained — the worker's exit
    /// signal.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if !inner.accepting {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock");
        }
    }

    /// Closes the queue for the drain: pushes fail from now on, pops
    /// drain the backlog and then return `None`.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock").accepting = false;
        self.ready.notify_all();
    }

    /// Items currently waiting (not counting in-flight work).
    pub(crate) fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock").items.len()
    }

    /// True when a `try_push` would be admitted right now.
    pub(crate) fn has_room(&self) -> bool {
        let inner = self.inner.lock().expect("queue lock");
        inner.accepting && inner.items.len() < self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_is_enforced_and_pops_free_slots() {
        let queue = WorkQueue::new(2);
        queue.try_push(1).ok().unwrap();
        queue.try_push(2).ok().unwrap();
        let Err(PushError::Full(3)) = queue.try_push(3) else {
            panic!("expected Full");
        };
        assert_eq!(queue.depth(), 2);
        assert!(!queue.has_room());
        assert_eq!(queue.pop(), Some(1));
        assert!(queue.has_room());
        queue.try_push(3).ok().unwrap();
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let queue = WorkQueue::new(4);
        queue.try_push("a").ok().unwrap();
        queue.close();
        let Err(PushError::Closed("b")) = queue.try_push("b") else {
            panic!("expected Closed");
        };
        assert_eq!(queue.pop(), Some("a"));
        assert_eq!(queue.pop(), None);
        assert_eq!(queue.pop(), None, "stays closed");
    }
}
