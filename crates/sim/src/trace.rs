//! Optional message tracing for debugging and white-box tests.

use crate::faults::DropCause;
use crate::id::NodeId;

/// One traced message delivery (or drop).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Round in which the message was sent.
    pub round: u64,
    /// Sender.
    pub src: NodeId,
    /// Receiver.
    pub dst: NodeId,
    /// Pointers carried.
    pub pointers: usize,
    /// Why fault injection discarded the message (`None` = delivered).
    pub dropped: Option<DropCause>,
}

/// A bounded in-memory message trace.
///
/// Disabled by default; when enabled on the engine it records every send
/// up to a capacity limit, after which further events are counted but not
/// stored (so a runaway protocol cannot exhaust memory through its own
/// debugging aid).
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    overflow: u64,
}

impl Trace {
    /// Creates a trace holding at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            events: Vec::new(),
            capacity,
            overflow: 0,
        }
    }

    /// Records an event (or bumps the overflow counter at capacity).
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.overflow += 1;
        }
    }

    /// Adds events that were observed but not stored (used when folding
    /// per-worker trace fragments whose local buffers overflowed).
    pub(crate) fn add_overflow(&mut self, count: u64) {
        self.overflow += count;
    }

    /// The configured event capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The recorded events, in send order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that arrived after the trace filled up.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Events sent in a given round.
    pub fn in_round(&self, round: u64) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.round == round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> TraceEvent {
        TraceEvent {
            round,
            src: NodeId::new(0),
            dst: NodeId::new(1),
            pointers: 0,
            dropped: None,
        }
    }

    #[test]
    fn records_until_capacity_then_counts() {
        let mut t = Trace::with_capacity(2);
        t.record(ev(0));
        t.record(ev(0));
        t.record(ev(1));
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.overflow(), 1);
    }

    #[test]
    fn in_round_filters() {
        let mut t = Trace::with_capacity(10);
        t.record(ev(0));
        t.record(ev(1));
        t.record(ev(1));
        assert_eq!(t.in_round(1).count(), 2);
        assert_eq!(t.in_round(2).count(), 0);
    }
}
