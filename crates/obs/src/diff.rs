//! First-divergence alignment of two trace streams.
//!
//! The differential harness runs the same program on two engines that
//! must agree event-for-event (the batched dense engine vs the naive
//! per-cycle engine), captures both streams, and asks: *where is the
//! first event at which they disagree?* The answer — index, cycle,
//! tile, and a window of the common prefix for context — turns an
//! end-of-run counter mismatch into a localized, debuggable failure.

use std::fmt;

use crate::trace::TraceEvent;

/// How many trailing common-prefix events a [`Divergence`] keeps for
/// context.
pub const CONTEXT_EVENTS: usize = 5;

/// The first point at which two streams disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index into both streams of the first disagreement.
    pub index: usize,
    /// The event on the left stream, `None` if it ended early.
    pub left: Option<TraceEvent>,
    /// The event on the right stream, `None` if it ended early.
    pub right: Option<TraceEvent>,
    /// Up to [`CONTEXT_EVENTS`] common events immediately before the
    /// divergence, oldest first.
    pub context: Vec<TraceEvent>,
}

impl Divergence {
    /// The cycle stamp of the divergent event (left stream preferred).
    #[must_use]
    pub fn cycle(&self) -> Option<u64> {
        self.left
            .as_ref()
            .or(self.right.as_ref())
            .map(TraceEvent::cycle)
    }

    /// The tile/channel identity of the divergent event, if it has one.
    #[must_use]
    pub fn entity(&self) -> Option<u64> {
        self.left
            .as_ref()
            .or(self.right.as_ref())
            .and_then(TraceEvent::entity)
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "streams diverge at event #{}", self.index)?;
        if let Some(cycle) = self.cycle() {
            write!(f, "  first divergent event: cycle {cycle}")?;
            if let Some(tile) = self.entity() {
                write!(f, ", tile/channel {tile}")?;
            }
            writeln!(f)?;
        }
        if !self.context.is_empty() {
            writeln!(f, "  last {} common events:", self.context.len())?;
            for e in &self.context {
                writeln!(f, "    = {e}")?;
            }
        }
        match &self.left {
            Some(e) => writeln!(f, "    < {e}")?,
            None => writeln!(f, "    < (stream ended)")?,
        }
        match &self.right {
            Some(e) => writeln!(f, "    > {e}")?,
            None => writeln!(f, "    > (stream ended)")?,
        }
        Ok(())
    }
}

/// Finds the first index at which the two streams disagree (including
/// one ending before the other). `None` means they are identical.
#[must_use]
pub fn first_divergence(left: &[TraceEvent], right: &[TraceEvent]) -> Option<Divergence> {
    let common = left.len().min(right.len());
    let index = (0..common)
        .find(|&i| left[i] != right[i])
        .or_else(|| (left.len() != right.len()).then_some(common))?;
    Some(Divergence {
        index,
        left: left.get(index).cloned(),
        right: right.get(index).cloned(),
        context: left[index.saturating_sub(CONTEXT_EVENTS)..index].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EngineMode;

    fn ev(cycle: u64, tile: u32) -> TraceEvent {
        TraceEvent::Retire {
            cycle,
            tile,
            thread: 0,
            op: "Add".to_owned(),
            pc: cycle * 4,
        }
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a = vec![ev(1, 0), ev(2, 3)];
        assert_eq!(first_divergence(&a, &a.clone()), None);
        assert_eq!(first_divergence(&[], &[]), None);
    }

    #[test]
    fn finds_first_mismatch_with_context() {
        let a: Vec<_> = (0..10).map(|i| ev(i, 0)).collect();
        let mut b = a.clone();
        b[7] = ev(7, 4);
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.index, 7);
        assert_eq!(d.cycle(), Some(7));
        assert_eq!(d.entity(), Some(0));
        assert_eq!(d.context.len(), CONTEXT_EVENTS);
        assert_eq!(d.context.last(), Some(&ev(6, 0)));
        let text = d.to_string();
        assert!(text.contains("event #7"), "{text}");
        assert!(text.contains("cycle 7"), "{text}");
    }

    #[test]
    fn truncation_counts_as_divergence() {
        let a = vec![ev(1, 0), ev(2, 1)];
        let b = vec![ev(1, 0)];
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.index, 1);
        assert_eq!(d.left, Some(ev(2, 1)));
        assert_eq!(d.right, None);
        assert!(d.to_string().contains("(stream ended)"));
    }

    #[test]
    fn engine_events_without_entity_still_report_cycle() {
        let a = vec![TraceEvent::Engine {
            cycle: 42,
            mode: EngineMode::Dense,
        }];
        let d = first_divergence(&a, &[]).unwrap();
        assert_eq!(d.cycle(), Some(42));
        assert_eq!(d.entity(), None);
    }
}
