//! Structured event log: the world's one transcript.
//!
//! Records what happened on the virtual timeline — AKA steps, enclave
//! transitions, attacker actions, and the engine's scheduler decisions
//! (category [`crate::engine::TRACE_CATEGORY`]) — for debugging,
//! assertions in tests, and the narrative output of the examples.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One logged event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// When the event happened on the virtual timeline.
    pub at: SimTime,
    /// Component category, e.g. `"aka"`, `"enclave"`, `"attacker"`.
    pub category: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// An append-only event log with an on/off switch.
///
/// Recording starts off, so a long run keeps no transcript and pays
/// nothing for one: [`EventLog::record`] takes its message as
/// [`fmt::Arguments`] and formats it only while the log is enabled.
/// Readers of the transcript call [`EventLog::enable`] first.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Vec<Event>,
    enabled: bool,
}

impl EventLog {
    /// Creates an empty, disabled log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stops recording (already-recorded events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Starts (or resumes) recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records an event; while disabled, a no-op that never formats
    /// `message`.
    pub fn record(&mut self, at: SimTime, category: &'static str, message: fmt::Arguments<'_>) {
        if self.enabled {
            self.events.push(Event {
                at,
                category,
                message: fmt::format(message),
            });
        }
    }

    /// All recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events in a given category.
    pub fn in_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.category == category)
    }

    /// Whether any event message in `category` contains `needle`.
    #[must_use]
    pub fn contains(&self, category: &str, needle: &str) -> bool {
        self.in_category(category)
            .any(|e| e.message.contains(needle))
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn enabled() -> EventLog {
        let mut log = EventLog::new();
        log.enable();
        log
    }

    #[test]
    fn records_in_order() {
        let mut log = enabled();
        log.record(SimTime::from_nanos(1), "aka", format_args!("start"));
        log.record(SimTime::from_nanos(2), "aka", format_args!("finish"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.events()[0].message, "start");
    }

    #[test]
    fn category_filter() {
        let mut log = enabled();
        log.record(SimTime::ZERO, "aka", format_args!("challenge"));
        log.record(SimTime::ZERO, "enclave", format_args!("eenter"));
        assert_eq!(log.in_category("enclave").count(), 1);
        assert!(log.contains("aka", "chall"));
        assert!(!log.contains("aka", "eenter"));
    }

    #[test]
    fn disable_suppresses_recording() {
        let mut log = EventLog::new();
        log.record(SimTime::ZERO, "a", format_args!("dropped"));
        assert!(log.is_empty());
        log.enable();
        log.record(SimTime::ZERO, "a", format_args!("kept"));
        log.disable();
        log.record(SimTime::ZERO, "a", format_args!("dropped"));
        assert_eq!(log.len(), 1);
        log.enable();
        log.record(SimTime::ZERO, "a", format_args!("kept2"));
        assert_eq!(log.len(), 2);
    }

    /// Counts how often it is formatted.
    struct Counted<'a>(&'a Cell<u32>);

    impl fmt::Display for Counted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.set(self.0.get() + 1);
            f.write_str("x")
        }
    }

    #[test]
    fn disabled_log_never_formats() {
        let formatted = Cell::new(0);
        let mut log = EventLog::new();
        log.record(SimTime::ZERO, "a", format_args!("{}", Counted(&formatted)));
        assert_eq!(formatted.get(), 0);
        log.enable();
        log.record(SimTime::ZERO, "a", format_args!("{}", Counted(&formatted)));
        assert_eq!(formatted.get(), 1);
        assert_eq!(log.events()[0].message, "x");
    }

    #[test]
    fn empty_log() {
        assert!(EventLog::new().is_empty());
    }
}
