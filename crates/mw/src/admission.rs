//! [`AdmissionLayer`]: bounded-queue and queueing-deadline shedding,
//! extracted verbatim from the engine's old per-endpoint bookkeeping —
//! now priority-aware: emergency registrations (TS 23.501 §5.16.4) are
//! shed only when capacity is truly exhausted, while normal traffic is
//! shed early at `capacity - emergency_headroom` so overload degrades
//! the classes at different rates instead of uniformly.
//!
//! The layer owns its counters and publishes them through one shared
//! [`AdmissionStatsHandle`]; the scheduler knows nothing of admission.

use crate::stack::Layer;
use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_sim::engine::{AdmissionPolicy, Gate, LegMeta, PriorityClass, SHED_HEADER};
use shield5g_sim::http::HttpResponse;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-class shed counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassSheds {
    /// Normal-class arrivals shed (queue-full or deadline).
    pub normal: u64,
    /// Emergency-class arrivals shed.
    pub emergency: u64,
}

/// Everything one [`AdmissionLayer`] counts at its endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Arrivals refused because the bounded queue was full.
    pub shed_full: u64,
    /// Waiters refused because their queueing delay exceeded the
    /// admission deadline.
    pub shed_deadline: u64,
    /// Peak in-flight depth (serving + waiting) seen at the endpoint.
    pub depth_peak: usize,
    /// Both kinds of shed, split by priority class.
    pub class_sheds: ClassSheds,
}

/// Shared handle to one layer's [`AdmissionStats`] (clone it to read
/// the counters after a run).
pub type AdmissionStatsHandle = Rc<RefCell<AdmissionStats>>;

/// Enforces an [`AdmissionPolicy`] at the endpoint's door: arrivals
/// beyond `capacity` are shed immediately with a 503 (`x-sim-shed:
/// queue-full`, no worker consumed), and admitted requests whose FIFO
/// wait exceeded `deadline` by the time a worker frees up are shed at
/// begin (503, `x-sim-shed: deadline`) — the caller's supervision timer
/// has long expired, serving them would only waste the worker.
///
/// With a non-zero `emergency_headroom`, the last `headroom` queue slots
/// are reserved for [`PriorityClass::Emergency`] legs: normal arrivals
/// shed once depth reaches `capacity - headroom`, emergency arrivals are
/// admitted until depth reaches the full `capacity`. Headroom zero (the
/// default) reproduces the classless behavior bit-for-bit.
///
/// Counts sheds and the peak in-flight depth into the handle returned by
/// [`AdmissionLayer::stats_handle`].
#[derive(Debug, Default)]
pub struct AdmissionLayer {
    policy: AdmissionPolicy,
    emergency_headroom: usize,
    stats: AdmissionStatsHandle,
}

impl AdmissionLayer {
    /// A layer enforcing `policy` (the default policy is unbounded — an
    /// always-admit layer that still tracks depth).
    #[must_use]
    pub fn new(policy: AdmissionPolicy) -> Self {
        AdmissionLayer {
            policy,
            emergency_headroom: 0,
            stats: AdmissionStatsHandle::default(),
        }
    }

    /// A layer reserving the top `headroom` capacity slots for
    /// emergency-class arrivals.
    #[must_use]
    pub fn with_priority(policy: AdmissionPolicy, headroom: usize) -> Self {
        AdmissionLayer {
            emergency_headroom: headroom,
            ..Self::new(policy)
        }
    }

    /// The shared counter handle (clone to read after a run).
    #[must_use]
    pub fn stats_handle(&self) -> AdmissionStatsHandle {
        self.stats.clone()
    }

    /// The capacity ceiling `class` arrivals are admitted under.
    fn capacity_for(&self, class: PriorityClass) -> Option<usize> {
        self.policy.capacity.map(|cap| match class {
            PriorityClass::Emergency => cap,
            PriorityClass::Normal => cap.saturating_sub(self.emergency_headroom),
        })
    }

    /// Counts one shed against the leg's priority class.
    fn count_class_shed(&self, leg: &LegMeta) {
        let sheds = &mut self.stats.borrow_mut().class_sheds;
        let label = match leg.class {
            PriorityClass::Normal => {
                sheds.normal += 1;
                labels::SHED_NORMAL
            }
            PriorityClass::Emergency => {
                sheds.emergency += 1;
                labels::SHED_EMERGENCY
            }
        };
        obs::count(&leg.dest, &leg.path, label, 1);
    }
}

impl Layer for AdmissionLayer {
    fn on_arrive(&mut self, _env: &mut Env, leg: &LegMeta, depth: usize) -> Gate {
        if let Some(cap) = self.capacity_for(leg.class) {
            if depth >= cap {
                self.stats.borrow_mut().shed_full += 1;
                obs::count(&leg.dest, &leg.path, labels::SHED_QUEUE_FULL, 1);
                self.count_class_shed(leg);
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission queue full")
                        .with_header(SHED_HEADER, "queue-full"),
                    note: "shed-full",
                };
            }
        }
        Gate::Admit
    }

    fn on_admitted(&mut self, _env: &mut Env, _leg: &LegMeta, depth: usize) {
        let mut stats = self.stats.borrow_mut();
        stats.depth_peak = stats.depth_peak.max(depth);
    }

    fn on_begin(&mut self, _env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        if self.policy.deadline.is_some_and(|d| waited > d) {
            self.stats.borrow_mut().shed_deadline += 1;
            obs::count(&leg.dest, &leg.path, labels::SHED_DEADLINE, 1);
            self.count_class_shed(leg);
            return Gate::Shed {
                resp: HttpResponse::error(503, "admission deadline exceeded")
                    .with_header(SHED_HEADER, "deadline"),
                note: "shed-deadline",
            };
        }
        Gate::Admit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shield5g_sim::time::SimTime;

    fn leg_with_class(class: PriorityClass) -> LegMeta {
        LegMeta {
            id: 1,
            dest: "eudm.oai".into(),
            path: "/p".into(),
            submitted: SimTime::from_nanos(0),
            arrived: SimTime::from_nanos(0),
            root: true,
            class,
        }
    }

    fn bounded(capacity: usize, headroom: usize) -> AdmissionLayer {
        AdmissionLayer::with_priority(
            AdmissionPolicy {
                capacity: Some(capacity),
                deadline: None,
            },
            headroom,
        )
    }

    #[test]
    fn normal_sheds_at_reduced_capacity() {
        let mut env = Env::new(1);
        let mut layer = bounded(10, 2);
        // Depth 8 = capacity minus headroom: normal is shed...
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Normal), 8);
        assert!(matches!(gate, Gate::Shed { .. }));
        // ...while emergency still has the reserved slots.
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 8);
        assert!(matches!(gate, Gate::Admit));
        let stats = *layer.stats_handle().borrow();
        assert_eq!(
            stats.class_sheds,
            ClassSheds {
                normal: 1,
                emergency: 0
            }
        );
        assert_eq!((stats.shed_full, stats.shed_deadline), (1, 0));
    }

    #[test]
    fn emergency_sheds_only_at_full_capacity() {
        let mut env = Env::new(1);
        let mut layer = bounded(10, 2);
        let gate = layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 10);
        assert!(matches!(gate, Gate::Shed { .. }));
        assert_eq!(layer.stats_handle().borrow().class_sheds.emergency, 1);
    }

    #[test]
    fn zero_headroom_treats_classes_identically() {
        let mut env = Env::new(1);
        let mut layer = bounded(4, 0);
        for class in [PriorityClass::Normal, PriorityClass::Emergency] {
            assert!(matches!(
                layer.on_arrive(&mut env, &leg_with_class(class), 3),
                Gate::Admit
            ));
            assert!(matches!(
                layer.on_arrive(&mut env, &leg_with_class(class), 4),
                Gate::Shed { .. }
            ));
        }
    }

    #[test]
    fn headroom_larger_than_capacity_saturates() {
        let mut env = Env::new(1);
        let mut layer = bounded(2, 8);
        // Normal capacity saturates at zero: everything normal sheds.
        assert!(matches!(
            layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Normal), 0),
            Gate::Shed { .. }
        ));
        assert!(matches!(
            layer.on_arrive(&mut env, &leg_with_class(PriorityClass::Emergency), 0),
            Gate::Admit
        ));
    }
}
