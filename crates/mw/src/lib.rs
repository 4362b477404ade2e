//! # shield5g-mw — the composable NF middleware stack
//!
//! The discrete-event engine (`shield5g-sim`) is a pure scheduler: a
//! binary heap, per-endpoint worker budgets, and the byte-exact event
//! trace. Everything cross-cutting that used to be welded into it or
//! copy-pasted across seven NFs — admission control, fault injection,
//! supervision retries, deadline shedding, span/metric recording — lives
//! here as [`Layer`]s composed around an
//! [`shield5g_sim::engine::EngineService`] by a [`Stack`]:
//!
//! ```ignore
//! let stack = Stack::new(service)
//!     .with(ObsLayer::new(core.clone()))        // outermost
//!     .with(DeadlineLayer::new(timeout))
//!     .with(AdmissionLayer::new(policy))
//!     .with(BreakerLayer::new(BreakerPolicy::default()))
//!     .with(FaultLayer::new(switch.clone()))
//!     .with(RetryLayer::new(RetryPolicy::supervision()));  // innermost
//! engine.register(addr, workers, stack.into_handle());
//! ```
//!
//! ## The layer contract
//!
//! A layer sees traffic twice per service segment, preserving the
//! engine's resumability:
//!
//! * **Inbound** — `on_request` (fresh request, outermost layer first)
//!   or `on_response` (a downstream response resuming a continuation).
//!   `on_response` may *break* the chain ([`Resume::Break`]) and
//!   substitute its own [`Step`] — a retry layer retransmits, a deadline
//!   layer abandons — in which case inner layers and the service never
//!   see the response.
//! * **Outbound** — `on_step`: the [`Step`] the service (or a breaking
//!   layer) produced traverses the layers it passed through inbound, in
//!   reverse (innermost first), on its way back to the scheduler.
//!
//! Around the segment methods, the scheduler's routing hooks
//! (`on_arrive`, `on_begin`, `request_fate`, ... — see
//! [`shield5g_sim::engine::EngineService`]) fan out across the stack:
//! admission gates short-circuit on the first [`Gate::Shed`], fates on
//! the first non-`Deliver`, notifications reach every layer.
//!
//! ## Ordering rules
//!
//! `.with()` adds layers outermost-first; order is behaviour, not style:
//!
//! * **Obs outermost** — it must count arrivals *before* admission sheds
//!   them and close spans around everything inner layers do.
//! * **Deadline outside Retry** — otherwise a retransmission can be
//!   issued for a request whose deadline already passed.
//! * **Admission outside Fault/Retry** — shed requests must not consult
//!   the fault plan or consume retry budget.
//! * **Admission outside Breaker, Breaker outside Fault/Retry** — the
//!   breaker gates what the service sends *out*; it must see outbound
//!   retransmissions (so an open circuit cuts retry storms off) but not
//!   inbound arrivals admission already shed.
//!
//! The canonical order is the snippet above. The permutation tests in
//! `tests/layers.rs` pin the observable differences.
//!
//! All layers uphold the determinism contract: virtual clock only,
//! randomness only from the seeded env RNG, `BTreeMap` state — this
//! crate is on shield5g-lint's DT trace path like the engine itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod breaker;
pub mod deadline;
pub mod fault;
pub mod obs;
pub mod retry;
pub mod stack;

pub use admission::{AdmissionLayer, ClassSheds, ClassShedsHandle};
pub use breaker::{
    BreakerCore, BreakerDecision, BreakerHandle, BreakerLayer, BreakerPolicy, BreakerState,
    BreakerStats, BreakerTransition,
};
pub use deadline::DeadlineLayer;
pub use fault::{FaultLayer, FaultSwitch};
pub use obs::{ObsCore, ObsCoreHandle, ObsLayer};
pub use retry::{retryable, RetryLayer, RetryPolicy, RetryStats, RetryStatsHandle};
pub use stack::{Layer, Resume, Stack};

// Re-exported so stack construction sites need only this crate plus the
// engine handle types.
pub use shield5g_sim::engine::{AdmissionPolicy, AdmissionStats, Gate};
