//! The deterministic discrete-event simulation engine.
//!
//! Every network call in a simulated world is an *event* on a single
//! binary-heap queue keyed by `(virtual_time, seq)` — the sequence number
//! breaks ties deterministically, so two runs with the same seed replay
//! the exact same event order. Services run as resumable request
//! contexts: a handler that needs a downstream SBI call returns
//! [`Step::CallOut`] and yields back to the scheduler instead of
//! recursing, and the engine resumes it when the response event fires.
//!
//! Concurrency is *mechanistic*, not analytic: each endpoint holds a
//! fixed pool of worker threads (for an enclave module, `sgx.max_threads`
//! minus Gramine's helper threads). A busy worker charges its enclave
//! transitions and crypto time exclusively on its own context's timeline
//! — the engine rewinds the shared [`crate::clock::Clock`] to each
//! event's timestamp before running it — and excess arrivals wait in the
//! endpoint's FIFO. Queueing delay, the Fig. 8 thread sweep, and
//! admission shedding all emerge from event ordering.
//!
//! The engine itself is a *pure scheduler*: the heap, the context table
//! and per-endpoint worker budgets, nothing else. Cross-cutting
//! per-endpoint concerns — admission control and its counters, fault
//! injection, observability, retries, deadlines — live in middleware
//! layers (the `shield5g-mw` crate) stacked around each registered
//! service. The scheduler exposes the seams those layers need as
//! default-no-op [`EngineService`] hooks (`on_arrive`, `on_begin`,
//! `request_fate`, `response_fate`, ...): a bare service scheduled
//! directly behaves exactly like one wrapped in an empty stack, and a
//! hook that declines to act is byte-invisible in the trace.
//!
//! # The event trace
//!
//! Each scheduler decision is one note in the world's transcript,
//! `env.log`, under [`TRACE_CATEGORY`]: `<kind> <endpoint> <detail>` at
//! the event's virtual instant. The log starts disabled, so a run that
//! never calls `env.log.enable()` formats and keeps nothing.
//! [`trace_lines`] renders the notes as the byte-exact trace
//! (`t=<nanos> seq=<n> <kind> <endpoint> <detail>`), which is identical
//! across same-seed runs.
//!
//! Two driving modes:
//!
//! * **Closed loop** — [`Engine::dispatch`] injects one root request and
//!   runs the event loop until it completes (the Fig. 8–10 rep-at-a-time
//!   experiments, and the gNB's synchronous N2 exchange).
//! * **Open loop** — [`Engine::schedule_request`] posts arrivals at
//!   absolute virtual times; [`Engine::run_until`] /
//!   [`Engine::run_until_idle`] then crank the event loop and return
//!   [`Completion`]s (the pool-scaling experiments).
//!
//! # Threading model
//!
//! One engine is one single-threaded simulated world: services are
//! `Rc`-based, the event heap is unsynchronized, and the byte-exact
//! trace depends only on the seed. The engine neither spawns OS threads
//! nor tolerates being shared across them — the "worker threads" above
//! are simulated capacity, not parallelism. Host-level parallelism
//! comes from running *independent* engines (one per sweep point, each
//! with its own `Env` and seed) on separate OS threads, as the bench
//! sweep runner (`shield5g-bench::runner`) does; because a run never
//! reads anything outside its own world, its trace is byte-identical
//! whether it ran alone or beside fifteen others.

use crate::http::{HttpRequest, HttpResponse};
use crate::log::EventLog;
use crate::service::{Env, ServiceHandle};
use crate::time::{SimDuration, SimTime};
use crate::SimError;
use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt::Display;
use std::rc::Rc;

/// `env.log` category of the engine's scheduler notes.
pub const TRACE_CATEGORY: &str = "engine";

/// Renders the engine notes in `log` as the event trace, one line per
/// scheduler decision in execution order:
/// `t=<nanos> seq=<n> <kind> <endpoint> <detail>`, where `seq` numbers
/// the engine notes alone. Empty unless the log was enabled.
#[must_use]
pub fn trace_lines(log: &EventLog) -> Vec<String> {
    log.in_category(TRACE_CATEGORY)
        .enumerate()
        .map(|(seq, e)| format!("t={} seq={seq} {}", e.at.as_nanos(), e.message))
        .collect()
}

/// Response header the engine sets on synthesized (non-service) replies:
/// `unknown-endpoint` for a call to an unregistered address, `loop` for a
/// call that would re-enter an endpoint already on the context's call
/// chain.
pub const ERROR_HEADER: &str = "x-sim-error";

/// Response header set on replies synthesized by admission control:
/// `queue-full` when the endpoint's bounded queue was full at arrival,
/// `deadline` when the request's wait exceeded the admission deadline
/// before a worker freed up (or, with a deadline layer stacked, when the
/// virtual deadline passed mid-chain).
pub const SHED_HEADER: &str = "x-sim-shed";

/// Response header set when an injected fault touched the delivery:
/// `drop` on the synthesized 504 a lost message resolves to once the
/// caller's supervision timer fires, `injected-5xx` on a synthesized
/// upstream error, `delay` on a real response that was held back in
/// flight.
pub const FAULT_HEADER: &str = "x-sim-fault";

/// Request header marking a leg's priority class. The scheduler reads it
/// once when the context is created (`emergency` selects
/// [`PriorityClass::Emergency`]; anything else is normal traffic) and
/// carries the class on [`LegMeta`], so admission layers can shed by
/// class at arrival time — before the request body is in reach.
pub const PRIORITY_HEADER: &str = "x-sim-priority";

/// Priority class of a request leg, derived from [`PRIORITY_HEADER`].
/// Emergency registrations (TS 23.501 §5.16.4 emergency services) must
/// survive overload that sheds ordinary traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PriorityClass {
    /// Ordinary traffic: first to be shed under overload.
    #[default]
    Normal,
    /// Emergency traffic: shed only when capacity is truly exhausted.
    Emergency,
}

impl PriorityClass {
    /// Reads the class a request announces via [`PRIORITY_HEADER`].
    #[must_use]
    pub fn of(req: &HttpRequest) -> PriorityClass {
        if req.header(PRIORITY_HEADER) == Some("emergency") {
            PriorityClass::Emergency
        } else {
            PriorityClass::Normal
        }
    }

    /// Stable label for metrics and artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Normal => "normal",
            PriorityClass::Emergency => "emergency",
        }
    }
}

/// What an injected fault does to one message delivery (a `CallOut`
/// request leg or a `Reply` response leg).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: deliver normally.
    Deliver,
    /// The message is lost. The waiting side learns nothing until its
    /// supervision timer expires: a synthesized 504 (`x-sim-fault:
    /// drop`) is delivered after `timeout`.
    Drop {
        /// Supervision-timer expiry charged to the waiting caller.
        timeout: SimDuration,
    },
    /// The message is delivered intact, `delay` late (congestion,
    /// rerouting). Marked `x-sim-fault: delay` on response legs.
    Delay(SimDuration),
    /// The message is replaced by a synthesized transport-level error
    /// (`x-sim-fault: injected-5xx`) delivered immediately — a connection
    /// reset or proxy failure.
    Error {
        /// HTTP status of the synthesized error (5xx).
        status: u16,
    },
}

/// What a service segment does next.
pub enum Step {
    /// The request is answered; the worker is released and the response
    /// travels back to the caller (or completes the root context).
    Reply(HttpResponse),
    /// The service needs a downstream round trip. The context keeps its
    /// worker (thread-per-request, as in OAI's NFs); `state` is handed
    /// back verbatim to [`EngineService::resume`] with the response.
    CallOut {
        /// Destination endpoint address.
        dest: String,
        /// The outbound request. Send-side latency (TLS record, link
        /// transfer) must already be charged: the arrival is scheduled at
        /// the clock instant this step is returned.
        req: HttpRequest,
        /// Continuation state, returned to `resume` untouched.
        state: Box<dyn Any>,
    },
}

impl std::fmt::Debug for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Step::Reply(r) => f.debug_tuple("Reply").field(&r.status).finish(),
            Step::CallOut { dest, req, .. } => f
                .debug_struct("CallOut")
                .field("dest", dest)
                .field("path", &req.path)
                .finish(),
        }
    }
}

/// Identity and timing of one request leg, handed to every
/// [`EngineService`] hook. Built by the scheduler from its context
/// table; layers key any per-leg state they carry on [`LegMeta::id`].
#[derive(Clone, Debug)]
pub struct LegMeta {
    /// Engine-unique context id of this leg.
    pub id: u64,
    /// Destination endpoint address.
    pub dest: String,
    /// Request path.
    pub path: String,
    /// When the root request entered the engine.
    pub submitted: SimTime,
    /// When this leg reached (or will reach) its destination endpoint.
    pub arrived: SimTime,
    /// Whether this is a root leg (no parent context).
    pub root: bool,
    /// Priority class the request announced via [`PRIORITY_HEADER`].
    pub class: PriorityClass,
}

/// An admission decision from [`EngineService::on_arrive`] /
/// [`EngineService::on_begin`]. On [`Gate::Shed`] the scheduler writes
/// `note` into the event trace and delivers `resp` to the caller without
/// running the service — so a shedding layer controls the synthesized
/// response while the trace format stays the scheduler's.
pub enum Gate {
    /// Let the request proceed.
    Admit,
    /// Refuse the request: deliver `resp` instead of serving it.
    Shed {
        /// The synthesized response (conventionally 503 + [`SHED_HEADER`]).
        resp: HttpResponse,
        /// Trace annotation, e.g. `"shed-full"` / `"shed-deadline"`.
        note: &'static str,
    },
}

/// A service in continuation-passing form: `start` handles a fresh
/// request, `resume` continues after a downstream response. Handlers
/// never touch the engine — they advance the clock for their own compute
/// and return a [`Step`]; the scheduler owns all routing.
///
/// Beyond the two segment methods, the trait carries the *scheduler
/// hooks*: default-no-op seams the engine invokes at each routing
/// decision so a middleware stack (`shield5g-mw`) can interpose
/// admission control, fault injection, observability, retries and
/// deadlines without the scheduler knowing any of those concerns. A
/// plain service that overrides nothing behaves exactly as if no hook
/// existed.
pub trait EngineService {
    /// Begins handling `req`. Called once per request, with the clock set
    /// to the instant the request reached a free worker.
    fn start(&mut self, env: &mut Env, leg: &LegMeta, req: HttpRequest) -> Step;

    /// Continues after the downstream response to an earlier
    /// [`Step::CallOut`]. `state` is the continuation state that call
    /// carried. Response-side latency (link transfer, TLS record) is
    /// charged here by the service's client helper.
    fn resume(
        &mut self,
        env: &mut Env,
        leg: &LegMeta,
        state: Box<dyn Any>,
        resp: HttpResponse,
    ) -> Step;

    /// Hook: a root leg for this endpoint was posted via
    /// [`Engine::schedule_request`] (clock may not be at
    /// `leg.submitted` yet — open-loop arrivals are scheduled ahead).
    fn on_submit(&mut self, leg: &LegMeta) {
        let _ = leg;
    }

    /// Hook: a leg reached this endpoint. `depth` is the in-flight count
    /// (serving + waiting) *before* this arrival. Returning
    /// [`Gate::Shed`] refuses it at the door.
    fn on_arrive(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) -> Gate {
        let _ = (env, leg, depth);
        Gate::Admit
    }

    /// Hook: the arrival was admitted; `depth` now counts it
    /// (serving + waiting, inclusive).
    fn on_admitted(&mut self, env: &mut Env, leg: &LegMeta, depth: usize) {
        let _ = (env, leg, depth);
    }

    /// Hook: the admitted leg found no free worker and joined the FIFO.
    fn on_queued(&mut self, env: &mut Env, leg: &LegMeta) {
        let _ = (env, leg);
    }

    /// Hook: a worker is about to run the leg after waiting `waited` in
    /// the FIFO. Returning [`Gate::Shed`] refuses it (the worker is
    /// released) — this is where deadline shedding lives.
    fn on_begin(&mut self, env: &mut Env, leg: &LegMeta, waited: SimDuration) -> Gate {
        let _ = (env, leg, waited);
        Gate::Admit
    }

    /// Hook: this service returned a [`Step::CallOut`]; `child` is the
    /// freshly minted downstream leg.
    fn on_callout(&mut self, env: &mut Env, parent: &LegMeta, child: &LegMeta) {
        let _ = (env, parent, child);
    }

    /// Hook: fate of an outbound request leg this service is sending to
    /// `dest` (consulted on the *caller's* stack).
    fn request_fate(&mut self, env: &mut Env, dest: &str, path: &str) -> FaultAction {
        let _ = (env, dest, path);
        FaultAction::Deliver
    }

    /// Hook: fate of the response leg this service just produced
    /// (consulted on the *replier's* stack).
    fn response_fate(&mut self, env: &mut Env, leg: &LegMeta, status: u16) -> FaultAction {
        let _ = (env, leg, status);
        FaultAction::Deliver
    }

    /// Hook: a response (service-produced or synthesized) is being
    /// delivered for a leg addressed to this endpoint; the leg is done.
    fn on_deliver(&mut self, env: &mut Env, leg: &LegMeta, resp: &HttpResponse) {
        let _ = (env, leg, resp);
    }
}

/// Shared handle to an engine service.
pub type EngineServiceHandle = Rc<RefCell<dyn EngineService>>;

/// Compatibility shim: adapts a plain synchronous [`crate::service::Service`]
/// (a *leaf* — it never calls out) to the engine trait.
struct LeafService {
    inner: ServiceHandle,
}

impl EngineService for LeafService {
    fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
        Step::Reply(self.inner.borrow_mut().handle(env, req))
    }

    fn resume(
        &mut self,
        _env: &mut Env,
        _leg: &LegMeta,
        _state: Box<dyn Any>,
        _resp: HttpResponse,
    ) -> Step {
        Step::Reply(HttpResponse::error(500, "leaf service cannot resume"))
    }
}

/// Admission-control policy of one endpoint. Defaults to unbounded: every
/// arrival waits as long as it takes. Enforced by an admission layer
/// stacked on the endpoint's service (`shield5g-mw`), not by the
/// scheduler itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmissionPolicy {
    /// Maximum in-flight requests (serving + waiting); arrivals beyond it
    /// are shed with a synthesized 503 (`x-sim-shed: queue-full`).
    pub capacity: Option<usize>,
    /// Maximum queueing delay: when a worker finally frees up for a
    /// request that has already waited longer than this, the request is
    /// shed (503, `x-sim-shed: deadline`) instead of served — the
    /// caller's supervision timer has long expired.
    pub deadline: Option<SimDuration>,
}

/// A finished root request from the open-loop API.
#[derive(Clone, Debug)]
pub struct Completion {
    /// Caller-chosen tag from [`Engine::schedule_request`].
    pub tag: u64,
    /// The final response (may be engine-synthesized: check
    /// [`SHED_HEADER`] / [`ERROR_HEADER`]).
    pub response: HttpResponse,
    /// When the request was injected.
    pub submitted: SimTime,
    /// When the response was ready.
    pub finished: SimTime,
    /// Time spent waiting for a worker at the root endpoint.
    pub queued: SimDuration,
}

impl Completion {
    /// True when admission control shed this request.
    #[must_use]
    pub fn shed(&self) -> bool {
        self.response.header(SHED_HEADER).is_some()
    }
}

struct Endpoint {
    service: EngineServiceHandle,
    workers: u32,
    busy: u32,
    waiting: VecDeque<u64>,
}

struct ParentLink {
    ctx: u64,
    state: Box<dyn Any>,
}

struct Ctx {
    dest: String,
    path: String,
    req: Option<HttpRequest>,
    parent: Option<ParentLink>,
    tag: u64,
    submitted: SimTime,
    arrived: SimTime,
    queued: SimDuration,
    ancestors: Vec<String>,
    class: PriorityClass,
}

impl Ctx {
    fn leg(&self, id: u64) -> LegMeta {
        LegMeta {
            id,
            dest: self.dest.clone(),
            path: self.path.clone(),
            submitted: self.submitted,
            arrived: self.arrived,
            root: self.parent.is_none(),
            class: self.class,
        }
    }
}

enum EventKind {
    /// A request context reaches its destination endpoint.
    Arrive { ctx: u64 },
    /// A queued context is granted a worker.
    Begin { ctx: u64 },
    /// A worker frees up. Releases are events (not inline bookkeeping) so
    /// that a worker busy until virtual time `t` stays busy for every
    /// arrival popping before `t` — same-instant arrival order decides
    /// who queues, deterministically.
    Release { dest: String },
    /// A response travels back: resume the parent or complete the root.
    Deliver { ctx: u64, resp: HttpResponse },
}

struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The discrete-event scheduler and endpoint registry of one world.
pub struct Engine {
    endpoints: BTreeMap<String, Endpoint>,
    heap: BinaryHeap<Reverse<Event>>,
    ctxs: BTreeMap<u64, Ctx>,
    next_ctx: u64,
    next_seq: u64,
    completions: Vec<Completion>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("endpoints", &self.endpoints.len())
            .field("pending_events", &self.heap.len())
            .finish()
    }
}

impl Engine {
    /// An empty engine.
    #[must_use]
    pub fn new() -> Self {
        Engine {
            endpoints: BTreeMap::new(),
            heap: BinaryHeap::new(),
            ctxs: BTreeMap::new(),
            next_ctx: 1,
            next_seq: 0,
            completions: Vec::new(),
        }
    }

    /// Wraps a synchronous leaf service (UDR, UPF, a P-AKA module
    /// endpoint) for registration.
    #[must_use]
    pub fn leaf(inner: ServiceHandle) -> EngineServiceHandle {
        Rc::new(RefCell::new(LeafService { inner }))
    }

    /// Registers (or replaces) `service` at `addr` with a pool of
    /// `workers` threads.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn register(
        &mut self,
        addr: impl Into<String>,
        workers: u32,
        service: EngineServiceHandle,
    ) {
        assert!(workers > 0, "an endpoint needs at least one worker");
        self.endpoints.insert(
            addr.into(),
            Endpoint {
                service,
                workers,
                busy: 0,
                waiting: VecDeque::new(),
            },
        );
    }

    /// Whether `addr` is registered.
    #[must_use]
    pub fn knows(&self, addr: &str) -> bool {
        self.endpoints.contains_key(addr)
    }

    /// Injects one request at the current clock instant and runs the
    /// event loop until it completes, leaving the clock at the completion
    /// instant — the synchronous, closed-loop call form.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownEndpoint`] when `addr` is not
    /// registered. Downstream failures arrive as ordinary non-2xx
    /// responses.
    pub fn dispatch(
        &mut self,
        env: &mut Env,
        addr: &str,
        req: HttpRequest,
    ) -> Result<HttpResponse, SimError> {
        let tag = self.schedule_request(env.clock.now(), addr, req);
        loop {
            if let Some(pos) = self.completions.iter().position(|c| c.tag == tag) {
                let done = self.completions.swap_remove(pos);
                env.clock.set(done.finished);
                if done.response.header(ERROR_HEADER) == Some("unknown-root") {
                    return Err(SimError::UnknownEndpoint(addr.to_owned()));
                }
                return Ok(done.response);
            }
            let ev = self
                .heap
                .pop()
                .expect("root context pending but event queue empty")
                .0;
            self.process(env, ev);
        }
    }

    /// Like [`Engine::dispatch`] but maps non-2xx responses to
    /// [`SimError::ServiceFailure`].
    ///
    /// # Errors
    ///
    /// Everything `dispatch` returns, plus `ServiceFailure` for non-2xx.
    pub fn dispatch_ok(
        &mut self,
        env: &mut Env,
        addr: &str,
        req: HttpRequest,
    ) -> Result<HttpResponse, SimError> {
        let resp = self.dispatch(env, addr, req)?;
        if resp.is_success() {
            Ok(resp)
        } else {
            Err(SimError::ServiceFailure {
                endpoint: addr.to_owned(),
                status: resp.status,
            })
        }
    }

    /// Posts an open-loop arrival at absolute virtual time `at` and
    /// returns its completion tag.
    pub fn schedule_request(&mut self, at: SimTime, addr: &str, req: HttpRequest) -> u64 {
        let id = self.next_ctx;
        self.next_ctx += 1;
        let class = PriorityClass::of(&req);
        self.ctxs.insert(
            id,
            Ctx {
                dest: addr.to_owned(),
                path: req.path.clone(),
                req: Some(req),
                parent: None,
                tag: id,
                submitted: at,
                arrived: at,
                queued: SimDuration::ZERO,
                ancestors: Vec::new(),
                class,
            },
        );
        // Root legs announce themselves to the destination stack (an obs
        // layer roots the leg's request span under the ambient harness
        // stage span here, so a whole registration's hops share one
        // trace). Unknown destinations get no announcement — the arrival
        // will synthesize the error.
        if let Some(ep) = self.endpoints.get(addr) {
            let service = ep.service.clone();
            if let Some(ctx) = self.ctxs.get(&id) {
                let leg = ctx.leg(id);
                service.borrow_mut().on_submit(&leg);
            }
        }
        self.push_event(at, EventKind::Arrive { ctx: id });
        id
    }

    /// Runs every event with `at <= until`, leaves the clock at `until`,
    /// and drains the completions so far.
    pub fn run_until(&mut self, env: &mut Env, until: SimTime) -> Vec<Completion> {
        while self.heap.peek().is_some_and(|Reverse(ev)| ev.at <= until) {
            if let Some(Reverse(ev)) = self.heap.pop() {
                self.process(env, ev);
            }
        }
        env.clock.set(until);
        std::mem::take(&mut self.completions)
    }

    /// Runs until no events remain and drains the completions.
    pub fn run_until_idle(&mut self, env: &mut Env) -> Vec<Completion> {
        while let Some(Reverse(ev)) = self.heap.pop() {
            self.process(env, ev);
        }
        std::mem::take(&mut self.completions)
    }

    /// The service at `addr`, for a context that is running there.
    /// Endpoints are never removed, so a context that was admitted at
    /// `addr` always finds it.
    fn service_of(&self, addr: &str) -> EngineServiceHandle {
        self.endpoints
            .get(addr)
            .expect("a running context's endpoint stays registered")
            .service
            .clone()
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at, seq, kind }));
    }

    /// Writes one scheduler note into the world's transcript (formatted
    /// only while `env.log` is enabled; see [`trace_lines`]).
    fn note(env: &mut Env, at: SimTime, kind: &str, dest: &str, detail: impl Display) {
        env.log
            .record(at, TRACE_CATEGORY, format_args!("{kind} {dest} {detail}"));
    }

    fn process(&mut self, env: &mut Env, ev: Event) {
        env.clock.set(ev.at);
        match ev.kind {
            EventKind::Arrive { ctx } => self.on_arrive(env, ctx),
            EventKind::Begin { ctx } => self.run_begin(env, ctx),
            EventKind::Release { dest } => self.release_worker(&dest, ev.at),
            EventKind::Deliver { ctx, resp } => self.on_deliver(env, ctx, resp),
        }
    }

    fn on_arrive(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        let (leg, looped) = {
            let ctx = self.ctxs.get(&id).expect("arriving context exists");
            (ctx.leg(id), ctx.ancestors.contains(&ctx.dest))
        };
        let (dest, path) = (&leg.dest, &leg.path);
        Self::note(env, now, "arrive", dest, path);
        if looped {
            let resp = HttpResponse::error(508, format!("call loop through {dest}"))
                .with_header(ERROR_HEADER, "loop");
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        }
        let Some(ep) = self.endpoints.get_mut(dest) else {
            // Roots get a distinct marker so `dispatch` can surface a hard
            // error; nested callers see an ordinary 502 they can map.
            let marker = if leg.root {
                "unknown-root"
            } else {
                "unknown-endpoint"
            };
            let resp = HttpResponse::error(502, format!("unknown endpoint {dest}"))
                .with_header(ERROR_HEADER, marker);
            self.push_event(now, EventKind::Deliver { ctx: id, resp });
            return;
        };
        let service = ep.service.clone();
        let depth = ep.busy as usize + ep.waiting.len();
        match service.borrow_mut().on_arrive(env, &leg, depth) {
            Gate::Admit => {}
            Gate::Shed { resp, note } => {
                // Shed at the door: no worker was taken, so no Release —
                // the synthesized reply completes at the arrival instant.
                Self::note(env, now, note, dest, path);
                self.push_event(now, EventKind::Deliver { ctx: id, resp });
                return;
            }
        }
        service.borrow_mut().on_admitted(env, &leg, depth + 1);
        if ep.busy < ep.workers {
            ep.busy += 1;
            self.run_begin(env, id);
        } else {
            ep.waiting.push_back(id);
            Self::note(env, now, "queue", dest, path);
            service.borrow_mut().on_queued(env, &leg);
        }
    }

    /// Runs the `start` segment of a context that has been granted a
    /// worker (its endpoint's `busy` already counts it).
    fn run_begin(&mut self, env: &mut Env, id: u64) {
        let now = env.clock.now();
        let (leg, wait, req) = {
            let ctx = self.ctxs.get_mut(&id).expect("beginning context exists");
            ctx.queued = now - ctx.arrived;
            let req = ctx.req.take().expect("request not yet started");
            (ctx.leg(id), ctx.queued, req)
        };
        let service = self.service_of(&leg.dest);
        match service.borrow_mut().on_begin(env, &leg, wait) {
            Gate::Admit => {}
            Gate::Shed { resp, note } => {
                // Shed at begin: the worker granted to this leg is
                // released before the synthesized reply travels back.
                Self::note(env, now, note, &leg.dest, &leg.path);
                let dest = leg.dest.clone();
                self.push_event(now, EventKind::Release { dest });
                self.push_event(now, EventKind::Deliver { ctx: id, resp });
                return;
            }
        }
        Self::note(env, now, "begin", &leg.dest, &leg.path);
        let step = service.borrow_mut().start(env, &leg, req);
        self.apply_step(env, id, step);
    }

    fn apply_step(&mut self, env: &mut Env, id: u64, step: Step) {
        let now = env.clock.now();
        match step {
            Step::Reply(resp) => {
                let leg = self.ctxs.get(&id).expect("replying context").leg(id);
                Self::note(env, now, "reply", &leg.dest, resp.status);
                // The worker did its work regardless of what happens to
                // the response in flight: release fires at `now`.
                self.push_event(
                    now,
                    EventKind::Release {
                        dest: leg.dest.clone(),
                    },
                );
                let service = self.service_of(&leg.dest);
                let action = service.borrow_mut().response_fate(env, &leg, resp.status);
                match action {
                    FaultAction::Deliver => {
                        self.push_event(now, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Drop { timeout } => {
                        Self::note(env, now, "fault-drop", &leg.dest, &leg.path);
                        let resp = HttpResponse::error(504, "injected response drop")
                            .with_header(FAULT_HEADER, "drop");
                        self.push_event(now + timeout, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Delay(d) => {
                        Self::note(env, now, "fault-delay", &leg.dest, &leg.path);
                        let resp = resp.with_header(FAULT_HEADER, "delay");
                        self.push_event(now + d, EventKind::Deliver { ctx: id, resp });
                    }
                    FaultAction::Error { status } => {
                        Self::note(env, now, "fault-5xx", &leg.dest, &leg.path);
                        let resp = HttpResponse::error(status, "injected upstream failure")
                            .with_header(FAULT_HEADER, "injected-5xx");
                        self.push_event(now, EventKind::Deliver { ctx: id, resp });
                    }
                }
            }
            Step::CallOut { dest, req, state } => {
                let child = self.next_ctx;
                self.next_ctx += 1;
                let (ancestors, tag, submitted, parent_leg) = {
                    let parent = self.ctxs.get(&id).expect("calling context");
                    let mut chain = parent.ancestors.clone();
                    chain.push(parent.dest.clone());
                    (chain, parent.tag, parent.submitted, parent.leg(id))
                };
                Self::note(env, now, "callout", &dest, &req.path);
                let path = req.path.clone();
                // A callout inherits the caller's priority class unless
                // the outbound request re-marks itself — an emergency
                // registration's whole SBI chain stays emergency.
                let class = if req.header(PRIORITY_HEADER).is_some() {
                    PriorityClass::of(&req)
                } else {
                    parent_leg.class
                };
                let child_leg = LegMeta {
                    id: child,
                    dest: dest.clone(),
                    path: path.clone(),
                    submitted,
                    arrived: now,
                    root: false,
                    class,
                };
                // The *caller's* stack observes the new leg and decides
                // its request-leg fate — the callee may not even exist.
                let action = {
                    let service = self.service_of(&parent_leg.dest);
                    let mut svc = service.borrow_mut();
                    svc.on_callout(env, &parent_leg, &child_leg);
                    svc.request_fate(env, &dest, &path)
                };
                self.ctxs.insert(
                    child,
                    Ctx {
                        dest: dest.clone(),
                        path: path.clone(),
                        req: Some(req),
                        parent: Some(ParentLink { ctx: id, state }),
                        tag,
                        submitted,
                        arrived: now,
                        queued: SimDuration::ZERO,
                        ancestors,
                        class,
                    },
                );
                match action {
                    FaultAction::Deliver => {
                        self.push_event(now, EventKind::Arrive { ctx: child });
                    }
                    FaultAction::Drop { timeout } => {
                        // The request never reaches `dest`; the caller
                        // sits on its supervision timer and resumes with
                        // a synthesized 504.
                        Self::note(env, now, "fault-drop", &dest, &path);
                        let resp = HttpResponse::error(504, "injected request drop")
                            .with_header(FAULT_HEADER, "drop");
                        self.push_event(now + timeout, EventKind::Deliver { ctx: child, resp });
                    }
                    FaultAction::Delay(d) => {
                        Self::note(env, now, "fault-delay", &dest, &path);
                        // In-network delay is not queueing delay: move the
                        // arrival instant so admission deadlines measure
                        // only the wait at the endpoint.
                        self.ctxs.get_mut(&child).expect("child context").arrived = now + d;
                        self.push_event(now + d, EventKind::Arrive { ctx: child });
                    }
                    FaultAction::Error { status } => {
                        Self::note(env, now, "fault-5xx", &dest, &path);
                        let resp = HttpResponse::error(status, "injected upstream failure")
                            .with_header(FAULT_HEADER, "injected-5xx");
                        self.push_event(now, EventKind::Deliver { ctx: child, resp });
                    }
                }
            }
        }
    }

    /// Frees one worker at `dest` and hands it to the head waiter, if
    /// any. The waiter's `Begin` fires at `now` (same instant, later
    /// sequence number — deterministic).
    fn release_worker(&mut self, dest: &str, now: SimTime) {
        let ep = self
            .endpoints
            .get_mut(dest)
            .expect("a worker is only held at a registered endpoint");
        ep.busy = ep.busy.saturating_sub(1);
        if let Some(next) = ep.waiting.pop_front() {
            ep.busy += 1;
            self.push_event(now, EventKind::Begin { ctx: next });
        }
    }

    fn on_deliver(&mut self, env: &mut Env, id: u64, resp: HttpResponse) {
        let now = env.clock.now();
        let ctx = self.ctxs.remove(&id).expect("delivered context exists");
        let leg = ctx.leg(id);
        // The destination stack sees every delivery for its legs —
        // service-produced and engine-synthesized alike (an obs layer
        // closes the leg's request span here). A leg to an unregistered
        // address has no stack to notify.
        if let Some(ep) = self.endpoints.get(&ctx.dest) {
            let service = ep.service.clone();
            service.borrow_mut().on_deliver(env, &leg, &resp);
        }
        match ctx.parent {
            None => {
                Self::note(env, now, "complete", &ctx.dest, resp.status);
                self.completions.push(Completion {
                    tag: ctx.tag,
                    response: resp,
                    submitted: ctx.submitted,
                    finished: now,
                    queued: ctx.queued,
                });
            }
            Some(link) => {
                let parent_leg = self
                    .ctxs
                    .get(&link.ctx)
                    .expect("parent context exists")
                    .leg(link.ctx);
                Self::note(env, now, "resume", &parent_leg.dest, &ctx.path);
                let service = self.service_of(&parent_leg.dest);
                let step = service
                    .borrow_mut()
                    .resume(env, &parent_leg, link.state, resp);
                self.apply_step(env, link.ctx, step);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_handle, Service};

    /// A leaf that charges a fixed service time and echoes the body.
    struct SlowEcho {
        nanos: u64,
    }

    impl Service for SlowEcho {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            env.clock.advance(SimDuration::from_nanos(self.nanos));
            HttpResponse::ok(req.body)
        }
    }

    /// A relay that forwards to `next` and tags the response.
    struct Relay {
        next: String,
    }

    impl EngineService for Relay {
        fn start(&mut self, _env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            Step::CallOut {
                dest: self.next.clone(),
                req,
                state: Box::new(()),
            }
        }

        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            resp: HttpResponse,
        ) -> Step {
            Step::Reply(resp)
        }
    }

    fn engine_with_echo(workers: u32, nanos: u64) -> Engine {
        let mut engine = Engine::new();
        engine.register(
            "echo",
            workers,
            Engine::leaf(service_handle(SlowEcho { nanos })),
        );
        engine
    }

    #[test]
    fn dispatch_round_trips_a_leaf() {
        let mut env = Env::new(1);
        let mut engine = engine_with_echo(1, 5_000);
        let t0 = env.clock.now();
        let resp = engine
            .dispatch(&mut env, "echo", HttpRequest::post("/x", b"hi".to_vec()))
            .unwrap();
        assert_eq!(resp.body, b"hi");
        assert_eq!(env.clock.now() - t0, SimDuration::from_nanos(5_000));
    }

    #[test]
    fn unknown_root_endpoint_errors() {
        let mut env = Env::new(2);
        let mut engine = Engine::new();
        let err = engine
            .dispatch(&mut env, "ghost", HttpRequest::get("/"))
            .unwrap_err();
        assert!(matches!(err, SimError::UnknownEndpoint(e) if e == "ghost"));
    }

    #[test]
    fn nested_unknown_endpoint_synthesizes_502() {
        let mut env = Env::new(3);
        let mut engine = Engine::new();
        engine.register(
            "front",
            1,
            Rc::new(RefCell::new(Relay {
                next: "ghost".into(),
            })),
        );
        let resp = engine
            .dispatch(&mut env, "front", HttpRequest::get("/"))
            .unwrap();
        assert_eq!(resp.status, 502);
        assert_eq!(resp.header(ERROR_HEADER), Some("unknown-endpoint"));
    }

    #[test]
    fn call_loops_are_cut_with_508() {
        let mut env = Env::new(4);
        let mut engine = Engine::new();
        engine.register("a", 1, Rc::new(RefCell::new(Relay { next: "b".into() })));
        engine.register("b", 1, Rc::new(RefCell::new(Relay { next: "a".into() })));
        let resp = engine
            .dispatch(&mut env, "a", HttpRequest::get("/loop"))
            .unwrap();
        assert_eq!(resp.status, 508);
        assert_eq!(resp.header(ERROR_HEADER), Some("loop"));
    }

    #[test]
    fn single_worker_serializes_simultaneous_arrivals() {
        let mut env = Env::new(5);
        let mut engine = engine_with_echo(1, 10_000);
        let t0 = env.clock.now();
        let tags: Vec<u64> = (0..4)
            .map(|i| engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i])))
            .collect();
        let mut done = engine.run_until_idle(&mut env);
        done.sort_by_key(|c| c.tag);
        // K simultaneous arrivals at one worker: response times grow
        // monotonically — queueing is mechanistic.
        let times: Vec<SimDuration> = done.iter().map(|c| c.finished - c.submitted).collect();
        for pair in times.windows(2) {
            assert!(pair[1] > pair[0], "{times:?}");
        }
        assert_eq!(times[0], SimDuration::from_nanos(10_000));
        assert_eq!(times[3], SimDuration::from_nanos(40_000));
        assert_eq!(done[3].queued, SimDuration::from_nanos(30_000));
        let _ = tags;
    }

    #[test]
    fn enough_workers_overlap_simultaneous_arrivals() {
        let mut env = Env::new(6);
        let mut engine = engine_with_echo(4, 10_000);
        let t0 = env.clock.now();
        for i in 0..4 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        for c in &done {
            assert_eq!(c.finished - c.submitted, SimDuration::from_nanos(10_000));
            assert_eq!(c.queued, SimDuration::ZERO);
        }
    }

    /// A service whose hooks shed by script: first `shed_at_arrive`
    /// arrivals at the door, then `shed_at_begin` at worker grant.
    struct SheddingEcho {
        nanos: u64,
        shed_at_arrive: u32,
        shed_at_begin: u32,
    }

    impl EngineService for SheddingEcho {
        fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
            env.clock.advance(SimDuration::from_nanos(self.nanos));
            Step::Reply(HttpResponse::ok(req.body))
        }

        fn resume(
            &mut self,
            _env: &mut Env,
            _leg: &LegMeta,
            _state: Box<dyn Any>,
            _resp: HttpResponse,
        ) -> Step {
            Step::Reply(HttpResponse::error(500, "leaf"))
        }

        fn on_arrive(&mut self, _env: &mut Env, _leg: &LegMeta, _depth: usize) -> Gate {
            if self.shed_at_arrive > 0 {
                self.shed_at_arrive -= 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission queue full")
                        .with_header(SHED_HEADER, "queue-full"),
                    note: "shed-full",
                };
            }
            Gate::Admit
        }

        fn on_begin(&mut self, _env: &mut Env, _leg: &LegMeta, _waited: SimDuration) -> Gate {
            if self.shed_at_begin > 0 {
                self.shed_at_begin -= 1;
                return Gate::Shed {
                    resp: HttpResponse::error(503, "admission deadline exceeded")
                        .with_header(SHED_HEADER, "deadline"),
                    note: "shed-deadline",
                };
            }
            Gate::Admit
        }
    }

    #[test]
    fn shed_at_arrive_completes_instantly_without_a_worker() {
        let mut env = Env::new(7);
        let mut engine = Engine::new();
        engine.register(
            "echo",
            1,
            Rc::new(RefCell::new(SheddingEcho {
                nanos: 10_000,
                shed_at_arrive: 1,
                shed_at_begin: 0,
            })),
        );
        let t0 = env.clock.now();
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![0]));
        engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![1]));
        let done = engine.run_until_idle(&mut env);
        let shed: Vec<_> = done.iter().filter(|c| c.shed()).collect();
        assert_eq!(shed.len(), 1);
        // Shed replies are synthesized at arrival — no service time, and
        // no worker was consumed so the other request ran immediately.
        assert_eq!(shed[0].finished, shed[0].submitted);
        assert_eq!(shed[0].response.status, 503);
        assert_eq!(shed[0].response.header(SHED_HEADER), Some("queue-full"));
        let served = done.iter().find(|c| !c.shed()).unwrap();
        assert_eq!(served.queued, SimDuration::ZERO);
    }

    #[test]
    fn shed_at_begin_releases_the_granted_worker() {
        let mut env = Env::new(8);
        let mut engine = Engine::new();
        engine.register(
            "echo",
            1,
            Rc::new(RefCell::new(SheddingEcho {
                nanos: 10_000,
                shed_at_begin: 1,
                shed_at_arrive: 0,
            })),
        );
        let t0 = env.clock.now();
        for i in 0..3 {
            engine.schedule_request(t0, "echo", HttpRequest::post("/x", vec![i]));
        }
        let done = engine.run_until_idle(&mut env);
        // The first grant is shed and its worker released, so the other
        // two still serialize through the single worker.
        let shed: Vec<_> = done.iter().filter(|c| c.shed()).collect();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].response.header(SHED_HEADER), Some("deadline"));
        let mut served: Vec<SimDuration> = done
            .iter()
            .filter(|c| !c.shed())
            .map(|c| c.finished - c.submitted)
            .collect();
        served.sort();
        assert_eq!(
            served,
            vec![
                SimDuration::from_nanos(10_000),
                SimDuration::from_nanos(20_000),
            ]
        );
    }

    #[test]
    fn run_until_processes_only_due_events() {
        let mut env = Env::new(9);
        let mut engine = engine_with_echo(1, 1_000);
        engine.schedule_request(SimTime::from_nanos(100), "echo", HttpRequest::get("/a"));
        engine.schedule_request(SimTime::from_nanos(50_000), "echo", HttpRequest::get("/b"));
        let first = engine.run_until(&mut env, SimTime::from_nanos(10_000));
        assert_eq!(first.len(), 1);
        assert_eq!(env.clock.now(), SimTime::from_nanos(10_000));
        let rest = engine.run_until_idle(&mut env);
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut env = Env::new(seed);
            env.log.enable();
            let mut engine = engine_with_echo(2, 7_000);
            engine.register(
                "front",
                2,
                Rc::new(RefCell::new(Relay {
                    next: "echo".into(),
                })),
            );
            for i in 0u64..3 {
                engine.schedule_request(
                    SimTime::from_nanos(i * 500),
                    "front",
                    HttpRequest::post("/x", vec![u8::try_from(i).unwrap()]),
                );
            }
            engine.run_until_idle(&mut env);
            trace_lines(&env.log)
        };
        let trace = run(11);
        assert_eq!(trace.len(), 28, "{trace:#?}");
        assert_eq!(trace[0], "t=0 seq=0 arrive front /x");
        assert_eq!(trace, run(11));
    }

    #[test]
    fn trace_is_off_until_the_log_is_enabled() {
        let mut env = Env::new(12);
        let mut engine = engine_with_echo(1, 1_000);
        engine
            .dispatch(&mut env, "echo", HttpRequest::get("/a"))
            .unwrap();
        assert!(env.log.is_empty());
        env.log.enable();
        env.log.record(
            env.clock.now(),
            "narration",
            format_args!("not a trace line"),
        );
        engine
            .dispatch(&mut env, "echo", HttpRequest::get("/b"))
            .unwrap();
        let now = env.clock.now().as_nanos();
        let begin = now - 1_000;
        assert_eq!(
            trace_lines(&env.log),
            [
                format!("t={begin} seq=0 arrive echo /b"),
                format!("t={begin} seq=1 begin echo /b"),
                format!("t={now} seq=2 reply echo 200"),
                format!("t={now} seq=3 complete echo 200"),
            ]
        );
    }

    /// A leaf whose service time is the little-endian `u64` nanosecond
    /// count in the request body.
    struct ScriptedService;

    impl Service for ScriptedService {
        fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
            let nanos = u64::from_le_bytes(req.body[..8].try_into().unwrap());
            env.clock.advance(SimDuration::from_nanos(nanos));
            HttpResponse::ok(Vec::new())
        }
    }

    proptest::proptest! {
        /// **Exact oracle.** On a single-worker FIFO endpoint every
        /// request's queueing delay is the Lindley recursion over the
        /// same trace: W₀ = 0, W₍ₙ₊₁₎ = max(0, Wₙ + Sₙ − Aₙ₊₁), with Sₙ
        /// the service time of request n and Aₙ₊₁ the gap between
        /// arrivals n and n+1 (zero gaps included: FIFO breaks ties).
        #[test]
        fn single_worker_fifo_queueing_is_lindley(
            raw_gaps in proptest::collection::vec(0u64..50_000, 1..64),
            services in proptest::collection::vec(1u64..40_000, 1..64),
        ) {
            let mut env = Env::new(13);
            let mut engine = Engine::new();
            engine.register("fifo", 1, Engine::leaf(service_handle(ScriptedService)));
            // About one gap in ten is zero: simultaneous arrivals.
            let gaps: Vec<u64> = raw_gaps
                .iter()
                .map(|&g| if g < 5_000 { 0 } else { g })
                .collect();
            let mut at = env.clock.now();
            let mut tags = Vec::new();
            for (gap, service) in gaps.iter().zip(&services) {
                at += SimDuration::from_nanos(*gap);
                let req = HttpRequest::post("/w", service.to_le_bytes().to_vec());
                tags.push(engine.schedule_request(at, "fifo", req));
            }
            let mut done = engine.run_until_idle(&mut env);
            done.sort_by_key(|c| c.tag);
            proptest::prop_assert_eq!(done.len(), tags.len());
            let mut wait = 0u64;
            for (n, c) in done.iter().enumerate() {
                if n > 0 {
                    wait = (wait + services[n - 1]).saturating_sub(gaps[n]);
                }
                proptest::prop_assert_eq!(c.tag, tags[n]);
                proptest::prop_assert_eq!(c.queued, SimDuration::from_nanos(wait));
            }
        }
    }
}
