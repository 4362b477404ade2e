//! Per-layer host-cost probes: each times one layer's public function,
//! on inputs shaped like the calling workload's, in ns of thread CPU
//! time per call.

use crate::median;
use crate::trace::{cpu_ns, Tracer};
use shield5g_core::harness::{deploy_module, standard_request, ModuleDeployment};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_core::slice::Subscriber;
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::keys::{generate_he_av, ServingNetworkName};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::sha256::Sha256;
use shield5g_crypto::x25519::{x25519, x25519_base};
use shield5g_hmee::enclave::{Enclave, EnclaveBuilder};
use shield5g_hmee::platform::SgxPlatform;
use shield5g_mw::{
    AdmissionLayer, BreakerLayer, BreakerPolicy, DeadlineLayer, FaultLayer, FaultSwitch, ObsLayer,
    RetryLayer, RetryPolicy, Stack,
};
use shield5g_nf::backend::UdmAkaRequest;
use shield5g_nf::messages::UeIdentity;
use shield5g_nf::sbi::AuthenticateRequest;
use shield5g_obs::hub::{self, ObsHandle};
use shield5g_obs::labels;
use shield5g_obs::span::SpanKind;
use shield5g_ran::usim::Usim;
use shield5g_ran::workload::test_supi;
use shield5g_scale::pool::{EnclavePool, PoolConfig};
use shield5g_sim::engine::{AdmissionPolicy, Engine, EngineServiceHandle};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::{service_handle, Service};
use shield5g_sim::time::SimDuration;
use shield5g_sim::tls::{establish, TlsIdentity};
use shield5g_sim::Env;
use std::hint::black_box;

/// Which SBI request a workload sends.
#[derive(Clone, Copy, Debug)]
pub enum SbiShape {
    /// eUDM AV generation (`UdmAkaRequest`), as the pool sweeps send.
    UdmAka,
    /// AMF → AUSF authenticate (`AuthenticateRequest`), as a registration
    /// sends.
    Authenticate,
}

/// What the probes borrow from the calling workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// The workload's SBI request.
    pub sbi: SbiShape,
    /// Whether the workload records into an obs hub (the `mw` probes then
    /// run with one installed).
    pub hub: bool,
    /// Replicas on the workload's routing ring.
    pub replicas: u32,
}

/// How long each probe measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Target CPU time of one timed batch, ns.
    pub batch_ns: u64,
    /// Timed batches; the probe reports their median.
    pub batches: usize,
}

/// Canonical `mw::Stack` layer order, outermost first.
pub const MW_LAYERS: [&str; 6] = ["obs", "deadline", "admission", "breaker", "fault", "retry"];

/// Median ns per `op` call over `budget.batches` batches. Each batch
/// starts from a `fresh` state, built outside the timed region, so that
/// state growing with the call count (EPC pages, span logs, engine
/// traces) stays bounded.
fn per_call_ns<S>(budget: Budget, mut fresh: impl FnMut() -> S, op: impl FnMut(&mut S)) -> f64 {
    interleaved_ns(budget, 1, |_| fresh(), op)[0]
}

/// [`per_call_ns`] for `variants` states built by `fresh(variant)` at
/// once. Their batches run round by round, so a change in host
/// contention during the probe hits every variant alike and differences
/// between variants stay clean.
#[allow(clippy::cast_precision_loss)]
fn interleaved_ns<S>(
    budget: Budget,
    variants: usize,
    mut fresh: impl FnMut(usize) -> S,
    mut op: impl FnMut(&mut S),
) -> Vec<f64> {
    let mut batch = |v: usize, n: u64| {
        let mut state = fresh(v);
        let t0 = cpu_ns();
        for _ in 0..n {
            op(&mut state);
        }
        cpu_ns() - t0
    };
    // Calibrate: double the call count until a batch is long enough to
    // scale from.
    let calls: Vec<u64> = (0..variants)
        .map(|v| {
            let mut n: u64 = 1;
            loop {
                let took = batch(v, n);
                if took >= budget.batch_ns / 8 || n >= 1 << 24 {
                    let per_call = (took as f64 / n as f64).max(1.0);
                    break ((budget.batch_ns as f64 / per_call).ceil() as u64).max(1);
                }
                n *= 2;
            }
        })
        .collect();
    let mut samples = vec![Vec::with_capacity(budget.batches); variants];
    for _ in 0..budget.batches {
        for (v, &n) in calls.iter().enumerate() {
            samples[v].push(batch(v, n) as f64 / n as f64);
        }
    }
    samples.into_iter().map(median).collect()
}

struct Echo;

impl Service for Echo {
    fn handle(&mut self, _env: &mut Env, req: HttpRequest) -> HttpResponse {
        HttpResponse::ok(req.body)
    }
}

fn sbi_body(shape: SbiShape) -> Vec<u8> {
    match shape {
        SbiShape::UdmAka => UdmAkaRequest {
            supi: test_supi(0),
            opc: [0xcd; 16].into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 1],
            amf_field: [0x80, 0],
            snn: ServingNetworkName::new("001", "01"),
        }
        .encode(),
        SbiShape::Authenticate => {
            let mut env = Env::new(1);
            AuthenticateRequest {
                identity: UeIdentity::Suci(usim().conceal_identity(&mut env)),
                known_supi: String::new(),
                snn_mcc: "001".into(),
                snn_mnc: "01".into(),
            }
            .encode()
        }
    }
}

fn usim() -> Usim {
    let sub = Subscriber::test(0);
    Usim::program(sub.supi, sub.k, sub.opc, 1, x25519_base(&[0x42; 32]))
}

fn enclave() -> (Env, Enclave) {
    let mut env = Env::new(2);
    let platform = SgxPlatform::new(&mut env);
    let enclave = EnclaveBuilder::new("perfbench")
        .heap_bytes(1 << 20)
        .build(&mut env, &platform)
        .expect("a 1 MiB enclave fits the default platform");
    (env, enclave)
}

/// An echo leaf behind a `Stack` holding the first `layers` canonical
/// layers, registered on a fresh engine.
fn echo_engine(layers: usize) -> Engine {
    let mut stack = Stack::new(Engine::leaf(service_handle(Echo)));
    for name in &MW_LAYERS[..layers] {
        stack = match *name {
            "obs" => stack.with(ObsLayer::new(ObsLayer::core())),
            "deadline" => stack.with(DeadlineLayer::new(SimDuration::from_millis(100))),
            "admission" => stack.with(AdmissionLayer::new(AdmissionPolicy {
                capacity: Some(16),
                deadline: Some(SimDuration::from_millis(100)),
            })),
            "breaker" => stack.with(BreakerLayer::new(BreakerPolicy::default())),
            "fault" => stack.with(FaultLayer::new(FaultSwitch::new())),
            _ => stack.with(RetryLayer::new(RetryPolicy::supervision())),
        };
    }
    let service: EngineServiceHandle = stack.into_handle();
    let mut engine = Engine::new();
    engine.register("echo", 1, service);
    engine
}

fn dispatch(engine: &mut Engine, env: &mut Env, req: &HttpRequest) {
    engine.schedule_request(env.clock.now(), "echo", req.clone());
    black_box(engine.run_until_idle(env));
}

/// Spans and records one probe at a time, each under its own run id.
struct Probes<'t> {
    tracer: &'t mut Tracer,
    run: u64,
    out: Vec<(String, f64)>,
}

impl Probes<'_> {
    /// Runs `measure` inside a span named `name` and returns its value.
    fn measure<T>(&mut self, name: &str, measure: impl FnOnce() -> T) -> T {
        let span = self.tracer.open(name, self.run, None);
        let v = measure();
        self.tracer.close(span);
        self.run += 1;
        v
    }

    /// Like [`Probes::measure`], and reports the value as metric `name`.
    fn time(&mut self, name: &str, measure: impl FnOnce() -> f64) -> f64 {
        let v = self.measure(name, measure);
        self.out.push((name.to_owned(), v));
        v
    }
}

fn with_hub() -> ObsHandle {
    let h = ObsHandle::new();
    hub::install(&h);
    h
}

/// Runs every probe and returns `(metric, value)` pairs. Each probe is
/// spanned in `tracer` under its own run id, starting at `first_run`.
#[must_use]
pub fn run_all(
    shape: Shape,
    budget: Budget,
    tracer: &mut Tracer,
    first_run: u64,
) -> Vec<(String, f64)> {
    let mut p = Probes {
        tracer,
        run: first_run,
        out: Vec::new(),
    };
    p.time("crypto.aes_ctr_page_ns", || {
        per_call_ns(
            budget,
            || (Aes128::new(&[7; 16]), vec![0u8; 4096]),
            |(aes, page)| aes.ctr_apply(&[1; 16], black_box(page)),
        )
    });
    p.time("crypto.sha256_page_ns", || {
        // Page MAC input: the 8-byte version, then the 4 KiB ciphertext.
        let input = vec![0x5a; 8 + 4096];
        per_call_ns(
            budget,
            || (),
            |()| {
                black_box(Sha256::digest(black_box(&input)));
            },
        )
    });
    p.time("hmee.vault_rw_page_ns", || {
        let secret = vec![0x5a; 4096];
        per_call_ns(budget, enclave, |(env, enclave)| {
            enclave.vault_write(env, "slot", black_box(&secret));
            black_box(enclave.vault_read(env, "slot").expect("slot just written"));
        })
    });
    p.time("hmee.ocall_ns", || {
        per_call_ns(budget, enclave, |(env, enclave)| enclave.ocall(env, 64))
    });
    let serve = |deployment: ModuleDeployment| {
        let req = standard_request(PakaKind::EUdm);
        per_call_ns(
            budget,
            || {
                let (mut env, mut module) = deploy_module(3, PakaKind::EUdm, deployment);
                let _ = module.serve(&mut env, req.clone());
                (env, module)
            },
            |(env, module)| {
                black_box(module.serve(env, req.clone()));
            },
        )
    };
    let sgx = p.time("core.paka_serve_sgx_ns", || {
        serve(ModuleDeployment::Sgx(SgxConfig::default()))
    });
    let container = p.time("core.paka_serve_container_ns", || {
        serve(ModuleDeployment::Container)
    });
    p.out
        .push(("core.enclave_tax_ns".to_owned(), sgx - container));
    p.time("crypto.he_av_ns", || {
        let sub = Subscriber::test(0);
        let mil = Milenage::with_opc(&sub.k, &sub.opc);
        let snn = ServingNetworkName::new("001", "01");
        per_call_ns(
            budget,
            || (),
            |()| {
                black_box(generate_he_av(
                    &mil,
                    black_box(&[0x23; 16]),
                    &[0, 0, 0, 0, 0, 1],
                    &[0x80, 0],
                    &snn,
                ));
            },
        )
    });
    p.time("crypto.x25519_ns", || {
        per_call_ns(
            budget,
            || (),
            |()| {
                black_box(x25519(black_box(&[0x42; 32]), black_box(&[9; 32])));
            },
        )
    });
    p.time("ran.suci_conceal_ns", || {
        per_call_ns(
            budget,
            || (Env::new(4), usim()),
            |(env, usim)| {
                black_box(usim.conceal_identity(env));
            },
        )
    });
    p.time("sim.tls_seal_open_ns", || {
        let record = vec![0x17; 1024];
        per_call_ns(
            budget,
            || {
                let client = TlsIdentity::new("client", [1; 32]);
                let server = TlsIdentity::new("server", [2; 32]);
                let (c, s, _) = establish(&client, &server, [3; 32], [4; 32])
                    .expect("both sides hold the pinned keys");
                (c, s)
            },
            |(c, s)| {
                let sealed = c.seal(black_box(&record));
                black_box(s.open(&sealed).expect("in-order record"));
            },
        )
    });
    p.time("nf.sbi_codec_ns", || {
        let body = sbi_body(shape.sbi);
        per_call_ns(
            budget,
            || (),
            |()| match shape.sbi {
                SbiShape::UdmAka => {
                    let req = UdmAkaRequest::decode(black_box(&body)).expect("valid body");
                    black_box(req.encode());
                }
                SbiShape::Authenticate => {
                    let req = AuthenticateRequest::decode(black_box(&body)).expect("valid body");
                    black_box(req.encode());
                }
            },
        )
    });
    let echo_req = HttpRequest::post("/echo", sbi_body(shape.sbi));
    p.time("sim.engine_dispatch_ns", || {
        let leaf = || {
            let mut engine = Engine::new();
            engine.register("echo", 1, Engine::leaf(service_handle(Echo)));
            (Env::new(5), engine)
        };
        per_call_ns(budget, leaf, |(env, engine)| {
            dispatch(engine, env, &echo_req);
        })
    });
    // Stack traversal: each canonical layer's marginal cost over the
    // stack holding the layers outside it, with a hub installed when the
    // workload records into one.
    let stack_ns = p.measure("mw.stack", || {
        let v = interleaved_ns(
            budget,
            MW_LAYERS.len() + 1,
            |layers| (Env::new(6), echo_engine(layers), shape.hub.then(with_hub)),
            |(env, engine, _)| dispatch(engine, env, &echo_req),
        );
        hub::uninstall();
        v
    });
    for (i, layer) in MW_LAYERS.iter().enumerate() {
        p.out.push((
            format!("mw.traverse_ns.{layer}"),
            stack_ns[i + 1] - stack_ns[i],
        ));
    }
    p.time("obs.count_ns", || {
        let v = per_call_ns(budget, with_hub, |_| {
            hub::count("perfbench", "/probe", labels::ARRIVALS, 1);
        });
        hub::uninstall();
        v
    });
    p.time("obs.span_ns", || {
        let mut t = 0;
        let v = per_call_ns(budget, with_hub, |_| {
            let span = hub::open_span(SpanKind::Request, "perfbench", "/probe", t);
            t += 1;
            hub::close_span(span, t);
        });
        hub::uninstall();
        v
    });
    p.time("scale.route_ns", || {
        let supis: Vec<String> = (0..80).map(test_supi).collect();
        let mut i = 0;
        per_call_ns(
            budget,
            || {
                let mut env = Env::new(7);
                EnclavePool::deploy(
                    &mut env,
                    PakaKind::EUdm,
                    PoolConfig {
                        replicas: shape.replicas,
                        warm_standby: 0,
                        ..PoolConfig::default()
                    },
                )
            },
            |pool| {
                i = (i + 1) % supis.len();
                black_box(pool.route(black_box(&supis[i])));
            },
        )
    });
    p.out
}
