//! Offload backend: the VNF side of the P-AKA split.
//!
//! Paper §IV-A: "the VNFs offload the sensitive functionality to their
//! respective external AKA modules", communicating "over TLS using REST
//! APIs via the OAI Docker bridge". [`PakaClient`] is that path and the
//! remote backend of all three modules: it charges the VNF-side
//! connection work, carries genuinely TLS-encrypted records across the
//! (tappable) bridge, and measures the response time `R` exactly as
//! §V-A2 experiment 4 defines it — "from when a request is sent to the
//! P-AKA module (i.e., from the OAI VNF) until the reception of a
//! response".

use crate::paka::{PakaKind, PakaModule};
use crate::CoreError;
use shield5g_crypto::keys::HeAv;
use shield5g_crypto::secret::SecretBytes;
use shield5g_infra::bridge::BridgeNetwork;
use shield5g_nf::backend::{
    decode_he_av, AmfAkaBackend, AmfAkaRequest, AusfAkaBackend, AusfAkaRequest, AusfAkaResponse,
    BackendOp, UdmAkaBackend, UdmAkaRequest, UdmResyncRequest,
};
use shield5g_nf::NfError;
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::service::Service;
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::tls::{establish, TlsIdentity, TlsSession};
use shield5g_sim::Env;
use std::cell::RefCell;
use std::rc::Rc;

/// VNF-side client work per offload call (TLS client handshake crypto,
/// connection setup syscalls, serialisation on the OAI C++ path).
/// Calibrated per parent VNF against the paper's container-mode stable
/// response times (R^C): the UDM's client path is the heaviest.
fn vnf_client_overhead_nanos(kind: PakaKind) -> u64 {
    match kind {
        PakaKind::EUdm => 310_000,
        PakaKind::EAusf => 200_000,
        PakaKind::EAmf => 110_000,
    }
}

/// TCP + TLS handshake frames exchanged on the bridge before the request
/// (SYN/SYN-ACK/ACK + hellos/finished).
const HANDSHAKE_FRAMES: [usize; 7] = [74, 74, 66, 517, 1290, 324, 280];

/// Latency samples collected at the VNF for one module.
#[derive(Clone, Debug, Default)]
pub struct ModuleMetricsLog {
    /// Response times (R) as seen by the VNF.
    pub response_times: Vec<SimDuration>,
    /// Module-reported functional latencies (L_F).
    pub functional: Vec<SimDuration>,
    /// Module-reported total latencies (L_T).
    pub total: Vec<SimDuration>,
    /// EPC pages paged during requests.
    pub paged: u64,
}

impl ModuleMetricsLog {
    /// Clears all samples (between experiment phases).
    pub fn reset(&mut self) {
        self.response_times.clear();
        self.functional.clear();
        self.total.clear();
        self.paged = 0;
    }
}

/// The module side of the offload path as a discrete-event endpoint: a
/// leaf service the engine schedules like any other, so module worker
/// occupancy (the `sgx.max_threads` ceiling) is enforced by event
/// ordering rather than assumed. Serves requests straight into the
/// wrapped [`PakaModule`] and publishes L_F/L_T/paging samples to the
/// shared metric log.
pub struct PakaEndpoint {
    module: Rc<RefCell<PakaModule>>,
    metrics: Rc<RefCell<ModuleMetricsLog>>,
}

impl std::fmt::Debug for PakaEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PakaEndpoint")
            .field("module", &self.module.borrow().kind().name())
            .finish()
    }
}

impl Service for PakaEndpoint {
    fn handle(&mut self, env: &mut Env, req: HttpRequest) -> HttpResponse {
        let (resp, serve_metrics) = self.module.borrow_mut().serve(env, req);
        let mut m = self.metrics.borrow_mut();
        m.functional.push(serve_metrics.functional);
        m.total.push(serve_metrics.total);
        m.paged += serve_metrics.paged;
        resp
    }
}

/// The VNF-side client for one P-AKA module.
pub struct PakaClient {
    module: Rc<RefCell<PakaModule>>,
    bridge: Rc<RefCell<BridgeNetwork>>,
    vnf_name: String,
    sessions: Option<(TlsSession, TlsSession)>,
    metrics: Rc<RefCell<ModuleMetricsLog>>,
}

impl std::fmt::Debug for PakaClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PakaClient")
            .field("vnf", &self.vnf_name)
            .finish()
    }
}

impl PakaClient {
    /// Creates the client used by `vnf_name` to reach `module` over
    /// `bridge`.
    #[must_use]
    pub fn new(
        module: Rc<RefCell<PakaModule>>,
        bridge: Rc<RefCell<BridgeNetwork>>,
        vnf_name: impl Into<String>,
    ) -> Self {
        PakaClient {
            module,
            bridge,
            vnf_name: vnf_name.into(),
            sessions: None,
            metrics: Rc::new(RefCell::new(ModuleMetricsLog::default())),
        }
    }

    /// The shared metrics log (read by the characterization harness).
    #[must_use]
    pub fn metrics(&self) -> Rc<RefCell<ModuleMetricsLog>> {
        self.metrics.clone()
    }

    /// The module handle.
    #[must_use]
    pub fn module(&self) -> Rc<RefCell<PakaModule>> {
        self.module.clone()
    }

    /// Builds the engine-side endpoint for this client's module, sharing
    /// the metric log so L_F/L_T land next to the R samples.
    #[must_use]
    pub fn endpoint(&self) -> PakaEndpoint {
        PakaEndpoint {
            module: self.module.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Lazily establishes the *cryptographic* session once. The per-call
    /// handshake cost is charged virtually on every request (the modules
    /// negotiate a fresh connection per request, as their 91-syscall
    /// choreography reflects); reusing the cipher state just avoids
    /// re-running real X25519 500× per experiment.
    fn sessions(&mut self, env: &mut Env) -> &mut (TlsSession, TlsSession) {
        if self.sessions.is_none() {
            let client_id = TlsIdentity::new(self.vnf_name.clone(), env.rng.bytes());
            let server_id = self.module.borrow().tls_identity().clone();
            let (c, s, _info) = establish(&client_id, &server_id, env.rng.bytes(), env.rng.bytes())
                .expect("honest local handshake cannot fail");
            self.sessions = Some((c, s));
        }
        self.sessions.as_mut().expect("just initialised")
    }

    /// Attests the module before trusting its TLS identity (the paper's
    /// §VII remote-attestation pattern for "key provisioning and TLS
    /// session establishment"): verifies a quote whose report data binds
    /// the module's TLS public key, against the verifier `service` and a
    /// vendor policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`]/[`CoreError::Hmee`] when the module
    /// cannot quote, the quote fails verification, or the TLS binding does
    /// not match the identity the client would pin.
    pub fn attest_and_pin(
        &mut self,
        platform: &shield5g_hmee::platform::SgxPlatform,
        service: &shield5g_hmee::attest::AttestationService,
    ) -> Result<(), CoreError> {
        let module = self.module.borrow();
        let quote = module.quote_tls_binding(platform)?;
        let mut policy = shield5g_hmee::attest::QuotePolicy::signer(
            crate::paka::PakaModule::expected_mrsigner(),
        );
        policy.allow_debug = true; // stats builds are debug-mode
        service.verify(&quote, &policy).map_err(CoreError::Hmee)?;
        let expected = shield5g_crypto::sha256::Sha256::digest(module.tls_identity().public());
        if quote.report_data[..32] != expected {
            return Err(CoreError::Module {
                module: module.kind().name().to_owned(),
                status: 495,
                detail: "attestation quote does not bind the presented TLS key".into(),
            });
        }
        Ok(())
    }

    /// First half of an offloaded call: charges the VNF-side client work,
    /// carries the handshake and the sealed request record across the
    /// bridge, and returns the request with the instant it was sent.
    fn begin_call(&mut self, env: &mut Env, path: &str, body: Vec<u8>) -> (HttpRequest, SimTime) {
        let kind = self.module.borrow().kind();
        let sent_at = env.clock.now();

        // VNF-side client work (TLS handshake crypto, socket setup).
        env.clock
            .advance(SimDuration::from_nanos(vnf_client_overhead_nanos(kind)));

        // TCP + TLS handshake frames on the bridge.
        let endpoint = kind.endpoint();
        for bytes in HANDSHAKE_FRAMES {
            let dummy = vec![0u8; bytes];
            self.bridge
                .borrow_mut()
                .carry(env, &self.vnf_name, endpoint, &dummy);
        }

        // The request record: genuinely encrypted on the wire.
        let req = HttpRequest::post(path, body);
        let request_bytes = req.to_bytes();
        let record = {
            let (client_sess, _) = self.sessions(env);
            client_sess.seal(&request_bytes)
        };
        self.bridge
            .borrow_mut()
            .carry(env, &self.vnf_name, endpoint, &record);

        (req, sent_at)
    }

    /// A backend operation on the module: the sealed request for the NF
    /// to yield as a `CallOut` to the module's engine endpoint.
    fn offload<T>(&mut self, env: &mut Env, path: &str, body: Vec<u8>) -> BackendOp<T> {
        let (req, sent_at) = self.begin_call(env, path, body);
        BackendOp::Call {
            dest: self.module.borrow().kind().endpoint().to_owned(),
            req,
            sent_at,
        }
    }

    /// Second half of an offloaded call: carries the sealed response record
    /// back across the bridge, charges the client-side read path, logs the
    /// response time R, and maps module failures.
    fn finish_call(
        &mut self,
        env: &mut Env,
        sent_at: SimTime,
        resp: HttpResponse,
    ) -> Result<Vec<u8>, CoreError> {
        let kind = self.module.borrow().kind();
        let endpoint = kind.endpoint();

        // Response record back across the bridge.
        let resp_bytes = resp.to_bytes();
        let resp_record = {
            let (_, server_sess) = self.sessions(env);
            server_sess.seal(&resp_bytes)
        };
        self.bridge
            .borrow_mut()
            .carry(env, endpoint, &self.vnf_name, &resp_record);

        // Client-side record decrypt + read path.
        env.clock.advance(SimDuration::from_micros(9));

        self.metrics
            .borrow_mut()
            .response_times
            .push(env.clock.now() - sent_at);
        if resp.is_success() {
            Ok(resp.body)
        } else {
            Err(CoreError::Module {
                module: kind.name().to_owned(),
                status: resp.status,
                detail: String::from_utf8_lossy(&resp.body).into_owned(),
            })
        }
    }

    /// One offloaded call: returns the response body and logs R/L_F/L_T.
    /// The inline form used by the direct-characterization harness
    /// (§V-A2 experiments 1–3 measure the module in isolation, with no
    /// engine contention in the path): the module's endpoint serves the
    /// request in place of an engine leg.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Module`] for non-2xx module responses.
    pub fn call(&mut self, env: &mut Env, path: &str, body: Vec<u8>) -> Result<Vec<u8>, CoreError> {
        let (req, sent_at) = self.begin_call(env, path, body);
        let resp = self.endpoint().handle(env, req);
        self.finish_call(env, sent_at, resp)
    }
}

fn to_nf_error(e: CoreError) -> NfError {
    match e {
        CoreError::Module {
            module,
            status,
            detail,
        } => {
            if status == 404 {
                NfError::SubscriberUnknown(detail)
            } else if status == 403 {
                NfError::Crypto(shield5g_crypto::CryptoError::MacMismatch)
            } else {
                NfError::Backend(format!("{module}: {status} {detail}"))
            }
        }
        other => NfError::Backend(other.to_string()),
    }
}

impl UdmAkaBackend for PakaClient {
    fn generate_av(&mut self, env: &mut Env, req: &UdmAkaRequest) -> BackendOp<HeAv> {
        self.offload(env, "/eudm/generate-av", req.encode())
    }

    fn finish_generate_av(
        &mut self,
        env: &mut Env,
        sent_at: SimTime,
        resp: HttpResponse,
    ) -> Result<HeAv, NfError> {
        let body = self.finish_call(env, sent_at, resp).map_err(to_nf_error)?;
        decode_he_av(&body)
    }

    fn resynchronise(&mut self, env: &mut Env, req: &UdmResyncRequest) -> BackendOp<[u8; 6]> {
        self.offload(env, "/eudm/resync", req.encode())
    }

    fn finish_resynchronise(
        &mut self,
        env: &mut Env,
        sent_at: SimTime,
        resp: HttpResponse,
    ) -> Result<[u8; 6], NfError> {
        let body = self.finish_call(env, sent_at, resp).map_err(to_nf_error)?;
        body.try_into()
            .map_err(|_| NfError::Backend("bad resync response length".into()))
    }
}

impl AusfAkaBackend for PakaClient {
    fn derive_se(&mut self, env: &mut Env, req: &AusfAkaRequest) -> BackendOp<AusfAkaResponse> {
        self.offload(env, "/eausf/derive-se", req.encode())
    }

    fn finish_derive_se(
        &mut self,
        env: &mut Env,
        sent_at: SimTime,
        resp: HttpResponse,
    ) -> Result<AusfAkaResponse, NfError> {
        let body = self.finish_call(env, sent_at, resp).map_err(to_nf_error)?;
        AusfAkaResponse::decode(&body)
    }
}

impl AmfAkaBackend for PakaClient {
    fn derive_kamf(&mut self, env: &mut Env, req: &AmfAkaRequest) -> BackendOp<SecretBytes<32>> {
        self.offload(env, "/eamf/derive-kamf", req.encode())
    }

    fn finish_derive_kamf(
        &mut self,
        env: &mut Env,
        sent_at: SimTime,
        resp: HttpResponse,
    ) -> Result<SecretBytes<32>, NfError> {
        let body = self.finish_call(env, sent_at, resp).map_err(to_nf_error)?;
        let kamf: [u8; 32] = body
            .try_into()
            .map_err(|_| NfError::Backend("bad kamf response length".into()))?;
        Ok(SecretBytes::new(kamf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paka::{populate_registry, SgxConfig};
    use shield5g_crypto::keys::ServingNetworkName;
    use shield5g_crypto::sqn::Auts;
    use shield5g_hmee::platform::SgxPlatform;
    use shield5g_infra::host::Host;
    use shield5g_infra::image::Registry;

    const K: [u8; 16] = [0x46; 16];
    const OPC: [u8; 16] = [0xcd; 16];
    const SUPI: &str = "imsi-001010000000001";

    fn setup(shielded: bool, kind: PakaKind) -> (Env, PakaClient) {
        let mut env = Env::new(23);
        let mut reg = Registry::new();
        populate_registry(&mut reg);
        let platform = SgxPlatform::new(&mut env);
        let mut host = Host::with_sgx("r450", platform);
        let mut module = if shielded {
            PakaModule::deploy_sgx(&mut env, &mut host, &reg, kind, SgxConfig::default()).unwrap()
        } else {
            PakaModule::deploy_container(&mut env, &mut host, &reg, kind).unwrap()
        };
        if kind == PakaKind::EUdm {
            module.provision_subscriber_key(&mut env, SUPI, K);
        }
        let bridge = Rc::new(RefCell::new(BridgeNetwork::new("br-oai")));
        let client = PakaClient::new(Rc::new(RefCell::new(module)), bridge, "udm.oai");
        (env, client)
    }

    type Finish<T> = fn(&mut PakaClient, &mut Env, SimTime, HttpResponse) -> Result<T, NfError>;

    /// Drives one backend operation the way an NF does: a `Call` is
    /// served by the module's engine endpoint and its response handed to
    /// the matching `finish_*`.
    fn drive<T>(
        env: &mut Env,
        client: &mut PakaClient,
        op: BackendOp<T>,
        finish: Finish<T>,
    ) -> Result<T, NfError> {
        match op {
            BackendOp::Done(r) => r,
            BackendOp::Call { dest, req, sent_at } => {
                assert_eq!(dest, client.module().borrow().kind().endpoint());
                let resp = client.endpoint().handle(env, req);
                finish(client, env, sent_at, resp)
            }
        }
    }

    fn generate_av(
        env: &mut Env,
        client: &mut PakaClient,
        req: &UdmAkaRequest,
    ) -> Result<HeAv, NfError> {
        let op = client.generate_av(env, req);
        drive(env, client, op, PakaClient::finish_generate_av)
    }

    fn resynchronise(
        env: &mut Env,
        client: &mut PakaClient,
        auts: Auts,
    ) -> Result<[u8; 6], NfError> {
        let req = UdmResyncRequest {
            supi: SUPI.into(),
            opc: OPC.into(),
            rand: [0x23; 16],
            auts,
        };
        let op = UdmAkaBackend::resynchronise(client, env, &req);
        drive(env, client, op, PakaClient::finish_resynchronise)
    }

    fn av_request() -> UdmAkaRequest {
        UdmAkaRequest {
            supi: SUPI.into(),
            opc: OPC.into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 7],
            amf_field: [0x80, 0],
            snn: ServingNetworkName::new("001", "01"),
        }
    }

    #[test]
    fn remote_udm_backend_generates_av() {
        let (mut env, mut client) = setup(true, PakaKind::EUdm);
        let av = generate_av(&mut env, &mut client, &av_request()).unwrap();
        let mil = shield5g_crypto::milenage::Milenage::with_opc(&K, &OPC);
        let snn = ServingNetworkName::new("001", "01");
        let ue =
            shield5g_crypto::keys::ue_process_challenge(&mil, &av.rand, &av.autn, &snn).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
    }

    #[test]
    fn response_time_logged_and_sgx_slower() {
        let (mut env_c, mut bc) = setup(false, PakaKind::EUdm);
        let (mut env_s, mut bs) = setup(true, PakaKind::EUdm);
        // Warm both, then sample.
        for _ in 0..=20 {
            generate_av(&mut env_c, &mut bc, &av_request()).unwrap();
            generate_av(&mut env_s, &mut bs, &av_request()).unwrap();
        }
        let mc = bc.metrics();
        let ms = bs.metrics();
        let rc = crate::stats::Summary::of(&mc.borrow().response_times[1..]);
        let rs = crate::stats::Summary::of(&ms.borrow().response_times[1..]);
        let ratio = rs.median_ratio_to(&rc);
        assert!(ratio > 1.8 && ratio < 3.5, "R_S/R_C = {ratio:.2}");
    }

    #[test]
    fn bridge_sees_only_ciphertext() {
        let (mut env, mut client) = setup(false, PakaKind::EUdm);
        client.bridge.borrow_mut().enable_tap();
        let req = av_request();
        client
            .call(&mut env, "/eudm/generate-av", req.encode())
            .unwrap();
        let bridge = client.bridge.borrow();
        assert!(!bridge.captured().is_empty());
        // Neither OPc nor the path appear in the clear on the wire.
        assert!(!bridge.captured_contains(&OPC));
        assert!(!bridge.captured_contains(b"/eudm/generate-av"));
    }

    #[test]
    fn module_error_propagates_as_subscriber_unknown() {
        let (mut env, mut client) = setup(true, PakaKind::EUdm);
        let mut req = av_request();
        req.supi = "imsi-001010000000042".into();
        assert!(matches!(
            generate_av(&mut env, &mut client, &req),
            Err(NfError::SubscriberUnknown(_))
        ));
    }

    #[test]
    fn remote_ausf_and_amf_backends() {
        let (mut env, mut ausf) = setup(true, PakaKind::EAusf);
        let op = ausf.derive_se(
            &mut env,
            &AusfAkaRequest {
                rand: [1; 16],
                xres_star: [2; 16],
                kausf: [3; 32].into(),
                snn: ServingNetworkName::new("001", "01"),
            },
        );
        let resp = drive(&mut env, &mut ausf, op, PakaClient::finish_derive_se).unwrap();
        assert_eq!(
            resp.hxres_star,
            shield5g_crypto::keys::derive_hxres_star(&[1; 16], &[2; 16])
        );

        let (mut env2, mut amf) = setup(false, PakaKind::EAmf);
        let op = amf.derive_kamf(
            &mut env2,
            &AmfAkaRequest {
                kseaf: [4; 32].into(),
                supi: SUPI.into(),
                abba: [0, 0],
            },
        );
        let kamf = drive(&mut env2, &mut amf, op, PakaClient::finish_derive_kamf).unwrap();
        assert_eq!(
            kamf,
            shield5g_crypto::keys::derive_kamf(&[4; 32], SUPI, &[0, 0])
        );
    }

    #[test]
    fn remote_resync_round_trip() {
        let (mut env, mut client) = setup(true, PakaKind::EUdm);
        let mil = shield5g_crypto::milenage::Milenage::with_opc(&K, &OPC);
        let sqn_ms = [0, 0, 0, 0, 3, 3];
        let auts = Auts::generate(&mil, &[0x23; 16], &sqn_ms);
        assert_eq!(resynchronise(&mut env, &mut client, auts).unwrap(), sqn_ms);
    }

    #[test]
    fn forged_auts_is_rejected_as_crypto_failure() {
        let (mut env, mut client) = setup(true, PakaKind::EUdm);
        let mil = shield5g_crypto::milenage::Milenage::with_opc(&K, &OPC);
        let mut auts = Auts::generate(&mil, &[0x23; 16], &[0, 0, 0, 0, 3, 3]);
        auts.mac_s[0] ^= 1;
        // The module answers 403, which the client maps back to MAC-S
        // failure rather than a generic backend error.
        assert!(matches!(
            resynchronise(&mut env, &mut client, auts),
            Err(NfError::Crypto(_))
        ));
    }
}
