//! Pluggable AKA computation backends.
//!
//! The paper's core move (§IV-A): "the monolithic OAI VNFs (UDM, AUSF,
//! AMF) are modified so that during UE registration, the VNFs offload the
//! sensitive functionality to their respective external AKA modules."
//! These traits are the seam. [`LocalUdmAka`]/[`LocalAusfAka`]/
//! [`LocalAmfAka`] execute in-process (the monolithic baseline, holding
//! long-term keys in ordinary memory — the attack target); the
//! `shield5g-core` crate provides container- and enclave-deployed
//! implementations with the exact Table I enclave I/O.

use crate::NfError;
use shield5g_crypto::keys::{
    self, derive_hxres_star, derive_kamf, derive_kseaf, HeAv, ServingNetworkName,
};
use shield5g_crypto::milenage::Milenage;
use shield5g_crypto::secret::SecretBytes;
use shield5g_crypto::sqn::Auts;
use shield5g_sim::codec::{Reader, Writer};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::{SimDuration, SimTime};
use shield5g_sim::Env;
use std::collections::BTreeMap;

/// Native execution time of the UDM AKA function (AV generation) in the
/// OAI C++ handler path — the paper's container-mode L_F median for eUDM
/// (Fig. 9a, ~47 µs).
pub const UDM_FUNC_NANOS: u64 = 47_000;
/// Native execution time of the AUSF AKA function (HXRES* + K_SEAF),
/// container-mode L_F median for eAUSF (~38 µs).
pub const AUSF_FUNC_NANOS: u64 = 38_000;
/// Native execution time of the AMF AKA function (K_AMF), container-mode
/// L_F median for eAMF (~31 µs).
pub const AMF_FUNC_NANOS: u64 = 31_000;

/// Inputs to the UDM AKA computation — exactly the paper's Table I eUDM
/// enclave inputs (OPc 16 B, RAND 16 B, SQN 6 B, AMF field 2 B) plus the
/// subscriber/serving-network identifiers needed to select the long-term
/// key `K`, which never leaves the secure module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmAkaRequest {
    /// Subscriber identity (selects `K` inside the module).
    pub supi: String,
    /// Operator variant constant (secret subscriber data; zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// Challenge randomness (generated by the UDM, forwarded in).
    pub rand: [u8; 16],
    /// Fresh sequence number from the UDR.
    pub sqn: [u8; 6],
    /// Authentication management field.
    pub amf_field: [u8; 2],
    /// Serving network name (binds K_AUSF and XRES*).
    pub snn: ServingNetworkName,
}

impl UdmAkaRequest {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.supi)
            .put_array(self.opc.expose())
            .put_array(&self.rand)
            .put_array(&self.sqn)
            .put_array(&self.amf_field)
            .put_str(&self.snn.to_string());
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let supi = r.str()?;
        let opc = SecretBytes::new(r.array()?);
        let rand = r.array()?;
        let sqn = r.array()?;
        let amf_field = r.array()?;
        let snn_str = r.str()?;
        r.finish()?;
        Ok(UdmAkaRequest {
            supi,
            opc,
            rand,
            sqn,
            amf_field,
            snn: parse_snn(&snn_str)?,
        })
    }
}

/// Parses a serving-network-name string back into its typed form.
fn parse_snn(s: &str) -> Result<ServingNetworkName, NfError> {
    // Format: 5G:mnc<MNC>.mcc<MCC>.3gppnetwork.org
    let rest = s
        .strip_prefix("5G:mnc")
        .ok_or_else(|| NfError::Protocol(format!("bad SNN {s:?}")))?;
    let (mnc, rest) = rest
        .split_once(".mcc")
        .ok_or_else(|| NfError::Protocol(format!("bad SNN {s:?}")))?;
    let (mcc, _) = rest
        .split_once(".3gppnetwork.org")
        .ok_or_else(|| NfError::Protocol(format!("bad SNN {s:?}")))?;
    Ok(ServingNetworkName::new(mcc, mnc))
}

fn put_he_av(w: &mut Writer, av: &HeAv) {
    w.put_array(&av.rand)
        .put_array(&av.autn)
        .put_array(&av.xres_star)
        .put_array(av.kausf.expose());
}

fn read_he_av(r: &mut Reader<'_>) -> Result<HeAv, NfError> {
    Ok(HeAv {
        rand: r.array()?,
        autn: r.array()?,
        xres_star: r.array()?,
        kausf: SecretBytes::new(r.array()?),
    })
}

/// Encodes an HE AV for the module wire.
#[must_use]
pub fn encode_he_av(av: &HeAv) -> Vec<u8> {
    let mut w = Writer::new();
    put_he_av(&mut w, av);
    w.into_bytes()
}

/// Decodes an HE AV from the module wire.
///
/// # Errors
///
/// Returns [`NfError::Sim`] on framing violations.
pub fn decode_he_av(bytes: &[u8]) -> Result<HeAv, NfError> {
    let mut r = Reader::new(bytes);
    let av = read_he_av(&mut r)?;
    r.finish()?;
    Ok(av)
}

/// Inputs to the batched UDM AV pre-generation endpoint.
///
/// One enclave round trip pays the full 91-syscall connection
/// choreography; amortising it across a batch of AVs is what makes AV
/// pre-generation worthwhile. The request carries a start SQN and a RAND
/// seed; the module derives per-AV values itself so successive AVs stay
/// unlinkable on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmAkaBatchRequest {
    /// Subscriber identity (selects `K` inside the module).
    pub supi: String,
    /// Operator variant constant (secret subscriber data; zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// Seed for the per-AV challenge randomness (see [`batch_rand`]).
    pub rand_seed: [u8; 16],
    /// SQN of the first AV; AV `i` uses `sqn_start + i`.
    pub sqn_start: [u8; 6],
    /// Authentication management field.
    pub amf_field: [u8; 2],
    /// Serving network name.
    pub snn: ServingNetworkName,
    /// Number of AVs to generate (1..=[`MAX_AV_BATCH`]).
    pub count: u32,
}

/// Upper bound on a pre-generation batch — keeps a single request's
/// in-enclave compute bounded.
pub const MAX_AV_BATCH: u32 = 256;

impl UdmAkaBatchRequest {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.supi)
            .put_array(self.opc.expose())
            .put_array(&self.rand_seed)
            .put_array(&self.sqn_start)
            .put_array(&self.amf_field)
            .put_str(&self.snn.to_string())
            .put_u32(self.count);
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let supi = r.str()?;
        let opc = SecretBytes::new(r.array()?);
        let rand_seed = r.array()?;
        let sqn_start = r.array()?;
        let amf_field = r.array()?;
        let snn_str = r.str()?;
        let count = r.u32()?;
        r.finish()?;
        Ok(UdmAkaBatchRequest {
            supi,
            opc,
            rand_seed,
            sqn_start,
            amf_field,
            snn: parse_snn(&snn_str)?,
            count,
        })
    }
}

/// Adds `delta` to a 48-bit big-endian SQN, wrapping modulo 2^48 (the
/// TS 33.102 SQN arithmetic).
#[must_use]
pub fn sqn_add(sqn: &[u8; 6], delta: u64) -> [u8; 6] {
    let mut wide = [0u8; 8];
    wide[2..].copy_from_slice(sqn);
    let v = u64::from_be_bytes(wide).wrapping_add(delta) & 0xffff_ffff_ffff;
    let out = v.to_be_bytes();
    out[2..].try_into().expect("6 bytes")
}

/// Derives the challenge RAND for one AV of a batch: the first 16 bytes
/// of SHA-256(seed ‖ sqn). Distinct SQNs give independent-looking RANDs
/// from a single seed, so the batch request stays Table-I-sized.
#[must_use]
pub fn batch_rand(rand_seed: &[u8; 16], sqn: &[u8; 6]) -> [u8; 16] {
    let mut buf = [0u8; 22];
    buf[..16].copy_from_slice(rand_seed);
    buf[16..].copy_from_slice(sqn);
    let digest = shield5g_crypto::sha256::Sha256::digest(&buf);
    digest[..16].try_into().expect("16 bytes")
}

/// Encodes a batch of HE AVs (count-prefixed) for the module wire.
#[must_use]
pub fn encode_he_av_batch(avs: &[HeAv]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(avs.len() as u32);
    for av in avs {
        put_he_av(&mut w, av);
    }
    w.into_bytes()
}

/// Decodes a batch of HE AVs from the module wire.
///
/// # Errors
///
/// Returns [`NfError::Sim`] on framing violations and
/// [`NfError::Protocol`] on an implausible count.
pub fn decode_he_av_batch(bytes: &[u8]) -> Result<Vec<HeAv>, NfError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()?;
    if count > MAX_AV_BATCH {
        return Err(NfError::Protocol(format!("implausible AV batch {count}")));
    }
    let mut avs = Vec::with_capacity(count as usize);
    for _ in 0..count {
        avs.push(read_he_av(&mut r)?);
    }
    r.finish()?;
    Ok(avs)
}

/// Inputs to the UDM's AUTS re-synchronisation check: the subscriber
/// (selects `K` inside the module), OPc, the RAND that failed at the USIM
/// and the AUTS it returned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdmResyncRequest {
    /// Subscriber identity.
    pub supi: String,
    /// Operator variant constant (zeroizes on drop).
    pub opc: SecretBytes<16>,
    /// The challenge the USIM rejected.
    pub rand: [u8; 16],
    /// The USIM's re-synchronisation token.
    pub auts: Auts,
}

impl UdmResyncRequest {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str(&self.supi)
            .put_array(self.opc.expose())
            .put_array(&self.rand)
            .put_array(&self.auts.sqn_ms_xor_ak)
            .put_array(&self.auts.mac_s);
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let req = UdmResyncRequest {
            supi: r.str()?,
            opc: SecretBytes::new(r.array()?),
            rand: r.array()?,
            auts: Auts {
                sqn_ms_xor_ak: r.array()?,
                mac_s: r.array()?,
            },
        };
        r.finish()?;
        Ok(req)
    }
}

/// Inputs to the AUSF AKA computation — Table I eAUSF enclave inputs
/// (RAND 16 B, XRES* 16 B, SNN, K_AUSF 32 B).
#[derive(Clone, PartialEq, Eq)]
pub struct AusfAkaRequest {
    /// Challenge randomness from the HE AV.
    pub rand: [u8; 16],
    /// Expected response from the HE AV.
    pub xres_star: [u8; 16],
    /// UDM/AUSF shared key from the HE AV (zeroizes on drop).
    pub kausf: SecretBytes<32>,
    /// Serving network name.
    pub snn: ServingNetworkName,
}

impl std::fmt::Debug for AusfAkaRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AusfAkaRequest")
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl AusfAkaRequest {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_array(&self.rand)
            .put_array(&self.xres_star)
            .put_array(self.kausf.expose())
            .put_str(&self.snn.to_string());
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let rand = r.array()?;
        let xres_star = r.array()?;
        let kausf = SecretBytes::new(r.array()?);
        let snn_str = r.str()?;
        r.finish()?;
        Ok(AusfAkaRequest {
            rand,
            xres_star,
            kausf,
            snn: parse_snn(&snn_str)?,
        })
    }
}

/// Outputs of the AUSF AKA computation — Table I eAUSF enclave outputs
/// (HXRES* and K_SEAF).
#[derive(Clone, PartialEq, Eq)]
pub struct AusfAkaResponse {
    /// Hashed expected response for the SE AV.
    pub hxres_star: [u8; 16],
    /// The serving anchor key (held by AUSF until RES* confirmation;
    /// zeroizes on drop).
    pub kseaf: SecretBytes<32>,
}

impl std::fmt::Debug for AusfAkaResponse {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AusfAkaResponse")
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl AusfAkaResponse {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_array(&self.hxres_star).put_array(self.kseaf.expose());
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let resp = AusfAkaResponse {
            hxres_star: r.array()?,
            kseaf: SecretBytes::new(r.array()?),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Inputs to the AMF AKA computation — Table I eAMF enclave input
/// (K_SEAF 32 B) plus the K_AMF binding parameters.
#[derive(Clone, PartialEq, Eq)]
pub struct AmfAkaRequest {
    /// The anchor key released by AUSF after confirmation (zeroizes on
    /// drop).
    pub kseaf: SecretBytes<32>,
    /// Subscriber identity (K_AMF binds to SUPI).
    pub supi: String,
    /// Anti-bidding-down parameter.
    pub abba: [u8; 2],
}

impl std::fmt::Debug for AmfAkaRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmfAkaRequest")
            .field("supi", &self.supi)
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl AmfAkaRequest {
    /// Encodes to the module wire format.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_array(self.kseaf.expose())
            .put_str(&self.supi)
            .put_array(&self.abba);
        w.into_bytes()
    }

    /// Decodes the module wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let kseaf = SecretBytes::new(r.array()?);
        let supi = r.str()?;
        let abba = r.array()?;
        r.finish()?;
        Ok(AmfAkaRequest { kseaf, supi, abba })
    }
}

/// The one call shape of every backend operation.
///
/// Under the discrete-event engine a backend that offloads to a remote
/// P-AKA module cannot block on the round trip: an operation either
/// computes the result in place ([`BackendOp::Done`] — the local,
/// in-process backends) or returns the sealed request for the host NF to
/// yield as a `Step::CallOut` ([`BackendOp::Call`]); when the module's
/// response event arrives, the NF hands it to the matching `finish_*`
/// together with `sent_at`.
pub enum BackendOp<T> {
    /// Computed without a network round trip.
    Done(Result<T, NfError>),
    /// The backend needs a round trip to its shielded module.
    Call {
        /// Engine endpoint of the module (e.g. `eudm-paka.oai`).
        dest: String,
        /// The (already sealed and latency-charged) outbound request.
        req: HttpRequest,
        /// When the VNF issued the request (anchors the response time R).
        sent_at: SimTime,
    },
}

impl<T> std::fmt::Debug for BackendOp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendOp::Done(r) => f
                .debug_tuple("Done")
                .field(&r.as_ref().map(|_| "..").map_err(|e| e.to_string()))
                .finish(),
            BackendOp::Call { dest, .. } => f.debug_struct("Call").field("dest", dest).finish(),
        }
    }
}

fn no_call_pending<T>() -> Result<T, NfError> {
    Err(NfError::Sim(shield5g_sim::SimError::MalformedHttp(
        "backend finish without a pending call".into(),
    )))
}

/// The UDM's sensitive computation: HE AV generation and AUTS handling.
pub trait UdmAkaBackend {
    /// Generates the home-environment authentication vector. A
    /// [`BackendOp::Done`] error is [`NfError::SubscriberUnknown`] when no
    /// `K` is provisioned for the SUPI.
    fn generate_av(&mut self, env: &mut Env, req: &UdmAkaRequest) -> BackendOp<HeAv>;

    /// Completes an earlier [`UdmAkaBackend::generate_av`] that returned
    /// [`BackendOp::Call`].
    ///
    /// # Errors
    ///
    /// Returns [`NfError::SubscriberUnknown`] for an unprovisioned SUPI,
    /// or backend transport failures; the default (local backends never
    /// call out) rejects the response.
    fn finish_generate_av(
        &mut self,
        _env: &mut Env,
        _sent_at: SimTime,
        _resp: HttpResponse,
    ) -> Result<HeAv, NfError> {
        no_call_pending()
    }

    /// Verifies an AUTS re-synchronisation token, yielding `SQN_MS`. A
    /// [`BackendOp::Done`] error is [`NfError::Crypto`] when MAC-S fails.
    fn resynchronise(&mut self, env: &mut Env, req: &UdmResyncRequest) -> BackendOp<[u8; 6]>;

    /// Completes an earlier [`UdmAkaBackend::resynchronise`] that returned
    /// [`BackendOp::Call`].
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Crypto`] when MAC-S fails; the default rejects
    /// the response.
    fn finish_resynchronise(
        &mut self,
        _env: &mut Env,
        _sent_at: SimTime,
        _resp: HttpResponse,
    ) -> Result<[u8; 6], NfError> {
        no_call_pending()
    }
}

/// The AUSF's sensitive computation: SE parameters from the HE AV.
pub trait AusfAkaBackend {
    /// Derives HXRES* and K_SEAF.
    fn derive_se(&mut self, env: &mut Env, req: &AusfAkaRequest) -> BackendOp<AusfAkaResponse>;

    /// Completes an earlier [`AusfAkaBackend::derive_se`] that returned
    /// [`BackendOp::Call`].
    ///
    /// # Errors
    ///
    /// Returns backend transport failures; the default rejects the
    /// response.
    fn finish_derive_se(
        &mut self,
        _env: &mut Env,
        _sent_at: SimTime,
        _resp: HttpResponse,
    ) -> Result<AusfAkaResponse, NfError> {
        no_call_pending()
    }
}

/// The AMF's sensitive computation: K_AMF derivation.
pub trait AmfAkaBackend {
    /// Derives K_AMF from K_SEAF.
    fn derive_kamf(&mut self, env: &mut Env, req: &AmfAkaRequest) -> BackendOp<SecretBytes<32>>;

    /// Completes an earlier [`AmfAkaBackend::derive_kamf`] that returned
    /// [`BackendOp::Call`].
    ///
    /// # Errors
    ///
    /// Returns backend transport failures; the default rejects the
    /// response.
    fn finish_derive_kamf(
        &mut self,
        _env: &mut Env,
        _sent_at: SimTime,
        _resp: HttpResponse,
    ) -> Result<SecretBytes<32>, NfError> {
        no_call_pending()
    }
}

/// In-process UDM AKA (the monolithic baseline). Long-term keys live in
/// ordinary process memory — precisely what §III's attacker harvests.
#[derive(Default)]
pub struct LocalUdmAka {
    keys: BTreeMap<String, SecretBytes<16>>,
}

impl std::fmt::Debug for LocalUdmAka {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalUdmAka")
            .field("subscribers", &self.keys.len())
            .field("keys", &"<redacted>")
            .finish()
    }
}

impl LocalUdmAka {
    /// An empty backend.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Provisions a subscriber's long-term key.
    pub fn provision(&mut self, supi: impl Into<String>, k: [u8; 16]) {
        self.keys.insert(supi.into(), SecretBytes::new(k));
    }

    /// Raw view of the key table — the attack surface the enclave version
    /// eliminates (used by the attack-lab example to show plaintext keys
    /// in process memory).
    #[must_use]
    pub fn exposed_key_material(&self) -> Vec<(String, [u8; 16])> {
        self.keys
            .iter()
            .map(|(s, k)| (s.clone(), *k.expose()))
            .collect()
    }

    fn milenage_for(&self, supi: &str, opc: &[u8; 16]) -> Result<Milenage, NfError> {
        let k = self
            .keys
            .get(supi)
            .ok_or_else(|| NfError::SubscriberUnknown(supi.to_owned()))?;
        Ok(Milenage::with_opc(k.expose(), opc))
    }
}

impl UdmAkaBackend for LocalUdmAka {
    fn generate_av(&mut self, env: &mut Env, req: &UdmAkaRequest) -> BackendOp<HeAv> {
        BackendOp::Done(self.milenage_for(&req.supi, req.opc.expose()).map(|mil| {
            env.clock.advance(SimDuration::from_nanos(UDM_FUNC_NANOS));
            keys::generate_he_av(&mil, &req.rand, &req.sqn, &req.amf_field, &req.snn)
        }))
    }

    fn resynchronise(&mut self, env: &mut Env, req: &UdmResyncRequest) -> BackendOp<[u8; 6]> {
        BackendOp::Done(
            self.milenage_for(&req.supi, req.opc.expose())
                .and_then(|mil| {
                    env.clock
                        .advance(SimDuration::from_nanos(UDM_FUNC_NANOS / 2));
                    Ok(req.auts.verify(&mil, &req.rand)?)
                }),
        )
    }
}

/// In-process AUSF AKA (monolithic baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalAusfAka;

impl LocalAusfAka {
    /// Creates the backend.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl AusfAkaBackend for LocalAusfAka {
    fn derive_se(&mut self, env: &mut Env, req: &AusfAkaRequest) -> BackendOp<AusfAkaResponse> {
        env.clock.advance(SimDuration::from_nanos(AUSF_FUNC_NANOS));
        BackendOp::Done(Ok(AusfAkaResponse {
            hxres_star: derive_hxres_star(&req.rand, &req.xres_star),
            kseaf: SecretBytes::new(derive_kseaf(req.kausf.expose(), &req.snn)),
        }))
    }
}

/// In-process AMF AKA (monolithic baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalAmfAka;

impl LocalAmfAka {
    /// Creates the backend.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl AmfAkaBackend for LocalAmfAka {
    fn derive_kamf(&mut self, env: &mut Env, req: &AmfAkaRequest) -> BackendOp<SecretBytes<32>> {
        env.clock.advance(SimDuration::from_nanos(AMF_FUNC_NANOS));
        BackendOp::Done(Ok(SecretBytes::new(derive_kamf(
            req.kseaf.expose(),
            &req.supi,
            &req.abba,
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snn() -> ServingNetworkName {
        ServingNetworkName::new("001", "01")
    }

    /// Unwraps an in-process backend's result; local backends never
    /// call out.
    fn done<T>(op: BackendOp<T>) -> Result<T, NfError> {
        match op {
            BackendOp::Done(r) => r,
            BackendOp::Call { dest, .. } => panic!("local backend called out to {dest}"),
        }
    }

    fn udm_request() -> UdmAkaRequest {
        UdmAkaRequest {
            supi: "imsi-001010000000001".into(),
            opc: [0xcd; 16].into(),
            rand: [0x23; 16],
            sqn: [0, 0, 0, 0, 0, 33],
            amf_field: [0x80, 0],
            snn: snn(),
        }
    }

    #[test]
    fn snn_string_round_trip() {
        let s = snn();
        assert_eq!(parse_snn(&s.to_string()).unwrap(), s);
        assert!(parse_snn("garbage").is_err());
    }

    #[test]
    fn udm_request_wire_round_trip() {
        let req = udm_request();
        assert_eq!(UdmAkaRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn udm_request_wire_sizes_match_table1() {
        // Table I eUDM inputs: OPc 16 + RAND 16 + SQN 6 + AMF 2 = 40 bytes
        // of cryptographic parameters (plus identity strings for routing).
        let req = udm_request();
        let crypto_bytes = 16 + 16 + 6 + 2;
        assert!(req.encode().len() >= crypto_bytes);
    }

    #[test]
    fn ausf_and_amf_wire_round_trips() {
        let areq = AusfAkaRequest {
            rand: [1; 16],
            xres_star: [2; 16],
            kausf: [3; 32].into(),
            snn: snn(),
        };
        assert_eq!(AusfAkaRequest::decode(&areq.encode()).unwrap(), areq);
        let aresp = AusfAkaResponse {
            hxres_star: [4; 16],
            kseaf: [5; 32].into(),
        };
        assert_eq!(AusfAkaResponse::decode(&aresp.encode()).unwrap(), aresp);
        let mreq = AmfAkaRequest {
            kseaf: [6; 32].into(),
            supi: "imsi-1".into(),
            abba: [0, 0],
        };
        assert_eq!(AmfAkaRequest::decode(&mreq.encode()).unwrap(), mreq);
    }

    #[test]
    fn batch_request_wire_round_trip() {
        let req = UdmAkaBatchRequest {
            supi: "imsi-001010000000001".into(),
            opc: [0xcd; 16].into(),
            rand_seed: [0x23; 16],
            sqn_start: [0, 0, 0, 0, 0, 33],
            amf_field: [0x80, 0],
            snn: snn(),
            count: 8,
        };
        assert_eq!(UdmAkaBatchRequest::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn sqn_add_carries_and_wraps() {
        assert_eq!(sqn_add(&[0, 0, 0, 0, 0, 0xff], 1), [0, 0, 0, 0, 1, 0]);
        assert_eq!(sqn_add(&[0, 0, 0, 0, 0, 1], 5), [0, 0, 0, 0, 0, 6]);
        assert_eq!(sqn_add(&[0xff; 6], 1), [0; 6]);
    }

    #[test]
    fn batch_rand_distinct_per_sqn() {
        let seed = [7; 16];
        let a = batch_rand(&seed, &[0, 0, 0, 0, 0, 1]);
        let b = batch_rand(&seed, &[0, 0, 0, 0, 0, 2]);
        assert_ne!(a, b);
        assert_eq!(a, batch_rand(&seed, &[0, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn he_av_batch_wire_round_trip() {
        let avs: Vec<HeAv> = (0..3u8)
            .map(|i| HeAv {
                rand: [i; 16],
                autn: [i + 1; 16],
                xres_star: [i + 2; 16],
                kausf: [i + 3; 32].into(),
            })
            .collect();
        assert_eq!(decode_he_av_batch(&encode_he_av_batch(&avs)).unwrap(), avs);
        assert_eq!(
            decode_he_av_batch(&encode_he_av_batch(&[])).unwrap(),
            vec![]
        );
        let mut bogus = Writer::new();
        bogus.put_u32(MAX_AV_BATCH + 1);
        assert!(decode_he_av_batch(&bogus.into_bytes()).is_err());
    }

    #[test]
    fn he_av_wire_round_trip() {
        let av = HeAv {
            rand: [1; 16],
            autn: [2; 16],
            xres_star: [3; 16],
            kausf: [4; 32].into(),
        };
        assert_eq!(decode_he_av(&encode_he_av(&av)).unwrap(), av);
        assert!(decode_he_av(&[0; 10]).is_err());
    }

    #[test]
    fn local_udm_generates_verifiable_av() {
        let mut env = Env::new(1);
        let mut backend = LocalUdmAka::new();
        backend.provision("imsi-001010000000001", [0x46; 16]);
        let req = udm_request();
        let av = done(backend.generate_av(&mut env, &req)).unwrap();
        // UE side (same K/OPc) must accept.
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let ue =
            shield5g_crypto::keys::ue_process_challenge(&mil, &req.rand, &av.autn, &snn()).unwrap();
        assert_eq!(ue.res_star, av.xres_star);
    }

    #[test]
    fn local_udm_unknown_subscriber() {
        let mut env = Env::new(1);
        let mut backend = LocalUdmAka::new();
        assert!(matches!(
            done(backend.generate_av(&mut env, &udm_request())),
            Err(NfError::SubscriberUnknown(_))
        ));
    }

    #[test]
    fn local_backends_charge_functional_time() {
        let mut env = Env::new(1);
        let mut udm = LocalUdmAka::new();
        udm.provision("imsi-001010000000001", [0x46; 16]);
        let t0 = env.clock.now();
        done(udm.generate_av(&mut env, &udm_request())).unwrap();
        assert_eq!((env.clock.now() - t0).as_nanos(), UDM_FUNC_NANOS);

        let mut ausf = LocalAusfAka::new();
        let t1 = env.clock.now();
        done(ausf.derive_se(
            &mut env,
            &AusfAkaRequest {
                rand: [0; 16],
                xres_star: [0; 16],
                kausf: [0; 32].into(),
                snn: snn(),
            },
        ))
        .unwrap();
        assert_eq!((env.clock.now() - t1).as_nanos(), AUSF_FUNC_NANOS);

        let mut amf = LocalAmfAka::new();
        let t2 = env.clock.now();
        done(amf.derive_kamf(
            &mut env,
            &AmfAkaRequest {
                kseaf: [0; 32].into(),
                supi: "s".into(),
                abba: [0, 0],
            },
        ))
        .unwrap();
        assert_eq!((env.clock.now() - t2).as_nanos(), AMF_FUNC_NANOS);
    }

    #[test]
    fn resync_round_trip_through_backend() {
        let mut env = Env::new(1);
        let mut backend = LocalUdmAka::new();
        backend.provision("imsi-001010000000001", [0x46; 16]);
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let rand = [0x23; 16];
        let sqn_ms = [0, 0, 0, 0, 1, 99];
        let req = UdmResyncRequest {
            supi: "imsi-001010000000001".into(),
            opc: [0xcd; 16].into(),
            rand,
            auts: Auts::generate(&mil, &rand, &sqn_ms),
        };
        let recovered = done(backend.resynchronise(&mut env, &req)).unwrap();
        assert_eq!(recovered, sqn_ms);
    }

    #[test]
    fn resync_request_wire_round_trip() {
        let mil = Milenage::with_opc(&[0x46; 16], &[0xcd; 16]);
        let req = UdmResyncRequest {
            supi: "imsi-001010000000001".into(),
            opc: [0xcd; 16].into(),
            rand: [0x23; 16],
            auts: Auts::generate(&mil, &[0x23; 16], &[0, 0, 0, 0, 1, 99]),
        };
        let bytes = req.encode();
        // supi (u32 length + 20) + OPc 16 + RAND 16 + SQN⊕AK 6 + MAC-S 8.
        assert_eq!(bytes.len(), 4 + 20 + 16 + 16 + 6 + 8);
        assert_eq!(UdmResyncRequest::decode(&bytes).unwrap(), req);
        assert!(UdmResyncRequest::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn exposed_key_material_is_readable() {
        // The monolithic backend's weakness, by design.
        let mut backend = LocalUdmAka::new();
        backend.provision("imsi-001010000000002", [7; 16]);
        backend.provision("imsi-001010000000001", [6; 16]);
        let keys = backend.exposed_key_material();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, "imsi-001010000000001");
        assert_eq!(keys[0].1, [6; 16]);
    }

    proptest::proptest! {
        #[test]
        fn backend_decoders_never_panic(bytes in proptest::collection::vec(0u8.., 0..96)) {
            let _ = UdmAkaRequest::decode(&bytes);
            let _ = UdmAkaBatchRequest::decode(&bytes);
            let _ = UdmResyncRequest::decode(&bytes);
            let _ = AusfAkaRequest::decode(&bytes);
            let _ = AusfAkaResponse::decode(&bytes);
            let _ = AmfAkaRequest::decode(&bytes);
            let _ = decode_he_av(&bytes);
            let _ = decode_he_av_batch(&bytes);
        }
    }
}
