//! The COTS UE: a full-stack, spec-conformant user equipment model.
//!
//! Unlike a gNBSIM shortcut, this UE really runs its side of 5G-AKA:
//! SUCI concealment with a fresh ECIES ephemeral, AUTN verification on
//! the USIM with SQN window handling (including AUTS re-synchronisation),
//! RES* computation, the full key hierarchy, NAS security-mode
//! verification, GUTI storage and PDU-session establishment. That is
//! what makes the OTA test meaningful: the isolated AKA functions face a
//! real protocol peer.

use crate::gnb::Gnb;
use crate::usim::{ChallengeOutcome, Usim};
use crate::RanError;
use shield5g_crypto::ident::Guti;
use shield5g_crypto::keys::{derive_kamf, ServingNetworkName};
use shield5g_nf::messages::{AuthFailureCause, NasDownlink, NasUplink, UeIdentity};
use shield5g_nf::nas_security::{NasSecurityContext, ProtectedNas};
use shield5g_obs::hub as obs;
use shield5g_obs::hub::StageSpan;
use shield5g_obs::labels;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;

/// Modem/AP processing per NAS message on a phone-class SoC.
const UE_NAS_PROC_NANOS: u64 = 450_000;
/// SUCI concealment (ECIES X25519 on the UE).
const UE_SUCI_NANOS: u64 = 800_000;
/// USIM challenge evaluation (MILENAGE on the secure element).
const UE_USIM_NANOS: u64 = 350_000;
/// The OS build the OTA testbed validated (Table IV).
pub const VALIDATED_ONEPLUS8_BUILD: &str = "Oxygen 11.0.11.11.IN21DA";

/// Result of a successful registration.
#[derive(Clone, Debug)]
pub struct RegistrationReport {
    /// End-to-end session setup time (RRC start → registration complete).
    pub setup_time: SimDuration,
    /// Assigned temporary identity.
    pub guti: Guti,
    /// SQN re-synchronisations performed along the way.
    pub resyncs: u8,
}

/// UE registration state.
#[derive(Debug, PartialEq, Eq)]
enum UeState {
    Deregistered,
    Registered,
}

/// A user equipment instance.
pub struct CotsUe {
    usim: Usim,
    model: &'static str,
    os_build: String,
    build_validated: bool,
    state: UeState,
    sec: Option<NasSecurityContext>,
    guti: Option<Guti>,
    ran_ue_id: Option<u64>,
    ue_ip: Option<[u8; 4]>,
}

impl std::fmt::Debug for CotsUe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CotsUe")
            .field("model", &self.model)
            .field("os_build", &self.os_build)
            .field("state", &self.state)
            .finish()
    }
}

impl CotsUe {
    /// The OTA testbed's OnePlus 8 with the validated Oxygen build.
    #[must_use]
    pub fn oneplus8(usim: Usim) -> Self {
        CotsUe {
            usim,
            model: "OnePlus 8",
            os_build: VALIDATED_ONEPLUS8_BUILD.to_owned(),
            build_validated: true,
            state: UeState::Deregistered,
            sec: None,
            guti: None,
            ran_ue_id: None,
            ue_ip: None,
        }
    }

    /// A gNBSIM-internal UE (no COTS build constraints).
    #[must_use]
    pub fn sim_ue(usim: Usim) -> Self {
        CotsUe {
            usim,
            model: "gnbsim-ue",
            os_build: "n/a".to_owned(),
            build_validated: false,
            state: UeState::Deregistered,
            sec: None,
            guti: None,
            ran_ue_id: None,
            ue_ip: None,
        }
    }

    /// Overrides the OS build (to reproduce the §V-B6 finding that other
    /// builds fail to complete the end-to-end connection).
    #[must_use]
    pub fn with_os_build(mut self, build: impl Into<String>) -> Self {
        self.os_build = build.into();
        self
    }

    /// Whether the UE completed registration.
    #[must_use]
    pub fn is_registered(&self) -> bool {
        self.state == UeState::Registered
    }

    /// The GUTI assigned at registration.
    #[must_use]
    pub fn guti(&self) -> Option<Guti> {
        self.guti
    }

    /// The UE IP once a PDU session is up.
    #[must_use]
    pub fn ue_ip(&self) -> Option<[u8; 4]> {
        self.ue_ip
    }

    fn serving_network(&self, gnb: &Gnb) -> ServingNetworkName {
        ServingNetworkName::new(gnb.broadcast_plmn().mcc(), gnb.broadcast_plmn().mnc())
    }

    fn charge(env: &mut Env, nanos: u64) {
        env.clock.advance(SimDuration::from_nanos(nanos));
    }

    /// Registers with the network through `gnb` (TS 23.502 §4.2.2 from
    /// the UE's seat).
    ///
    /// # Errors
    ///
    /// * [`RanError::IncompatibleUeBuild`] for unvalidated COTS builds.
    /// * [`RanError::NetworkNotFound`] on PLMN mismatch.
    /// * [`RanError::NetworkAuthenticationFailed`] when AUTN fails.
    /// * [`RanError::Rejected`] when the network refuses the UE.
    pub fn register(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
    ) -> Result<RegistrationReport, RanError> {
        // Initial registration always conceals the permanent identity.
        Self::charge(env, UE_SUCI_NANOS);
        let suci = self.usim.conceal_identity(env);
        self.register_with_identity(env, gnb, UeIdentity::Suci(suci))
    }

    /// Re-registers using the GUTI from a previous registration (mobility
    /// registration update): the permanent identity stays off the air and
    /// the AMF resolves the SUPI from its GUTI map.
    ///
    /// # Errors
    ///
    /// As [`CotsUe::register`]; additionally [`RanError::Protocol`] when
    /// no GUTI is stored yet.
    pub fn re_register_with_guti(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
    ) -> Result<RegistrationReport, RanError> {
        let guti = self
            .guti
            .ok_or_else(|| RanError::Protocol("no GUTI stored; register first".into()))?;
        self.register_with_identity(env, gnb, UeIdentity::Guti(guti))
    }

    fn register_with_identity(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
        identity: UeIdentity,
    ) -> Result<RegistrationReport, RanError> {
        if self.build_validated && self.os_build != VALIDATED_ONEPLUS8_BUILD {
            return Err(RanError::IncompatibleUeBuild(self.os_build.clone()));
        }
        // A (re-)registration starts from a clean NAS state.
        self.state = UeState::Deregistered;
        self.sec = None;
        self.guti = None;
        let t0 = env.clock.now();
        // Roots the registration's trace: every SBI hop and enclave
        // transition below nests under this stage span, so the flame dump
        // decomposes `setup_time` exactly. Dropped (abandoned) on the
        // error returns below.
        let stage = StageSpan::open("ue", "registration", t0.as_nanos());
        let ran_ue_id = gnb.rrc_connect(env, self.usim.plmn())?;
        self.ran_ue_id = Some(ran_ue_id);
        let snn = self.serving_network(gnb);

        let nas = NasUplink::RegistrationRequest { identity }.encode();
        let mut downlink = gnb.nas_exchange(env, ran_ue_id, nas, true)?;
        let mut resyncs: u8 = 0;
        let mut complete_sent = false;

        loop {
            Self::charge(env, UE_NAS_PROC_NANOS);
            let msg = self.decode_downlink(&downlink)?;
            let uplink: NasUplink = match msg {
                NasDownlink::AuthenticationRequest {
                    rand, autn, abba, ..
                } => {
                    Self::charge(env, UE_USIM_NANOS);
                    match self.usim.evaluate_challenge(&rand, &autn, &snn) {
                        ChallengeOutcome::Success(result) => {
                            // Stash keys for the security-mode step.
                            let kamf = derive_kamf(
                                result.kseaf.expose(),
                                &self.usim.supi().to_string(),
                                &abba,
                            );
                            self.sec = Some(NasSecurityContext::from_kamf(&kamf, true));
                            NasUplink::AuthenticationResponse {
                                res_star: result.res_star,
                            }
                        }
                        ChallengeOutcome::SyncFailure(auts) => {
                            resyncs += 1;
                            if resyncs > 2 {
                                return Err(RanError::Protocol("resynchronisation loop".into()));
                            }
                            NasUplink::AuthenticationFailure {
                                cause: AuthFailureCause::SynchFailure(auts),
                            }
                        }
                        ChallengeOutcome::MacFailure => {
                            // Report and abort: the network is not genuine.
                            let nas = NasUplink::AuthenticationFailure {
                                cause: AuthFailureCause::MacFailure,
                            }
                            .encode();
                            let _ = gnb.nas_exchange(env, ran_ue_id, nas, false);
                            return Err(RanError::NetworkAuthenticationFailed(
                                "AUTN MAC verification failed".into(),
                            ));
                        }
                    }
                }
                NasDownlink::IdentityRequest => {
                    // The network could not resolve our temporary identity:
                    // answer with a freshly concealed SUCI.
                    Self::charge(env, UE_SUCI_NANOS);
                    let suci = self.usim.conceal_identity(env);
                    NasUplink::IdentityResponse { suci }
                }
                NasDownlink::SecurityModeCommand {
                    integrity_alg,
                    ciphering_alg,
                } => {
                    // TS 33.501 §6.7.2: the UE checks the selected
                    // algorithms are ones it supports before replaying
                    // its capabilities back under the new context.
                    if integrity_alg != shield5g_nf::nas_security::INTEGRITY_ALG_HMAC
                        || ciphering_alg != shield5g_nf::nas_security::CIPHER_ALG_AES
                    {
                        return Err(RanError::Rejected {
                            stage: "security-mode",
                            cause: format!(
                                "unsupported algorithms int={integrity_alg} enc={ciphering_alg}"
                            ),
                        });
                    }
                    NasUplink::SecurityModeComplete
                }
                NasDownlink::RegistrationAccept { guti } => {
                    self.guti = Some(guti);
                    if complete_sent {
                        // Echo after RegistrationComplete: we are done.
                        self.state = UeState::Registered;
                        break;
                    }
                    complete_sent = true;
                    NasUplink::RegistrationComplete
                }
                NasDownlink::AuthenticationReject => {
                    return Err(RanError::Rejected {
                        stage: "authentication",
                        cause: "reject".into(),
                    })
                }
                NasDownlink::RegistrationReject { cause } => {
                    return Err(RanError::Rejected {
                        stage: "registration",
                        cause: cause.to_string(),
                    })
                }
                other => return Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
            };
            let protected = self.encode_uplink(&uplink);
            // The taint pass is field-insensitive: the protected PDU
            // rides inside the HttpRequest whose *path/method* reach the
            // engine trace; the ciphered NAS payload itself is never
            // rendered.
            // shield5g-lint: allow(SH004)
            downlink = gnb.nas_exchange(env, ran_ue_id, protected, false)?;
        }

        stage.close(env.clock.now().as_nanos());
        obs::count("ue", "registration", labels::COMPLETED, 1);
        obs::count("ue", "registration", labels::RESYNCS, u64::from(resyncs));
        obs::observe(
            "ue",
            "registration",
            labels::SETUP_TIME_NS,
            (env.clock.now() - t0).as_nanos(),
        );
        Ok(RegistrationReport {
            setup_time: env.clock.now() - t0,
            guti: self.guti.expect("registered"),
            resyncs,
        })
    }

    /// Establishes a PDU session (the "data session" of §V-B6).
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] when called before registration or
    /// on unexpected responses.
    pub fn establish_session(&mut self, env: &mut Env, gnb: &mut Gnb) -> Result<[u8; 4], RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .ok_or_else(|| RanError::Protocol("PDU session before registration".into()))?;
        if self.state != UeState::Registered {
            return Err(RanError::Protocol("PDU session before registration".into()));
        }
        Self::charge(env, UE_NAS_PROC_NANOS);
        let nas =
            self.encode_uplink(&NasUplink::PduSessionEstablishmentRequest { pdu_session_id: 5 });
        let downlink = gnb.nas_exchange(env, ran_ue_id, nas, false)?;
        Self::charge(env, UE_NAS_PROC_NANOS);
        match self.decode_downlink(&downlink)? {
            NasDownlink::PduSessionEstablishmentAccept { ue_ip, .. } => {
                self.ue_ip = Some(ue_ip);
                Ok(ue_ip)
            }
            other => Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
        }
    }

    /// Deregisters from the network (TS 24.501 §5.5.2): the GUTI and NAS
    /// security context are discarded on both sides.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] when not registered or on an
    /// unexpected response.
    pub fn deregister(&mut self, env: &mut Env, gnb: &mut Gnb) -> Result<(), RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .ok_or_else(|| RanError::Protocol("deregister before registration".into()))?;
        if self.state != UeState::Registered {
            return Err(RanError::Protocol("deregister before registration".into()));
        }
        Self::charge(env, UE_NAS_PROC_NANOS);
        let nas = self.encode_uplink(&NasUplink::DeregistrationRequest { switch_off: false });
        let downlink = gnb.nas_exchange(env, ran_ue_id, nas, false)?;
        match self.decode_downlink(&downlink)? {
            NasDownlink::DeregistrationAccept => {
                self.state = UeState::Deregistered;
                self.sec = None;
                self.guti = None;
                self.ue_ip = None;
                Ok(())
            }
            other => Err(RanError::Protocol(format!("unexpected downlink {other:?}"))),
        }
    }

    /// Sends a user-plane payload through the established session and
    /// returns the N6-side echo.
    ///
    /// # Errors
    ///
    /// Returns [`RanError::Protocol`] without a session, and transport
    /// errors from the tunnel.
    pub fn send_data(
        &mut self,
        env: &mut Env,
        gnb: &mut Gnb,
        payload: &[u8],
    ) -> Result<Vec<u8>, RanError> {
        let ran_ue_id = self
            .ran_ue_id
            .filter(|_| self.ue_ip.is_some())
            .ok_or_else(|| RanError::Protocol("no PDU session".into()))?;
        gnb.gtp_uplink(env, ran_ue_id, payload)
    }

    fn encode_uplink(&mut self, msg: &NasUplink) -> Vec<u8> {
        let plain = msg.encode();
        match (&mut self.sec, msg) {
            // Everything from SecurityModeComplete onwards is protected.
            (Some(sec), NasUplink::SecurityModeComplete)
            | (Some(sec), NasUplink::RegistrationComplete)
            | (Some(sec), NasUplink::PduSessionEstablishmentRequest { .. })
            | (Some(sec), NasUplink::DeregistrationRequest { .. }) => sec.protect(&plain).encode(),
            _ => plain,
        }
    }

    fn decode_downlink(&mut self, bytes: &[u8]) -> Result<NasDownlink, RanError> {
        // Try plain first (pre-security messages), then protected.
        if let Ok(msg) = NasDownlink::decode(bytes) {
            return Ok(msg);
        }
        let sec = self
            .sec
            .as_mut()
            .ok_or_else(|| RanError::Protocol("protected NAS before security mode".into()))?;
        let pdu = ProtectedNas::decode(bytes)
            .map_err(|e| RanError::Protocol(format!("bad protected NAS: {e}")))?;
        let plain = sec
            .unprotect(&pdu)
            .map_err(|e| RanError::NetworkAuthenticationFailed(format!("NAS integrity: {e}")))?;
        Ok(NasDownlink::decode(&plain)?)
    }
}

#[cfg(test)]
mod tests {
    // The UE is exercised end-to-end in `gnbsim`/`ota` tests and the
    // workspace integration tests; here we cover the guards.
    use super::*;
    use shield5g_crypto::ident::{Plmn, Supi};

    fn usim() -> Usim {
        Usim::program(
            Supi::new(Plmn::test_network(), "0000000001").unwrap(),
            [0x46; 16],
            [0xcd; 16],
            1,
            [9; 32],
        )
    }

    #[test]
    fn wrong_os_build_cannot_register() {
        let mut env = Env::new(1);
        let engine = std::rc::Rc::new(std::cell::RefCell::new(shield5g_sim::engine::Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let mut ue = CotsUe::oneplus8(usim()).with_os_build("Oxygen 10.0.1");
        assert!(matches!(
            ue.register(&mut env, &mut gnb),
            Err(RanError::IncompatibleUeBuild(_))
        ));
    }

    #[test]
    fn pdu_session_requires_registration() {
        let mut env = Env::new(2);
        let engine = std::rc::Rc::new(std::cell::RefCell::new(shield5g_sim::engine::Engine::new()));
        let mut gnb = Gnb::usrp(engine, Plmn::test_network());
        let mut ue = CotsUe::oneplus8(usim());
        assert!(ue.establish_session(&mut env, &mut gnb).is_err());
        assert!(ue.send_data(&mut env, &mut gnb, b"ping").is_err());
    }

    #[test]
    fn fresh_ue_is_deregistered() {
        let ue = CotsUe::oneplus8(usim());
        assert!(!ue.is_registered());
        assert!(ue.guti().is_none());
        assert!(ue.ue_ip().is_none());
    }
}
