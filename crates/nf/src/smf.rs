//! The Session Management Function: allocates PDU sessions and programs
//! the UPF over N4 (paper Fig. 2: SMF and UPF "constitute the data
//! session anchors for the client").

use crate::sbi::{CreateSessionRequest, CreateSessionResponse, SbiClient};
use crate::NfError;
use shield5g_sim::codec::{Reader, Writer};
use shield5g_sim::engine::{EngineService, LegMeta, Step};
use shield5g_sim::http::{HttpRequest, HttpResponse};
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::any::Any;
use std::collections::BTreeMap;

/// SMF session-establishment handler time.
const SMF_HANDLER_NANOS: u64 = 85_000;

/// N4 session-establishment message (SMF → UPF).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct N4Establish {
    /// Tunnel endpoint identifier for the session.
    pub teid: u32,
    /// UE address to anchor.
    pub ue_ip: [u8; 4],
}

impl N4Establish {
    /// Encodes to SBI body bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.teid).put_array(&self.ue_ip);
        w.into_bytes()
    }

    /// Decodes SBI body bytes.
    ///
    /// # Errors
    ///
    /// Returns [`NfError::Sim`] on framing violations.
    pub fn decode(bytes: &[u8]) -> Result<Self, NfError> {
        let mut r = Reader::new(bytes);
        let msg = N4Establish {
            teid: r.u32()?,
            ue_ip: r.array()?,
        };
        r.finish()?;
        Ok(msg)
    }
}

/// One established session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmfSession {
    /// Owning subscriber.
    pub supi: String,
    /// UE-side session identity.
    pub pdu_session_id: u8,
    /// Assigned UE address.
    pub ue_ip: [u8; 4],
    /// UPF tunnel endpoint.
    pub teid: u32,
}

/// The SMF service.
pub struct SmfService {
    client: SbiClient,
    upf_addr: String,
    sessions: BTreeMap<(String, u8), SmfSession>,
    next_ip_suffix: u8,
    next_teid: u32,
}

impl std::fmt::Debug for SmfService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmfService")
            .field("sessions", &self.sessions.len())
            .finish()
    }
}

impl SmfService {
    /// Creates an SMF programming the UPF at `upf_addr`.
    #[must_use]
    pub fn new(client: SbiClient, upf_addr: impl Into<String>) -> Self {
        SmfService {
            client,
            upf_addr: upf_addr.into(),
            sessions: BTreeMap::new(),
            next_ip_suffix: 2,
            next_teid: 0x1000,
        }
    }

    /// Number of active sessions.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    fn start_create(&mut self, env: &mut Env, req: &CreateSessionRequest) -> Step {
        env.clock
            .advance(SimDuration::from_nanos(SMF_HANDLER_NANOS));
        if let Some(existing) = self.sessions.get(&(req.supi.clone(), req.pdu_session_id)) {
            // Idempotent re-establishment returns the same anchor.
            return Step::Reply(HttpResponse::ok(
                CreateSessionResponse {
                    ue_ip: existing.ue_ip,
                    upf_teid: existing.teid,
                }
                .encode(),
            ));
        }
        let ue_ip = [10, 0, 0, self.next_ip_suffix];
        self.next_ip_suffix = self.next_ip_suffix.wrapping_add(1).max(2);
        let teid = self.next_teid;
        self.next_teid += 1;
        // Program the UPF over N4.
        let out = self
            .client
            .send(env, "/n4/establish", N4Establish { teid, ue_ip }.encode());
        Step::CallOut {
            dest: self.upf_addr.clone(),
            req: out,
            state: Box::new(SmfFlow::AwaitUpf {
                session: SmfSession {
                    supi: req.supi.clone(),
                    pdu_session_id: req.pdu_session_id,
                    ue_ip,
                    teid,
                },
            }),
        }
    }
}

/// Continuation state across the SMF's N4 round trip.
enum SmfFlow {
    /// Waiting for the UPF to acknowledge the N4 establishment.
    AwaitUpf { session: SmfSession },
}

impl EngineService for SmfService {
    fn start(&mut self, env: &mut Env, _leg: &LegMeta, req: HttpRequest) -> Step {
        match req.path.as_str() {
            "/nsmf-pdusession/create" => match CreateSessionRequest::decode(&req.body) {
                Ok(decoded) => self.start_create(env, &decoded),
                Err(e) => Step::Reply(HttpResponse::error(400, e.to_string())),
            },
            other => Step::Reply(HttpResponse::error(404, format!("no handler for {other}"))),
        }
    }

    fn resume(
        &mut self,
        env: &mut Env,
        _leg: &LegMeta,
        state: Box<dyn Any>,
        resp: HttpResponse,
    ) -> Step {
        let SmfFlow::AwaitUpf { session } = match state.downcast::<SmfFlow>() {
            Ok(f) => *f,
            Err(_) => return Step::Reply(HttpResponse::error(500, "smf: foreign state")),
        };
        if let Err(e) = self.client.receive(env, &self.upf_addr, resp) {
            return Step::Reply(HttpResponse::error(400, e.to_string()));
        }
        let reply = CreateSessionResponse {
            ue_ip: session.ue_ip,
            upf_teid: session.teid,
        };
        env.log.record(
            env.clock.now(),
            "session",
            format_args!(
                "SMF anchored PDU session {} for {} at 10.0.0.{}",
                session.pdu_session_id, session.supi, session.ue_ip[3]
            ),
        );
        self.sessions
            .insert((session.supi.clone(), session.pdu_session_id), session);
        Step::Reply(HttpResponse::ok(reply.encode()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::upf::UpfService;
    use shield5g_sim::engine::Engine;
    use shield5g_sim::service::service_handle;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world() -> (Env, Engine) {
        let env = Env::new(9);
        let mut engine = Engine::new();
        engine.register(
            crate::addr::UPF,
            4,
            Engine::leaf(service_handle(UpfService::new())),
        );
        let smf = SmfService::new(SbiClient::new(), crate::addr::UPF);
        engine.register(crate::addr::SMF, 4, Rc::new(RefCell::new(smf)));
        (env, engine)
    }

    fn create(env: &mut Env, engine: &mut Engine, supi: &str, id: u8) -> CreateSessionResponse {
        let req = CreateSessionRequest {
            supi: supi.into(),
            pdu_session_id: id,
        };
        let body = engine
            .dispatch_ok(
                env,
                crate::addr::SMF,
                HttpRequest::post("/nsmf-pdusession/create", req.encode()),
            )
            .unwrap()
            .body;
        CreateSessionResponse::decode(&body).unwrap()
    }

    #[test]
    fn creates_session_with_unique_ips() {
        let (mut env, mut engine) = world();
        let s1 = create(&mut env, &mut engine, "imsi-1", 1);
        let s2 = create(&mut env, &mut engine, "imsi-2", 1);
        assert_ne!(s1.ue_ip, s2.ue_ip);
        assert_ne!(s1.upf_teid, s2.upf_teid);
        assert_eq!(s1.ue_ip[0], 10);
    }

    #[test]
    fn re_establishment_is_idempotent() {
        let (mut env, mut engine) = world();
        let s1 = create(&mut env, &mut engine, "imsi-1", 5);
        let s2 = create(&mut env, &mut engine, "imsi-1", 5);
        assert_eq!(s1, s2);
    }

    #[test]
    fn n4_round_trip() {
        let msg = N4Establish {
            teid: 9,
            ue_ip: [10, 0, 0, 7],
        };
        assert_eq!(N4Establish::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn unknown_path_404() {
        let (mut env, mut engine) = world();
        let resp = engine
            .dispatch(&mut env, crate::addr::SMF, HttpRequest::get("/nope"))
            .unwrap();
        assert_eq!(resp.status, 404);
    }
}
