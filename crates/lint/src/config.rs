//! The lint's knowledge of the repository: which types carry secrets,
//! which files are enclave-side, and which crates feed the
//! byte-exact simulation trace.

/// A registered secret-bearing type.
#[derive(Clone, Debug)]
pub struct SecretType {
    /// Path suffix of the file declaring the type (e.g. `crypto/src/keys.rs`).
    pub path_suffix: String,
    /// The type name as written at its `struct` declaration.
    pub name: String,
    /// Whether the type must zeroize its key material on drop (via
    /// `SecretBytes`/`Secret` fields or an explicit `Drop` impl). Types
    /// that must stay `Copy` (field-element arithmetic) opt out and are
    /// only held to the redacted-`Debug` rule.
    pub require_zeroize: bool,
}

/// Full lint configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Registered secret-bearing types (secret-hygiene rules SH001-003).
    pub secret_types: Vec<SecretType>,
    /// Path suffixes of enclave-side modules (rule EB001): code that the
    /// paper runs inside an SGX enclave, where direct `std::fs`/`net`/
    /// `time` calls would bypass the LibOS shim layer.
    pub enclave_files: Vec<String>,
    /// Path prefixes (relative to the repo root) of trace-affecting
    /// crates (rules DT001/DT002): anything here feeds the byte-exact
    /// deterministic simulation trace.
    pub trace_dirs: Vec<String>,
    /// Path prefixes of NF service crates (rule MW001): code here must
    /// not construct retriers, consult fault injectors, or manage
    /// admission queues — those concerns live in the middleware stack
    /// (`shield5g-mw`) composed at slice/pool construction.
    pub mw_boundary_dirs: Vec<String>,
    /// Per-crate panic budget (rule PB001), loaded from the checked-in
    /// baseline. Crates not listed have budget zero.
    pub panic_budget: Vec<(String, usize)>,
    /// Secret container type names (rule SH004): values of these types
    /// redact and zeroize, so holding or returning one is safe — taint
    /// starts where the *raw bytes* come out.
    pub secret_containers: Vec<String>,
    /// Accessor method names that yield raw bytes from a container
    /// (rule SH004 sources).
    pub taint_source_methods: Vec<String>,
    /// Format-family macros that render their arguments (SH004 sinks).
    pub taint_sink_macros: Vec<String>,
    /// Functions whose arguments end up in exported artifacts or the
    /// engine trace (SH004 policy sinks): `obs::hub` metrics and span
    /// attrs, the artifact writer.
    pub taint_sink_fns: Vec<String>,
    /// Interprocedural propagation bound: summary fixpoint rounds, i.e.
    /// the maximum call depth a flow is tracked across.
    pub taint_depth: usize,
    /// Declared middleware layer partial order (rule MW002):
    /// `(outer, inner)` pairs — when both appear in one `Stack::with`
    /// chain, `outer` must be added first. Mirrors the dynamic
    /// permutation pins in `crates/mw/tests/layers.rs`.
    pub layer_order: Vec<(String, String)>,
    /// Span-opening hub functions (rule OB001).
    pub span_open_fns: Vec<String>,
    /// Span-closing hub functions (rule OB001).
    pub span_close_fns: Vec<String>,
    /// Path prefixes implementing the span machinery itself, exempt
    /// from OB001 (opening without closing *is* their API).
    pub span_impl_dirs: Vec<String>,
}

fn s(v: &str) -> String {
    v.to_owned()
}

impl Config {
    /// The registry for this repository.
    #[must_use]
    pub fn repo_default() -> Self {
        let secret = |suffix: &str, name: &str, require_zeroize: bool| SecretType {
            path_suffix: s(suffix),
            name: s(name),
            require_zeroize,
        };
        Config {
            secret_types: vec![
                // crypto: the key hierarchy itself.
                secret("crypto/src/keys.rs", "HeAv", true),
                secret("crypto/src/keys.rs", "UeChallengeResult", true),
                secret("crypto/src/milenage.rs", "Milenage", true),
                secret("crypto/src/milenage.rs", "F2345Output", true),
                secret("crypto/src/hmac.rs", "HmacSha256", true),
                secret("crypto/src/ecies.rs", "HomeNetworkKeyPair", true),
                secret("crypto/src/aes.rs", "Aes128", true),
                // Redact-only: Fe must stay Copy for the x25519 ladder;
                // Sha256's chaining state may be HMAC-keyed but the
                // struct is moved-out by `finalize`.
                secret("crypto/src/x25519.rs", "Fe", false),
                secret("crypto/src/sha256.rs", "Sha256", false),
                // nf: key material crossing the SBI / module wire.
                secret("nf/src/backend.rs", "UdmAkaRequest", true),
                secret("nf/src/backend.rs", "UdmAkaBatchRequest", true),
                secret("nf/src/backend.rs", "AusfAkaRequest", true),
                secret("nf/src/backend.rs", "AusfAkaResponse", true),
                secret("nf/src/backend.rs", "AmfAkaRequest", true),
                secret("nf/src/backend.rs", "LocalUdmAka", true),
                secret("nf/src/ausf.rs", "AuthContext", true),
                secret("nf/src/sbi.rs", "ConfirmResponse", true),
                secret("nf/src/sbi.rs", "UdrAuthDataResponse", true),
                secret("nf/src/nas_security.rs", "NasSecurityContext", true),
                secret("nf/src/udr.rs", "SubscriberEntry", true),
            ],
            enclave_files: vec![
                // The P-AKA module dispatch runs inside the enclave.
                s("core/src/paka.rs"),
                // The HMEE model: enclave-side runtime, sealing, EPC and
                // attestation logic.
                s("hmee/src/enclave.rs"),
                s("hmee/src/seal.rs"),
                s("hmee/src/attest.rs"),
                s("hmee/src/epc.rs"),
                // Everything in the crypto crate may execute enclave-side.
                s("crypto/src/"),
            ],
            trace_dirs: vec![
                s("crates/sim/src"),
                s("crates/nf/src"),
                s("crates/scale/src"),
                s("crates/core/src"),
                s("crates/faults/src"),
                // The observability layer promises zero perturbation and
                // deterministic exports; a wall-clock read or a
                // default-hasher map in a span/metric path would leak
                // nondeterminism straight into the artifacts.
                s("crates/obs/src"),
                // The middleware stack sits on every endpoint's hot
                // path: layer hooks run between trace notes, so any
                // nondeterminism here lands directly in the engine
                // trace.
                s("crates/mw/src"),
                // The bench sweep runner merges per-job observability
                // in canonical order and promises thread-count-
                // invariant artifacts; ambient randomness or an
                // unmarked wall-clock read here would break the
                // byte-identity gate. (The runner's own wall-time
                // measurement carries justified allow markers.)
                s("crates/bench/src"),
            ],
            mw_boundary_dirs: vec![s("crates/nf/src")],
            panic_budget: Vec::new(),
            secret_containers: vec![s("SecretBytes"), s("Secret")],
            taint_source_methods: vec![s("expose"), s("expose_mut")],
            taint_sink_macros: vec![
                s("format"),
                // `EventLog::record` takes `format_args!`: every
                // transcript message is a sink.
                s("format_args"),
                s("print"),
                s("println"),
                s("eprint"),
                s("eprintln"),
                s("write"),
                s("writeln"),
                s("panic"),
                s("todo"),
                s("unimplemented"),
                s("dbg"),
            ],
            taint_sink_fns: vec![
                // obs::hub metric values and span attributes land in
                // the Prometheus/JSONL exports verbatim.
                s("count"),
                s("gauge"),
                s("gauge_max"),
                s("observe"),
                s("span_attr"),
                // The obs artifact writer.
                s("write_artifact"),
            ],
            taint_depth: 4,
            layer_order: vec![
                // The pairs `crates/mw/tests/layers.rs` pins dynamically:
                // obs counts shed arrivals only from outside admission;
                // deadline vetoes dead retransmissions only from outside
                // retry; admission spares fault-plan draws only from
                // outside fault.
                (s("ObsLayer"), s("AdmissionLayer")),
                (s("DeadlineLayer"), s("RetryLayer")),
                (s("AdmissionLayer"), s("FaultLayer")),
                // The breaker sits between admission (inbound shedding
                // happens at the door) and fault/retry (an open circuit
                // must fail injected legs fast and cut retransmission
                // storms off).
                (s("ObsLayer"), s("BreakerLayer")),
                (s("AdmissionLayer"), s("BreakerLayer")),
                (s("BreakerLayer"), s("FaultLayer")),
                (s("BreakerLayer"), s("RetryLayer")),
            ],
            span_open_fns: vec![s("open_span"), s("open_child")],
            span_close_fns: vec![s("close_span")],
            span_impl_dirs: vec![s("crates/obs/src")],
        }
    }
}
