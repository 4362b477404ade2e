//! Enclave lifecycle, execution costs, and the protected vault.
//!
//! An [`Enclave`] is built with [`EnclaveBuilder`] (modelling
//! `ECREATE`/`EADD`/`EEXTEND`/`EINIT`), after which shielded code "runs
//! inside" it: the owning component calls [`Enclave::ocall`],
//! [`Enclave::compute`], [`Enclave::prefault_heap`] and the vault methods,
//! each of which charges the virtual clock and increments the
//! [`SgxCounters`] exactly as the corresponding hardware events would.

use crate::cost::{CostModel, PAGE_SIZE};
use crate::counters::SgxCounters;
use crate::epc::{EncryptedPage, EpcRegion, EpcSnapshot};
use crate::platform::SgxPlatform;
use crate::HmeeError;
use shield5g_crypto::aes::Aes128;
use shield5g_crypto::hmac::HmacSha256;
use shield5g_crypto::sha256::Sha256;
use shield5g_obs::hub as obs;
use shield5g_obs::labels;
use shield5g_obs::span::SpanKind;
use shield5g_sim::time::SimDuration;
use shield5g_sim::Env;
use std::collections::HashMap;

/// Hard ceiling on enclave virtual size (64 GiB), mirroring practical
/// SGXv2 limits; requests beyond it fail at build time.
const MAX_ENCLAVE_PAGES: u64 = (64u64 * 1024 * 1024 * 1024) / PAGE_SIZE as u64;

/// Configures and builds an [`Enclave`] (`ECREATE` → `EADD`/`EEXTEND` →
/// `EINIT`).
#[derive(Clone, Debug)]
pub struct EnclaveBuilder {
    name: String,
    heap_bytes: u64,
    max_threads: u32,
    debug: bool,
    signer: [u8; 32],
    measured_content: Vec<(String, u64)>,
}

impl EnclaveBuilder {
    /// Starts a builder for an enclave named `name` with Gramine-like
    /// defaults (512 MiB heap, 4 threads, production mode).
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        EnclaveBuilder {
            name: name.into(),
            heap_bytes: 512 * 1024 * 1024,
            max_threads: 4,
            debug: false,
            signer: [0x51; 32],
            measured_content: Vec::new(),
        }
    }

    /// Sets the enclave heap ("EPC size" in the paper's manifest terms).
    #[must_use]
    pub fn heap_bytes(mut self, bytes: u64) -> Self {
        self.heap_bytes = bytes;
        self
    }

    /// Sets the TCS count (`sgx.max_threads`).
    #[must_use]
    pub fn max_threads(mut self, threads: u32) -> Self {
        self.max_threads = threads;
        self
    }

    /// Enables debug mode (required for Gramine's stats collection,
    /// paper §IV-C — and a real-world confidentiality caveat surfaced by
    /// the attacker model).
    #[must_use]
    pub fn debug(mut self, debug: bool) -> Self {
        self.debug = debug;
        self
    }

    /// Sets the signing identity (MRSIGNER source).
    #[must_use]
    pub fn signer(mut self, signer: [u8; 32]) -> Self {
        self.signer = signer;
        self
    }

    /// Adds measured initial content (code/data that is `EADD`ed and
    /// `EEXTEND`ed, contributing to MRENCLAVE and to build time).
    #[must_use]
    pub fn measured_content(mut self, label: impl Into<String>, bytes: u64) -> Self {
        self.measured_content.push((label.into(), bytes));
        self
    }

    /// Builds the enclave, charging `EADD`/`EEXTEND` per initial page and
    /// a fixed `EINIT` cost.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::EpcExhausted`] when the requested virtual size
    /// exceeds the platform's maximum mappable enclave size.
    pub fn build(self, env: &mut Env, platform: &SgxPlatform) -> Result<Enclave, HmeeError> {
        let heap_pages = self.heap_bytes.div_ceil(PAGE_SIZE as u64);
        let content_pages: u64 = self
            .measured_content
            .iter()
            .map(|(_, bytes)| bytes.div_ceil(PAGE_SIZE as u64))
            .sum();
        let total_pages = heap_pages + content_pages;
        if total_pages > MAX_ENCLAVE_PAGES {
            return Err(HmeeError::EpcExhausted {
                requested_pages: total_pages,
                available_pages: MAX_ENCLAVE_PAGES,
            });
        }

        // MRENCLAVE: hash of the build configuration and measured content,
        // in EADD order (a faithful simplification of the EEXTEND chain).
        let mut m = Sha256::new();
        m.update(b"ecreate");
        m.update(&self.heap_bytes.to_be_bytes());
        m.update(&self.max_threads.to_be_bytes());
        m.update(&[u8::from(self.debug)]);
        for (label, bytes) in &self.measured_content {
            m.update(b"eadd");
            m.update(label.as_bytes());
            m.update(&bytes.to_be_bytes());
        }
        let mrenclave = m.finalize();
        let mrsigner = Sha256::digest(&self.signer);

        // Charge EADD+EEXTEND for initial content pages and EINIT.
        let cost = platform.cost().clone();
        env.clock
            .advance(SimDuration::from_nanos(cost.eadd_page_ns * content_pages));
        env.clock.advance(SimDuration::from_micros(50)); // EINIT + launch token

        // EPC protection is bound to the enclave *instance* (EPCM
        // ownership + per-boot MEE keys), not the measurement: two
        // enclaves built from the same image must still be mutually
        // opaque. Mix a fresh instance nonce into the key derivation.
        let instance_nonce: [u8; 16] = env.rng.bytes();
        let mut epc_context = Vec::with_capacity(48);
        epc_context.extend_from_slice(&mrenclave);
        epc_context.extend_from_slice(&instance_nonce);
        let epc_enc = platform.derive_key("epc-enc", &epc_context);
        let mut enc_key = [0u8; 16];
        enc_key.copy_from_slice(&epc_enc[..16]);

        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!(
                "EINIT {} ({} content pages, {} heap pages)",
                self.name, content_pages, heap_pages
            ),
        );

        Ok(Enclave {
            name: self.name,
            mrenclave,
            mrsigner,
            debug: self.debug,
            epc_cipher: Aes128::new(&enc_key),
            epc_mac: HmacSha256::new(&platform.derive_key("epc-mac", &epc_context)),
            report_key: platform.report_key(),
            seal_base: platform.derive_key("seal-base", &mrsigner),
            cost,
            counters: SgxCounters::new(),
            epc: EpcRegion::new(),
            vault: HashMap::new(),
            heap_pages,
            max_threads: self.max_threads,
            threads_inside: 0,
            physical_epc_pages: platform.epc_pages(),
            version_counter: 0,
            evicted_versions: HashMap::new(),
            lost: false,
            thrash_pages: 0,
        })
    }
}

/// Metadata for one named vault slot.
#[derive(Debug)]
struct SlotMeta {
    page_indices: Vec<usize>,
    len: usize,
}

/// A running enclave.
pub struct Enclave {
    name: String,
    mrenclave: [u8; 32],
    mrsigner: [u8; 32],
    debug: bool,
    epc_cipher: Aes128,
    /// The EPC page MAC, keyed once at build; cloned for every page.
    epc_mac: HmacSha256,
    report_key: [u8; 32],
    seal_base: [u8; 32],
    cost: CostModel,
    counters: SgxCounters,
    epc: EpcRegion,
    vault: HashMap<String, SlotMeta>,
    heap_pages: u64,
    max_threads: u32,
    threads_inside: u32,
    physical_epc_pages: u64,
    version_counter: u64,
    /// Expected versions of evicted pages (the SGX version-tree analogue:
    /// kept inside the trusted boundary, so stale blobs cannot be
    /// replayed).
    evicted_versions: HashMap<usize, u64>,
    /// Set when the enclave instance was destroyed from outside (host
    /// crash / `EREMOVE`); entry points fail closed until
    /// [`Enclave::reload`].
    lost: bool,
    /// Extra EPC occupancy imposed by co-resident enclaves competing for
    /// the same physical EPC (fault-injection pressure knob).
    thrash_pages: u64,
}

impl std::fmt::Debug for Enclave {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enclave")
            .field("name", &self.name)
            .field(
                "mrenclave",
                &shield5g_crypto::hex::encode(&self.mrenclave[..8]),
            )
            .field("debug", &self.debug)
            .field("counters", &self.counters)
            .finish()
    }
}

impl Enclave {
    /// The enclave's name (for logs and reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// MRENCLAVE: the build measurement.
    #[must_use]
    pub fn mrenclave(&self) -> &[u8; 32] {
        &self.mrenclave
    }

    /// MRSIGNER: hash of the signing identity.
    #[must_use]
    pub fn mrsigner(&self) -> &[u8; 32] {
        &self.mrsigner
    }

    /// Whether the enclave runs in debug mode.
    #[must_use]
    pub fn is_debug(&self) -> bool {
        self.debug
    }

    /// The platform report key (crate-internal: local attestation).
    pub(crate) fn report_key(&self) -> &[u8; 32] {
        &self.report_key
    }

    /// The signer-bound sealing root (crate-internal).
    pub(crate) fn seal_base(&self) -> &[u8; 32] {
        &self.seal_base
    }

    /// The cost model in force.
    #[must_use]
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// A copy of the transition counters.
    #[must_use]
    pub fn counters(&self) -> SgxCounters {
        self.counters
    }

    /// Configured TCS count.
    #[must_use]
    pub fn max_threads(&self) -> u32 {
        self.max_threads
    }

    /// Emits one [`SpanKind::Enclave`] span covering a transition charge
    /// (`start_ns` → now) and mirrors its hardware-event counts into the
    /// ambient metrics registry under `(enclave-name, "sgx", event)`.
    /// A no-op when no observability hub is installed.
    fn record_transition(
        &self,
        env: &Env,
        name: &str,
        start_ns: u64,
        events: &[(&'static str, u64)],
    ) {
        if !obs::is_active() {
            return;
        }
        let span = obs::open_span(SpanKind::Enclave, &self.name, name, start_ns);
        for &(event, n) in events {
            obs::span_attr(span, event, n);
            obs::count(&self.name, "sgx", event, n);
        }
        obs::close_span(span, env.clock.now().as_nanos());
    }

    /// Enters the enclave on a new thread (`ECALL`).
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::ThreadLimit`] when all TCS slots are busy and
    /// [`HmeeError::EnclaveLost`] after a crash (until [`Enclave::reload`]).
    pub fn ecall_enter(&mut self, env: &mut Env) -> Result<(), HmeeError> {
        if self.lost {
            return Err(HmeeError::EnclaveLost(self.name.clone()));
        }
        if self.threads_inside >= self.max_threads {
            return Err(HmeeError::ThreadLimit {
                max_threads: self.max_threads,
            });
        }
        let t0 = env.clock.now().as_nanos();
        self.threads_inside += 1;
        self.counters.record_ecall();
        env.clock.advance(self.cost.eenter());
        self.record_transition(env, "eenter", t0, &[(labels::EENTER, 1)]);
        Ok(())
    }

    /// Returns from the outermost ECALL on one thread (`EEXIT`).
    pub fn ecall_return(&mut self, env: &mut Env) {
        debug_assert!(
            self.threads_inside > 0,
            "ecall_return without matching enter"
        );
        let t0 = env.clock.now().as_nanos();
        self.threads_inside = self.threads_inside.saturating_sub(1);
        self.counters.record_ecall_return();
        env.clock.advance(self.cost.eexit());
        self.record_transition(env, "eexit", t0, &[(labels::EEXIT, 1)]);
    }

    /// Performs an OCALL round trip carrying `bytes` across the boundary
    /// (syscall delegation). The *host-side* work is charged by the caller;
    /// this charges transition + marshalling costs only.
    pub fn ocall(&mut self, env: &mut Env, bytes: usize) {
        let t0 = env.clock.now().as_nanos();
        self.counters.record_ocall();
        env.clock.advance(self.cost.ocall_round_trip(bytes));
        self.record_transition(
            env,
            "ocall",
            t0,
            &[(labels::OCALLS, 1), (labels::EEXIT, 1), (labels::EENTER, 1)],
        );
    }

    /// Records a one-way event injection: the host enters the enclave at a
    /// dedicated handler TCS (signal/timer delivery) and the handler parks
    /// without a matching synchronous `EEXIT`. This is the mechanism behind
    /// EENTER totals exceeding EEXIT totals in Gramine stats (paper
    /// Table III).
    pub fn inject_event_entry(&mut self) {
        self.counters.eenter += 1;
    }

    /// Services an asynchronous exit (interrupt/fault) and resumption.
    pub fn aex(&mut self, env: &mut Env) {
        let t0 = env.clock.now().as_nanos();
        self.counters.record_aex_resume();
        env.clock.advance(self.cost.aex() + self.cost.eresume());
        self.record_transition(env, "aex", t0, &[(labels::AEX, 1), (labels::ERESUME, 1)]);
    }

    /// Pre-faults the entire heap (`sgx.preheat_enclave = true`): each page
    /// costs an `EAUG`-style fault, which raises an AEX.
    pub fn prefault_heap(&mut self, env: &mut Env) {
        let t0 = env.clock.now().as_nanos();
        let pages = self.heap_pages;
        self.epc.account_pages(pages);
        self.counters.aex += pages;
        self.counters.eresume += pages;
        env.clock
            .advance(SimDuration::from_nanos(self.cost.heap_fault_ns * pages));
        self.record_transition(
            env,
            "prefault_heap",
            t0,
            &[(labels::AEX, pages), (labels::ERESUME, pages)],
        );
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: preheated {pages} heap pages", self.name),
        );
    }

    /// Demand-faults `pages` heap pages lazily (preheat disabled).
    pub fn demand_fault(&mut self, env: &mut Env, pages: u64) {
        let t0 = env.clock.now().as_nanos();
        self.epc.account_pages(pages);
        self.counters.aex += pages;
        self.counters.eresume += pages;
        env.clock
            .advance(SimDuration::from_nanos(self.cost.heap_fault_ns * pages));
        self.record_transition(
            env,
            "demand_fault",
            t0,
            &[(labels::AEX, pages), (labels::ERESUME, pages)],
        );
    }

    /// EPC pressure: accounted occupancy (plus any externally imposed
    /// thrash pages) over physical capacity. Above 1.0 the enclave's
    /// working set cannot be fully resident and requests may incur paging
    /// ([`Enclave::maybe_page`]).
    #[must_use]
    pub fn epc_pressure(&self) -> f64 {
        (self.epc.accounted_pages() + self.thrash_pages) as f64 / self.physical_epc_pages as f64
    }

    /// **Fault interface**: destroys the enclave instance, as a host crash
    /// or OS-issued `EREMOVE` would. All EPC state becomes unreachable (the
    /// per-boot MEE keys die with the instance) and every entry point fails
    /// closed with [`HmeeError::EnclaveLost`] until [`Enclave::reload`].
    pub fn mark_lost(&mut self, env: &mut Env) {
        if self.lost {
            return;
        }
        self.lost = true;
        self.threads_inside = 0;
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: instance lost (crash injected)", self.name),
        );
    }

    /// Whether the enclave instance was destroyed and awaits reload.
    #[must_use]
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Rebuilds a lost enclave instance, charging `load_time` — the
    /// measured GSC boot + server-init cost (paper §V-B1: "enclave load
    /// time … for the P-AKA modules to become operational"). Sealed state
    /// re-provisioning restores the vault, so contents survive; only the
    /// time is lost.
    pub fn reload(&mut self, env: &mut Env, load_time: SimDuration) {
        if !self.lost {
            return;
        }
        let t0 = env.clock.now().as_nanos();
        self.lost = false;
        env.clock.advance(load_time);
        self.record_transition(env, "reload", t0, &[(labels::RELOADS, 1)]);
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!(
                "{}: reloaded after crash ({} ms load time)",
                self.name,
                load_time.as_nanos() / 1_000_000
            ),
        );
    }

    /// **Fault interface**: services a burst of `count` asynchronous exits
    /// (interrupt storm / single-stepping pressure), charging
    /// `count × (AEX + ERESUME)`.
    pub fn aex_storm(&mut self, env: &mut Env, count: u64) {
        let t0 = env.clock.now().as_nanos();
        self.counters.aex += count;
        self.counters.eresume += count;
        env.clock.advance(SimDuration::from_nanos(
            (self.cost.aex() + self.cost.eresume()).as_nanos() * count,
        ));
        self.record_transition(
            env,
            "aex_storm",
            t0,
            &[(labels::AEX, count), (labels::ERESUME, count)],
        );
        env.log.record(
            env.clock.now(),
            "enclave",
            format_args!("{}: AEX storm ({count} exits)", self.name),
        );
    }

    /// **Fault interface**: imposes `pages` of external EPC occupancy
    /// (co-resident enclaves competing for physical EPC), raising
    /// [`Enclave::epc_pressure`] and with it the [`Enclave::maybe_page`]
    /// miss probability. Pass `0` to lift the pressure.
    pub fn set_thrash_pages(&mut self, pages: u64) {
        self.thrash_pages = pages;
    }

    /// Currently imposed external EPC occupancy in pages.
    #[must_use]
    pub fn thrash_pages(&self) -> u64 {
        self.thrash_pages
    }

    /// Possibly incurs `EWB`/`ELDU` paging for one request, with
    /// probability growing with EPC over-commit. Returns the pages paged.
    pub fn maybe_page(&mut self, env: &mut Env) -> u64 {
        let pressure = self.epc_pressure();
        if pressure <= 1.0 {
            return 0;
        }
        // Over-commit fraction of the working set misses per request.
        let miss_prob = (1.0 - 1.0 / pressure).clamp(0.0, 0.9);
        let t0 = env.clock.now().as_nanos();
        let mut paged = 0;
        // Sample a handful of hot-page accesses per request.
        for _ in 0..4 {
            if env.rng.chance(miss_prob) {
                self.counters.record_paging();
                env.clock.advance(self.cost.paging_round_trip());
                paged += 1;
            }
        }
        if paged > 0 {
            self.record_transition(
                env,
                "paging",
                t0,
                &[(labels::EWB, paged), (labels::ELDU, paged)],
            );
        }
        paged
    }

    /// Evicts a data page to untrusted main memory (`EWB`): the caller
    /// (the OS / a test) receives the encrypted blob, and the enclave
    /// records the expected version so a stale copy cannot be replayed.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::UnknownSlot`] when the page does not exist or
    /// is already evicted.
    pub fn evict_page(&mut self, env: &mut Env, index: usize) -> Result<EncryptedPage, HmeeError> {
        let page = self
            .epc
            .take_page(index)
            .ok_or_else(|| HmeeError::UnknownSlot(format!("page {index} not resident")))?;
        self.evicted_versions.insert(index, page.version);
        let t0 = env.clock.now().as_nanos();
        self.counters.ewb += 1;
        env.clock.advance(self.cost.cycles(self.cost.ewb_cycles));
        self.record_transition(env, "ewb", t0, &[(labels::EWB, 1)]);
        Ok(page)
    }

    /// Reloads an evicted page (`ELDU`), verifying both the integrity tag
    /// and the anti-replay version against the trusted record.
    ///
    /// # Errors
    ///
    /// Returns [`HmeeError::IntegrityViolation`] for a stale (rolled-back)
    /// or tampered blob, and [`HmeeError::UnknownSlot`] when no eviction
    /// is pending for `index`.
    pub fn reload_page(
        &mut self,
        env: &mut Env,
        index: usize,
        page: EncryptedPage,
    ) -> Result<(), HmeeError> {
        let expected_version = *self.evicted_versions.get(&index).ok_or_else(|| {
            HmeeError::UnknownSlot(format!("no eviction pending for page {index}"))
        })?;
        if page.version != expected_version {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} version {} does not match the version tree ({expected_version}) — rollback attempt",
                page.version
            )));
        }
        let expected_tag = self.page_tag(page.version, &page.ciphertext);
        if !shield5g_crypto::ct_eq(&expected_tag, &page.tag) {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} failed MAC on reload"
            )));
        }
        self.evicted_versions.remove(&index);
        if !self.epc.restore_page(index, page) {
            return Err(HmeeError::IntegrityViolation(format!(
                "page {index} slot not empty"
            )));
        }
        let t0 = env.clock.now().as_nanos();
        self.counters.eldu += 1;
        env.clock.advance(self.cost.cycles(self.cost.eldu_cycles));
        self.record_transition(env, "eldu", t0, &[(labels::ELDU, 1)]);
        Ok(())
    }

    /// Runs in-enclave computation that would take `native` outside,
    /// charging the MEE slowdown.
    pub fn compute(&mut self, env: &mut Env, native: SimDuration) -> SimDuration {
        let t0 = env.clock.now().as_nanos();
        let t = self.cost.enclave_compute(native);
        env.clock.advance(t);
        self.record_transition(env, "compute", t0, &[]);
        t
    }

    /// Writes `plaintext` into the named vault slot, encrypting it into
    /// EPC pages for real.
    pub fn vault_write(&mut self, env: &mut Env, slot: &str, plaintext: &[u8]) {
        // Retire any previous pages by overwriting the slot metadata; the
        // old pages stay as unreferenced ciphertext (like freed memory).
        let mut indices = Vec::new();
        for chunk in plaintext.chunks(PAGE_SIZE).chain(
            // Zero-length writes still occupy one page of metadata.
            std::iter::once(&b""[..]).take(usize::from(plaintext.is_empty())),
        ) {
            self.version_counter += 1;
            let version = self.version_counter;
            let mut page = vec![0u8; PAGE_SIZE];
            page[..chunk.len()].copy_from_slice(chunk);
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&version.to_be_bytes());
            self.epc_cipher.ctr_apply(&nonce, &mut page);
            let tag = self.page_tag(version, &page);
            let idx = self.epc.push_page(EncryptedPage {
                ciphertext: page,
                tag,
                version,
            });
            indices.push(idx);
        }
        self.vault.insert(
            slot.to_owned(),
            SlotMeta {
                page_indices: indices,
                len: plaintext.len(),
            },
        );
        // Charge encryption work: ~1 cycle/byte MEE write-through.
        let pages = plaintext.len().div_ceil(PAGE_SIZE).max(1) as u64;
        env.clock
            .advance(self.cost.cycles(pages * PAGE_SIZE as u64 / 2));
    }

    /// Reads and decrypts a vault slot, verifying integrity.
    ///
    /// Every page's MAC is checked over the full page, but only the bytes
    /// the slot holds are decrypted. The virtual clock is charged per
    /// page, as the MEE would be.
    ///
    /// # Errors
    ///
    /// * [`HmeeError::UnknownSlot`] when nothing was written under `slot`.
    /// * [`HmeeError::IntegrityViolation`] when the EPC ciphertext was
    ///   altered from outside (tag mismatch).
    /// * [`HmeeError::EnclaveLost`] after a crash (until
    ///   [`Enclave::reload`]).
    pub fn vault_read(&mut self, env: &mut Env, slot: &str) -> Result<Vec<u8>, HmeeError> {
        if self.lost {
            return Err(HmeeError::EnclaveLost(self.name.clone()));
        }
        let meta = self
            .vault
            .get(slot)
            .ok_or_else(|| HmeeError::UnknownSlot(slot.to_owned()))?;
        let mut out = Vec::with_capacity(meta.len);
        for &idx in &meta.page_indices {
            let page = self
                .epc
                .page(idx)
                .ok_or_else(|| HmeeError::IntegrityViolation("page vanished".into()))?;
            let expected = self.page_tag(page.version, &page.ciphertext);
            if !shield5g_crypto::ct_eq(&expected, &page.tag) {
                return Err(HmeeError::IntegrityViolation(format!(
                    "slot {slot:?} page {idx} failed EPCM verification"
                )));
            }
            let mut nonce = [0u8; 16];
            nonce[..8].copy_from_slice(&page.version.to_be_bytes());
            let start = out.len();
            let take = (meta.len - start).min(PAGE_SIZE);
            out.extend_from_slice(&page.ciphertext[..take]);
            self.epc_cipher.ctr_apply(&nonce, &mut out[start..]);
        }
        let pages = meta.page_indices.len() as u64;
        env.clock
            .advance(self.cost.cycles(pages * PAGE_SIZE as u64 / 2));
        Ok(out)
    }

    /// Lists vault slot names (sorted).
    #[must_use]
    pub fn vault_slots(&self) -> Vec<String> {
        let mut v: Vec<String> = self.vault.keys().cloned().collect();
        v.sort_unstable();
        v
    }

    /// HMAC-SHA-256 of `version ‖ ciphertext` under the enclave's EPC MAC
    /// key, streamed from the pre-keyed state.
    fn page_tag(&self, version: u64, ciphertext: &[u8]) -> [u8; 32] {
        let mut mac = self.epc_mac.clone();
        mac.update(&version.to_be_bytes());
        mac.update(ciphertext);
        mac.finalize()
    }

    /// **Attacker interface**: what memory introspection sees.
    #[must_use]
    pub fn epc_snapshot(&self) -> EpcSnapshot {
        self.epc.snapshot()
    }

    /// **Attacker interface**: corrupt EPC ciphertext from outside.
    /// Returns whether the targeted byte existed.
    pub fn epc_tamper(&mut self, page_index: usize, byte_index: usize) -> bool {
        self.epc.tamper(page_index, byte_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> (Env, SgxPlatform) {
        let mut env = Env::new(11);
        let platform = SgxPlatform::new(&mut env);
        (env, platform)
    }

    fn small_enclave(env: &mut Env, platform: &SgxPlatform) -> Enclave {
        EnclaveBuilder::new("test")
            .heap_bytes(1024 * 1024)
            .measured_content("libos", 256 * 1024)
            .build(env, platform)
            .unwrap()
    }

    #[test]
    fn build_produces_measurement() {
        let (mut env, platform) = world();
        let e1 = small_enclave(&mut env, &platform);
        let e2 = small_enclave(&mut env, &platform);
        assert_eq!(
            e1.mrenclave(),
            e2.mrenclave(),
            "same build, same measurement"
        );
        let e3 = EnclaveBuilder::new("test")
            .heap_bytes(2 * 1024 * 1024)
            .measured_content("libos", 256 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        assert_ne!(
            e1.mrenclave(),
            e3.mrenclave(),
            "config change changes measurement"
        );
    }

    #[test]
    fn oversized_enclave_rejected() {
        let (mut env, platform) = world();
        let result = EnclaveBuilder::new("huge")
            .heap_bytes(65 * 1024 * 1024 * 1024 * 1024)
            .build(&mut env, &platform);
        assert!(matches!(result, Err(HmeeError::EpcExhausted { .. })));
    }

    #[test]
    fn vault_round_trip_and_ciphertext_only_outside() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let secret = b"K = 465b5ce8b199b49faa5f0a2ee238a6bc";
        e.vault_write(&mut env, "k", secret);
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), secret);
        assert!(!e.epc_snapshot().contains_plaintext(secret));
        assert!(e.epc_snapshot().total_bytes() >= PAGE_SIZE);
    }

    #[test]
    fn vault_multi_page_values() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        for len in [2 * PAGE_SIZE + 17, 3 * PAGE_SIZE + 17, PAGE_SIZE] {
            let big: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            e.vault_write(&mut env, "big", &big);
            assert_eq!(e.vault_read(&mut env, "big").unwrap(), big, "length {len}");
        }
    }

    #[test]
    fn vault_empty_value() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "empty", b"");
        assert_eq!(e.vault_read(&mut env, "empty").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn vault_overwrite_updates() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "s", b"v1");
        e.vault_write(&mut env, "s", b"v2");
        assert_eq!(e.vault_read(&mut env, "s").unwrap(), b"v2");
        assert_eq!(e.vault_slots(), vec!["s".to_owned()]);
    }

    #[test]
    fn unknown_slot_errors() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        assert!(matches!(
            e.vault_read(&mut env, "ghost"),
            Err(HmeeError::UnknownSlot(_))
        ));
    }

    #[test]
    fn tampering_detected_on_read() {
        // Bytes past the slot's 16 are never decrypted, but the MAC still
        // covers the whole page.
        for byte in [3, 16, 100, PAGE_SIZE - 1] {
            let (mut env, platform) = world();
            let mut e = small_enclave(&mut env, &platform);
            e.vault_write(&mut env, "k", b"sixteen byte key");
            assert!(e.epc_tamper(0, byte));
            assert!(
                matches!(
                    e.vault_read(&mut env, "k"),
                    Err(HmeeError::IntegrityViolation(_))
                ),
                "byte {byte}"
            );
        }
    }

    #[test]
    fn short_read_is_charged_a_full_page() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"sixteen byte key");
        let before = env.clock.now();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"sixteen byte key");
        assert_eq!(
            env.clock.now() - before,
            e.cost().cycles(PAGE_SIZE as u64 / 2)
        );
    }

    #[test]
    fn identical_plaintext_pages_have_distinct_ciphertext() {
        // Version-based nonces: writing the same value twice must not leak
        // equality through the ciphertext (anti-replay/versioning).
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "a", b"same-bytes");
        e.vault_write(&mut env, "b", b"same-bytes");
        let snap = e.epc_snapshot();
        assert_ne!(snap.pages[0], snap.pages[1]);
    }

    #[test]
    fn ocall_advances_clock_and_counters() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let t0 = env.clock.now();
        e.ocall(&mut env, 128);
        assert_eq!(e.counters().ocalls, 1);
        assert_eq!(e.counters().eenter, 1);
        assert_eq!(e.counters().eexit, 1);
        assert!(env.clock.now() > t0);
    }

    #[test]
    fn thread_limit_enforced() {
        let (mut env, platform) = world();
        let mut e = EnclaveBuilder::new("t2")
            .heap_bytes(4096)
            .max_threads(2)
            .build(&mut env, &platform)
            .unwrap();
        e.ecall_enter(&mut env).unwrap();
        e.ecall_enter(&mut env).unwrap();
        assert!(matches!(
            e.ecall_enter(&mut env),
            Err(HmeeError::ThreadLimit { max_threads: 2 })
        ));
        e.ecall_return(&mut env);
        e.ecall_enter(&mut env).unwrap();
    }

    #[test]
    fn prefault_counts_aex_per_page() {
        let (mut env, platform) = world();
        let mut e = EnclaveBuilder::new("ph")
            .heap_bytes(512 * 1024 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        let t0 = env.clock.now();
        e.prefault_heap(&mut env);
        assert_eq!(e.counters().aex, 131_072);
        assert!(env.clock.now() > t0);
    }

    #[test]
    fn epc_pressure_and_paging() {
        let (mut env, platform) = world();
        // Platform with only 1 MiB of physical EPC.
        let platform = platform.with_epc_bytes(1024 * 1024);
        let mut e = EnclaveBuilder::new("big-heap")
            .heap_bytes(8 * 1024 * 1024)
            .build(&mut env, &platform)
            .unwrap();
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() > 1.0);
        let mut paged_total = 0;
        for _ in 0..50 {
            paged_total += e.maybe_page(&mut env);
        }
        assert!(paged_total > 0, "over-committed enclave must page");
        assert_eq!(e.counters().ewb, e.counters().eldu);
    }

    #[test]
    fn no_paging_under_capacity() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
    }

    #[test]
    fn evict_reload_round_trip() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"evictable secret!");
        let blob = e.evict_page(&mut env, 0).unwrap();
        // While evicted, reads fail closed.
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::IntegrityViolation(_))
        ));
        e.reload_page(&mut env, 0, blob).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"evictable secret!");
        assert_eq!(e.counters().ewb, 1);
        assert_eq!(e.counters().eldu, 1);
    }

    #[test]
    fn rollback_replay_rejected() {
        // The attacker captures an old version of a page and replays it
        // after the enclave updated the value — the version tree catches it.
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"value v1");
        let stale = e.evict_page(&mut env, 0).unwrap();
        e.reload_page(&mut env, 0, stale.clone()).unwrap();
        // Enclave overwrites the slot (new version, new page index).
        e.vault_write(&mut env, "k", b"value v2");
        let meta_pages = e.epc_snapshot().pages.len();
        assert!(meta_pages >= 2);
        // Evict the *new* page (index 1) and replay the *old* blob.
        let fresh = e.evict_page(&mut env, 1).unwrap();
        assert_ne!(fresh.version, stale.version);
        let err = e.reload_page(&mut env, 1, stale).unwrap_err();
        assert!(matches!(err, HmeeError::IntegrityViolation(_)), "{err}");
        assert!(err.to_string().contains("rollback"));
        // The genuine blob still reloads.
        e.reload_page(&mut env, 1, fresh).unwrap();
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"value v2");
    }

    #[test]
    fn tampered_evicted_blob_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let mut blob = e.evict_page(&mut env, 0).unwrap();
        blob.ciphertext[10] ^= 1;
        assert!(matches!(
            e.reload_page(&mut env, 0, blob),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn reload_without_eviction_rejected() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        let page = EncryptedPage {
            ciphertext: vec![0; PAGE_SIZE],
            tag: [0; 32],
            version: 0,
        };
        assert!(matches!(
            e.reload_page(&mut env, 0, page),
            Err(HmeeError::UnknownSlot(_))
        ));
        assert!(matches!(
            e.evict_page(&mut env, 99),
            Err(HmeeError::UnknownSlot(_))
        ));
    }

    #[test]
    fn enclaves_on_one_platform_are_mutually_opaque() {
        // KI 6 (function isolation): two enclaves sharing the host derive
        // distinct EPC keys from their measurements, so identical
        // plaintext produces unrelated ciphertext and neither can be
        // confused for the other.
        let (mut env, platform) = world();
        let mut a = EnclaveBuilder::new("tenant-a")
            .heap_bytes(8192)
            .build(&mut env, &platform)
            .unwrap();
        let mut b = EnclaveBuilder::new("tenant-b")
            .heap_bytes(8192)
            .build(&mut env, &platform)
            .unwrap();
        // Same image → same measurement; protection is nevertheless
        // per-instance.
        assert_eq!(a.mrenclave(), b.mrenclave());
        a.vault_write(&mut env, "s", b"shared plaintext");
        b.vault_write(&mut env, "s", b"shared plaintext");
        let pa = a.epc_snapshot().pages[0].clone();
        let pb = b.epc_snapshot().pages[0].clone();
        assert_ne!(pa, pb, "per-enclave EPC keys must differ");
        // A page lifted from B cannot be reloaded into A.
        let blob = b.evict_page(&mut env, 0).unwrap();
        let _ = a.evict_page(&mut env, 0).unwrap();
        assert!(matches!(
            a.reload_page(&mut env, 0, blob),
            Err(HmeeError::IntegrityViolation(_))
        ));
    }

    #[test]
    fn lost_enclave_fails_closed_until_reload() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.vault_write(&mut env, "k", b"secret");
        e.mark_lost(&mut env);
        assert!(e.is_lost());
        assert!(matches!(
            e.ecall_enter(&mut env),
            Err(HmeeError::EnclaveLost(_))
        ));
        assert!(matches!(
            e.vault_read(&mut env, "k"),
            Err(HmeeError::EnclaveLost(_))
        ));
        // Re-marking a lost enclave is a no-op (no double log/cost).
        e.mark_lost(&mut env);
        let t0 = env.clock.now();
        let load = SimDuration::from_secs(60);
        e.reload(&mut env, load);
        assert_eq!(env.clock.now() - t0, load, "reload charges load time");
        assert!(!e.is_lost());
        // Sealed-state restore: vault contents survive the reload.
        assert_eq!(e.vault_read(&mut env, "k").unwrap(), b"secret");
        e.ecall_enter(&mut env).unwrap();
        // Reloading a healthy enclave charges nothing.
        let t1 = env.clock.now();
        e.reload(&mut env, load);
        assert_eq!(env.clock.now(), t1);
    }

    #[test]
    fn aex_storm_charges_per_exit() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let before = e.counters();
        let t0 = env.clock.now();
        e.aex_storm(&mut env, 500);
        assert_eq!(e.counters().aex, before.aex + 500);
        assert_eq!(e.counters().eresume, before.eresume + 500);
        let storm = env.clock.now() - t0;
        let t1 = env.clock.now();
        e.aex(&mut env);
        let single = env.clock.now() - t1;
        assert_eq!(storm.as_nanos(), single.as_nanos() * 500);
    }

    #[test]
    fn thrash_pages_raise_pressure_and_force_paging() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        e.prefault_heap(&mut env);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
        // Impose co-resident pressure far beyond physical EPC.
        e.set_thrash_pages(platform.epc_pages() * 4);
        assert!(e.epc_pressure() > 1.0);
        let mut paged = 0;
        for _ in 0..50 {
            paged += e.maybe_page(&mut env);
        }
        assert!(paged > 0, "thrash pressure must cause paging");
        // Lifting the pressure restores residence.
        e.set_thrash_pages(0);
        assert!(e.epc_pressure() <= 1.0);
        assert_eq!(e.maybe_page(&mut env), 0);
    }

    #[test]
    fn compute_charges_mee_factor() {
        let (mut env, platform) = world();
        let mut e = small_enclave(&mut env, &platform);
        let native = SimDuration::from_micros(100);
        let charged = e.compute(&mut env, native);
        assert!(charged >= native);
    }
}
