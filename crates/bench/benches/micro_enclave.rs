//! Criterion microbenches for the HMEE simulator: transition accounting,
//! vault crypto, and the full P-AKA serve path (real time, not virtual).

use criterion::{criterion_group, criterion_main, Criterion};
use shield5g_core::harness::{deploy_module, standard_request, ModuleDeployment};
use shield5g_core::paka::{PakaKind, SgxConfig};
use shield5g_hmee::enclave::{Enclave, EnclaveBuilder};
use shield5g_hmee::platform::SgxPlatform;
use shield5g_sim::Env;
use std::hint::black_box;

/// A 1 MiB enclave on a fresh platform seeded with `seed`.
fn small_enclave(seed: u64) -> (Env, Enclave) {
    let mut env = Env::new(seed);
    let platform = SgxPlatform::new(&mut env);
    let enclave = EnclaveBuilder::new("bench")
        .heap_bytes(1 << 20)
        .build(&mut env, &platform)
        .expect("a 1 MiB enclave fits the platform");
    (env, enclave)
}

fn bench_enclave(c: &mut Criterion) {
    c.bench_function("enclave_ocall_roundtrip", |b| {
        let (mut env, mut enclave) = small_enclave(1);
        b.iter(|| enclave.ocall(black_box(&mut env), 64));
    });
    c.bench_function("vault_write_read_4KiB", |b| {
        let (mut env, mut enclave) = small_enclave(2);
        let secret = vec![0x5a; 4096];
        b.iter(|| {
            enclave.vault_write(&mut env, "slot", black_box(&secret));
            black_box(enclave.vault_read(&mut env, "slot").unwrap());
        });
    });
    c.bench_function("vault_read_16B_slot", |b| {
        // The per-request shape: the P-AKA module reads a 16-byte key slot.
        let (mut env, mut enclave) = small_enclave(2);
        enclave.vault_write(&mut env, "k", &[0x5a; 16]);
        b.iter(|| black_box(enclave.vault_read(&mut env, "k")));
    });
    c.bench_function("paka_serve_container", |b| {
        let (mut env, mut module) = deploy_module(3, PakaKind::EUdm, ModuleDeployment::Container);
        let req = standard_request(PakaKind::EUdm);
        let _ = module.serve(&mut env, req.clone());
        b.iter(|| black_box(module.serve(&mut env, req.clone())));
    });
    c.bench_function("paka_serve_sgx", |b| {
        let (mut env, mut module) = deploy_module(
            4,
            PakaKind::EUdm,
            ModuleDeployment::Sgx(SgxConfig::default()),
        );
        let req = standard_request(PakaKind::EUdm);
        let _ = module.serve(&mut env, req.clone());
        b.iter(|| black_box(module.serve(&mut env, req.clone())));
    });
}

criterion_group!(benches, bench_enclave);
criterion_main!(benches);
