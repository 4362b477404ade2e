//! Host-cost benchmark for shield5g: host time per simulated operation
//! on three workloads, with per-layer ns/op and per-op counts.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! line before it carries the provenance. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones and writes the
//! benchmark's spans to `perfbench/out/`. `--short` shrinks every
//! workload to self-test size. See `perfbench/README.md`.

mod probes;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Rep, Sim, Tally, Workload, SUB_RUNS};

/// The seed whose simulated outputs `golden.txt` records.
const DEFAULT_SEED: u64 = 1;

/// Expected simulated outputs and counts at [`DEFAULT_SEED`], one
/// `workload metric value` triple per line.
const GOLDEN: &str = include_str!("../golden.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--short" {
            args.short = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err(format!("--seconds {} is not a duration", args.seconds));
    }
    Ok(args)
}

/// Unit of every metric the benchmark reports.
fn unit(name: &str) -> &'static str {
    match name {
        "host_us_per_op" => "us",
        "setup_s" => "s",
        "peak_rss_mb" => "MiB",
        "sim_p50_ms" | "sim_p99_ms" => "ms",
        "scale.ejections" | "obs.spans_dropped" => "count",
        "mw.useful_ratio" => "ratio",
        n if n.ends_with("_pct") => "%",
        n if n.ends_with("_per_op") => "1/op",
        _ => "ns",
    }
}

/// Median of `v`; NaN when empty.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Compares a default-seed run against `golden.txt`.
fn check_golden(workload: &str, sim: &Sim, problems: &mut Vec<String>) {
    let expected: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            (f.next()? == workload).then_some((f.next()?, f.next()?))
        })
        .collect();
    for (key, got) in sim {
        match expected.get(key).map(|v| v.parse::<f64>()) {
            Some(Ok(want)) if want.to_bits() == got.to_bits() => {}
            Some(_) => problems.push(format!(
                "{key} = {got:?}, golden.txt records {}",
                expected[key]
            )),
            None => problems.push(format!("golden.txt has no line `{workload} {key} {got:?}`")),
        }
    }
}

fn provenance(args: &Args, wl: &Workload) -> String {
    format!(
        "{{\"git_rev\": \"{}\", \"src_digest\": \"{}\", \"config_sha256\": \"{}\", \
         \"threads\": 1, \"nproc\": {}, \"profile\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"short\": {}, \"clock\": \"thread-cpu\"}}",
        trace::git_revision(),
        trace::source_digest(),
        trace::short_hash(&wl.config_text()),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload,
        args.seed,
        args.short,
    )
}

/// One repetition as the run recorded it.
struct Done {
    traced: bool,
    sub: u64,
    rep: Rep,
}

/// Thread CPU time over the timed calls of the traced (or untraced)
/// repetitions, divided by the operations they attempted, in us. The
/// shared host switches between quiet and contended spells of a few
/// seconds; a total over the whole run averages them, where a median of
/// a handful of repetitions would jump between the two.
#[allow(clippy::cast_precision_loss)]
fn host_us_per_op(reps: &[Done], traced: bool) -> f64 {
    let (cpu, ops) = reps
        .iter()
        .filter(|d| d.traced == traced)
        .fold((0u64, 0u64), |(c, o), d| {
            (c + d.rep.cpu_ns, o + d.rep.tally.ops)
        });
    cpu as f64 / ops as f64 / 1e3
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = Workload::new(&args.workload, args.seed, args.short) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let provenance = provenance(&args, &wl);
    println!("provenance {provenance}");

    let mut metrics: Vec<(String, f64)> = Vec::new();

    // Repeat the workload's sub-runs in turn for the run's duration,
    // and at least until every sub-run has run and one has repeated.
    // The traced run alternates traced and untraced repetitions, so its
    // overhead is measured within one process. The untraced run times
    // one world build before each repetition, so that the set-up
    // samples, like the repetitions, spread over the whole run.
    let mut tracer = Tracer::new(false);
    let started = Instant::now();
    let mut reps: Vec<Done> = Vec::new();
    let mut builds: Vec<f64> = Vec::new();
    while (reps.len() as u64) <= SUB_RUNS || started.elapsed().as_secs_f64() < args.seconds {
        let (run, sub) = (reps.len() as u64, reps.len() as u64 % SUB_RUNS);
        let traced = args.trace && run % 2 == 0;
        if !args.trace {
            builds.push(wl.time_setup() as f64 / 1e9);
        }
        tracer.enabled = traced;
        let rep = wl.rep(&mut tracer, run, sub);
        eprintln!(
            "perfbench: repetition {run} (sub-run {sub}{}): {:.1} us/op",
            if traced { ", traced" } else { "" },
            rep.cpu_ns as f64 / rep.tally.ops.max(1) as f64 / 1e3
        );
        reps.push(Done { traced, sub, rep });
    }
    tracer.enabled = args.trace;

    let mut attempted: u64 = reps.iter().map(|d| d.rep.tally.ops).sum();
    let mut failed: u64 = reps.iter().map(|d| d.rep.failed).sum();
    let mut problems: Vec<String> = Vec::new();
    let firsts: Vec<Tally> = (0..SUB_RUNS).map(|s| reps[s as usize].rep.tally).collect();
    for (i, d) in reps.iter().enumerate() {
        problems.extend(d.rep.problems.iter().cloned());
        if d.rep.tally != firsts[d.sub as usize] {
            problems.push(format!(
                "repetition {i} reports differ from the first run of sub-run {}",
                d.sub
            ));
        }
    }
    let mut sim: Sim = workloads::sim_metrics(&firsts);
    let untraced_us = host_us_per_op(&reps, false);

    if args.trace {
        if let Some(pass) = wl.hub_pass(&mut tracer, reps.len() as u64, &firsts[0]) {
            attempted += pass.tally.ops;
            failed += pass.failed;
            problems.extend(pass.problems);
            let counts = workloads::sim_metrics(&[pass.tally]);
            for key in ["hmee.ocall_per_op", "hmee.ewb_per_op"] {
                if let Some(v) = counts.get(key) {
                    sim.insert(key, *v);
                }
            }
        }
    }
    if args.seed == DEFAULT_SEED && !args.short {
        check_golden(&args.workload, &sim, &mut problems);
    }

    if args.trace {
        let budget = if args.short {
            probes::Budget {
                batch_ns: 1_000_000,
                batches: 3,
            }
        } else {
            probes::Budget {
                batch_ns: 20_000_000,
                batches: 5,
            }
        };
        let first_run = reps.len() as u64 + 1;
        metrics.extend(probes::run_all(wl.shape(), budget, &mut tracer, first_run));
        let tax = metrics
            .iter()
            .find(|(n, _)| n == "core.enclave_tax_ns")
            .map_or(f64::NAN, |(_, v)| *v);
        metrics.push((
            "core.enclave_share_pct".into(),
            100.0 * tax / (untraced_us * 1e3),
        ));
        metrics.extend(
            sim.iter()
                .filter(|(k, _)| !k.starts_with("sim_"))
                .map(|(k, v)| ((*k).to_owned(), *v)),
        );
        let traced_us = host_us_per_op(&reps, true);
        metrics.push((
            "trace.overhead_pct".into(),
            100.0 * (traced_us - untraced_us) / untraced_us,
        ));
        let path = format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        );
        if let Err(e) = tracer.write_jsonl(std::path::Path::new(&path), &provenance) {
            problems.push(format!("writing {path}: {e}"));
        }
        eprintln!("perfbench: {} spans written to {path}", tracer.len());
    } else {
        metrics.push(("host_us_per_op".into(), untraced_us));
        metrics.push(("setup_s".into(), median(builds)));
        metrics.push(("peak_rss_mb".into(), trace::peak_rss_mb()));
        for key in ["sim_p50_ms", "sim_p99_ms", "sim_availability_pct"] {
            metrics.push((key.into(), sim.get(key).copied().unwrap_or(f64::NAN)));
        }
    }

    for (name, v) in &mut metrics {
        if !v.is_finite() {
            problems.push(format!("{name} is not finite"));
            *v = 0.0;
        }
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    if !problems.is_empty() {
        failed = attempted;
    }
    let mut body = String::new();
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            unit(name)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        problems.is_empty()
    );
    ExitCode::SUCCESS
}
