//! Host-side measurement: the calling thread's CPU clock, the
//! benchmark's own span recorder, and the provenance stamped on every
//! result.

use shield5g_crypto::sha256::Sha256;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// CPU time the calling thread has run, in nanoseconds.
///
/// Time the thread spends runnable but preempted by other tenants of
/// the host is not counted, which makes this steadier than wall time on
/// a shared machine. The standard library has no thread CPU clock, and
/// `/proc/thread-self/schedstat` only advances at scheduler ticks, so
/// this calls libc (which every Rust binary on Linux links).
///
/// # Panics
///
/// Panics when the clock is unavailable.
#[must_use]
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // 64-bit Linux) for the whole call, and `clock_gettime` writes only
    // into it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is non-negative");
    secs * 1_000_000_000 + nanos
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Debug)]
struct SpanRec {
    name: String,
    run: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Handle of an open span; `None` while recording is off.
pub type SpanToken = Option<usize>;

/// In-memory span recorder, written out once when the run ends.
/// Spans of one operation share a `run` id; start and end are host
/// nanoseconds since the recorder was created.
#[derive(Debug)]
pub struct Tracer {
    /// Whether `open` records anything (the traced run toggles it per
    /// repetition to measure its own overhead).
    pub enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// A recorder, on or off.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for operation `run` under `parent`.
    pub fn open(&mut self, name: &str, run: u64, parent: SpanToken) -> SpanToken {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name: name.to_owned(),
            run,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, token: SpanToken) {
        if let Some(i) = token {
            let end = self.now_ns();
            self.spans[i].end_ns = end;
        }
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line, after a first line holding
    /// `provenance`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be written.
    pub fn write_jsonl(&self, path: &Path, provenance: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(96 * (self.spans.len() + 1));
        let _ = writeln!(out, "{{\"provenance\": {provenance}}}");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        let _ = write!(s, "{b:02x}");
        s
    })
}

/// First 16 hex digits of the SHA-256 of `text`.
#[must_use]
pub fn short_hash(text: &str) -> String {
    hex(&Sha256::digest(text.as_bytes())[..8])
}

/// The commit checked out in `.git`, or `none` outside a git checkout.
#[must_use]
pub fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "none".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(reference)
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.split(' ').next().unwrap_or_default().to_owned())
        })
        .map_or_else(|| "none".to_owned(), |r| r.trim().to_owned())
}

/// Digest of the library sources the benchmark was built from: every
/// `.rs` and `Cargo.toml` under `crates/`, in path order. It identifies
/// the code where no git metadata is present.
#[must_use]
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Sha256::new();
    for f in &files {
        h.update(f.to_string_lossy().as_bytes());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    hex(&h.finalize()[..8])
}
