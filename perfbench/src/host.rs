//! Host fingerprint and process memory.
//!
//! Every result carries the fingerprint; results whose fingerprints
//! differ come from different machines or toolchains and must not be
//! compared.

use dhg_train::json::escape;

/// What a measurement depends on besides the code.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu: String,
    pub avx2: bool,
    pub fma: bool,
    pub rustc: &'static str,
    pub commit: String,
}

impl Fingerprint {
    pub fn probe() -> Self {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            avx2: has_feature("avx2"),
            fma: has_feature("fma"),
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":\"{}\",\"avx2\":{},\"fma\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
            self.nproc,
            escape(&self.cpu),
            self.avx2,
            self.fma,
            escape(self.rustc),
            escape(&self.commit)
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn has_feature(name: &str) -> bool {
    match name {
        "avx2" => std::is_x86_feature_detected!("avx2"),
        "fma" => std::is_x86_feature_detected!("fma"),
        _ => false,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn has_feature(_name: &str) -> bool {
    false
}

/// The CPU brand string from `cpuid` leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // leaf 0x8000_0000 reports the highest extended leaf
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".into();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    std::env::consts::ARCH.to_string()
}

/// The checked-out commit, read from `.git` in the working directory;
/// "none" outside a git checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| packed_ref(r).unwrap_or_else(|| "unknown".into())),
        None => head.to_string(),
    }
}

fn packed_ref(name: &str) -> Option<String> {
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_string())
    })
}

/// Peak resident set size of this process image in MiB (`VmHWM`, which
/// starts afresh at `exec`, unlike `getrusage`'s `ru_maxrss`, which
/// inherits the launching process's peak).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
