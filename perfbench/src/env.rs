//! The environment every result is recorded with: core count, cache
//! sizes (from CPUID, so nothing outside the checkout is read) and the
//! build profile. The commit and a digest of the sources are added by
//! `run.py`, which can see the checkout.

use crate::json::Json;

/// L2 size assumed when CPUID does not report one (2 MB per core, the
/// L2 of the Xeon host the workloads were sized for).
pub const L2_FALLBACK_BYTES: u64 = 2 * 1024 * 1024;

/// One cache level as CPUID leaf 4 describes it.
struct Cache {
    level: u32,
    kind: &'static str,
    bytes: u64,
    shared_by: u32,
}

#[cfg(target_arch = "x86_64")]
fn caches() -> Vec<Cache> {
    use std::arch::x86_64::__cpuid_count;
    let mut out = Vec::new();
    if __cpuid_count(0, 0).eax < 4 {
        return out;
    }
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        let kind = match r.eax & 0x1f {
            0 => break,
            1 => "data",
            2 => "instruction",
            _ => "unified",
        };
        let ways = u64::from((r.ebx >> 22) + 1);
        let partitions = u64::from(((r.ebx >> 12) & 0x3ff) + 1);
        let line = u64::from((r.ebx & 0xfff) + 1);
        let sets = u64::from(r.ecx) + 1;
        out.push(Cache {
            level: (r.eax >> 5) & 0x7,
            kind,
            bytes: ways * partitions * line * sets,
            shared_by: ((r.eax >> 14) & 0xfff) + 1,
        });
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn caches() -> Vec<Cache> {
    Vec::new()
}

/// L2 bytes per core, for working-set comparisons.
#[must_use]
pub fn l2_bytes() -> u64 {
    caches()
        .iter()
        .find(|c| c.level == 2)
        .map_or(L2_FALLBACK_BYTES, |c| c.bytes)
}

#[must_use]
pub fn record() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let caches = caches()
        .into_iter()
        .map(|c| {
            Json::obj()
                .with("level", u64::from(c.level))
                .with("kind", c.kind)
                .with("bytes", c.bytes)
                .with("shared_by_threads", u64::from(c.shared_by))
        })
        .collect();
    Json::obj()
        .with("nproc", nproc)
        .with("caches", Json::Arr(caches))
        .with("arch", std::env::consts::ARCH)
        .with("os", std::env::consts::OS)
        .with(
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (lto = true, codegen-units = 1)"
            },
        )
}
