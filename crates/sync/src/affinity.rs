//! Optional core-affinity pinning for runtime worker threads, and the
//! transparent-huge-page hint for large kernel buffers.
//!
//! All three runtimes consult the same two knobs when they spawn workers: the
//! `TPM_PIN` environment variable (any [`crate::env_flag`] spelling) or an
//! explicit [`crate::PoolConfig::pin`]. Pinning worker `i` to core
//! `i % cores` removes OS-migration noise from the overhead measurements the
//! paper's figures are about — on a multi-core host, a migrated worker drags
//! its working set across caches mid-benchmark.
//!
//! The workspace builds offline with no `libc`, so the Linux implementation
//! issues the `sched_setaffinity` and `madvise` syscalls directly; everywhere
//! else (and on non-x86_64 Linux) both are documented no-ops returning
//! `false`.

/// True when the `TPM_PIN` environment variable requests pinning.
pub fn pin_from_env() -> bool {
    crate::env_flag(std::env::var("TPM_PIN").ok().as_deref()).unwrap_or(false)
}

/// Pins the calling thread to core `index % available cores`. Returns whether
/// the pin took effect (always `false` on unsupported platforms).
pub fn pin_current_thread(index: usize) -> bool {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    set_affinity(index % cores)
}

/// Bits in one `cpu_set_t` word.
const WORD_BITS: usize = u64::BITS as usize;
/// Mask words passed to the kernel (1024 CPUs, glibc's `CPU_SETSIZE`).
const MASK_WORDS: usize = 1024 / WORD_BITS;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpu: usize) -> bool {
    // sched_setaffinity(pid = 0 (self), cpusetsize, mask) — syscall 203 on
    // x86_64. Issued directly because the workspace has no libc binding.
    let mut mask = [0u64; MASK_WORDS];
    mask[(cpu / WORD_BITS) % MASK_WORDS] |= 1 << (cpu % WORD_BITS);
    let ret: isize;
    // SAFETY: the syscall only reads `mask` (valid for MASK_WORDS * 8 bytes)
    // and affects scheduling of the current thread; registers rcx/r11 are
    // declared clobbered per the x86_64 syscall ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpu: usize) -> bool {
    false
}

/// Advises the kernel to back `[ptr, ptr + len)` with transparent huge
/// pages (`madvise(MADV_HUGEPAGE)`, issued as a raw syscall — no libc).
///
/// The range is shrunk inward to page boundaries, because `madvise`
/// demands page-aligned addresses; a range smaller than one page is a
/// no-op. Returns whether the kernel accepted the hint (`false` on
/// unsupported platforms, THP-disabled kernels, or empty ranges) — callers
/// treat it as strictly best-effort.
pub fn advise_hugepages(ptr: *const u8, len: usize) -> bool {
    const PAGE: usize = 4096;
    let addr = ptr as usize;
    let start = addr.checked_add(PAGE - 1).map(|a| a & !(PAGE - 1));
    let Some(start) = start else { return false };
    let end = (addr + len) & !(PAGE - 1);
    if end <= start {
        return false;
    }
    madvise_hugepage(start, end - start)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn madvise_hugepage(addr: usize, len: usize) -> bool {
    const SYS_MADVISE: isize = 28;
    const MADV_HUGEPAGE: usize = 14;
    let ret: isize;
    // SAFETY: madvise(MADV_HUGEPAGE) never invalidates memory contents; the
    // worst outcome is EINVAL for an unsupported range. Registers rcx/r11
    // are clobbered per the x86_64 syscall ABI.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => ret,
            in("rdi") addr,
            in("rsi") len,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise_hugepage(_addr: usize, _len: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_parses() {
        // Avoid mutating the test process environment (other tests read it):
        // exercise only the current state, which must not panic.
        let _ = pin_from_env();
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn pinning_succeeds_on_linux() {
        assert!(pin_current_thread(0), "pin to core 0");
        // Out-of-range indices wrap instead of failing.
        assert!(pin_current_thread(usize::MAX - 1));
    }

    #[test]
    fn pin_reports_outcome_without_panicking() {
        let _ = pin_current_thread(1);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn hugepage_hint_on_a_real_mapping_does_not_crash() {
        // 4 MiB so at least one aligned 4 KiB page is inside regardless of
        // the allocation's offset; the kernel may still refuse (THP off),
        // so only the no-crash property is asserted.
        let buf = vec![0u8; 4 << 20];
        let _ = advise_hugepages(buf.as_ptr(), buf.len());
        assert!(buf.iter().all(|&b| b == 0), "madvise must not alter data");
    }

    #[test]
    fn hugepage_hint_rejects_tiny_ranges() {
        let buf = [0u8; 64];
        assert!(!advise_hugepages(buf.as_ptr(), buf.len()));
        assert!(!advise_hugepages(std::ptr::null(), 0));
    }
}
