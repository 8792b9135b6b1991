//! Optional core-affinity pinning for runtime worker threads.
//!
//! All three runtimes consult the same two knobs when they spawn workers: the
//! `TPM_PIN` environment variable (any [`crate::env_flag`] spelling) or an
//! explicit [`crate::PoolConfig::pin`]. Pinning worker `i` to core
//! `i % cores` removes OS-migration noise from the overhead measurements the
//! paper's figures are about — on a multi-core host, a migrated worker drags
//! its working set across caches mid-benchmark.
//!
//! The workspace builds offline with no `libc`, so the Linux implementation
//! issues the `sched_setaffinity` syscall directly; everywhere else (and on
//! non-x86_64 Linux) pinning is a documented no-op returning `false`.

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
}
