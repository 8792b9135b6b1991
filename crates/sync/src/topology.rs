//! NUMA node topology: sysfs probe, placement helpers, and huge-page hints.
//!
//! Extends [`crate::affinity`] with the *where* of placement. The probe
//! reads `/sys/devices/system/node/node*/cpulist` (no libc, no syscalls —
//! plain file reads), so it works in any unprivileged container; hosts
//! without the sysfs tree (or non-Linux platforms) collapse to a single
//! node, which makes every NUMA-aware policy degrade to the existing
//! behaviour.
//!
//! Two environment knobs, mirroring `TPM_PIN`:
//!
//! * `TPM_NUMA` — a [`crate::env_flag`] "on" spelling allows node-aware
//!   victim ordering in every pooled runtime, an "off" spelling forbids it;
//!   unset follows `TPM_PIN`. Either way it only takes effect when the
//!   probed topology has multiple nodes ([`crate::PoolConfig::from_env`]).
//! * `TPM_NUMA_NODES` — overrides the probe with an explicit topology spec,
//!   e.g. `0-3,8-11;4-7,12-15` (nodes separated by `;`, each a cpulist).
//!   This is how the 1-core CI container tests multi-node policies.

use std::sync::OnceLock;

/// One probed (or specified) NUMA topology: which CPUs live on which node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NumaTopology {
    /// CPU ids per node, ascending within each node.
    nodes: Vec<Vec<usize>>,
    /// CPU id → node index (CPUs not listed map to node 0).
    node_of: Vec<usize>,
}

impl NumaTopology {
    /// The machine's topology: `TPM_NUMA_NODES` override first, then the
    /// sysfs probe, then a single-node fallback covering every CPU.
    ///
    /// Probed once per process (the result is immutable for the process
    /// lifetime); repeated calls are a cached clone.
    pub fn probe() -> NumaTopology {
        static PROBE: OnceLock<NumaTopology> = OnceLock::new();
        PROBE
            .get_or_init(|| {
                if let Ok(spec) = std::env::var("TPM_NUMA_NODES") {
                    if let Some(t) = Self::parse_spec(&spec) {
                        return t;
                    }
                }
                Self::probe_sysfs().unwrap_or_else(|| {
                    Self::single_node(
                        std::thread::available_parallelism()
                            .map(|n| n.get())
                            .unwrap_or(1),
                    )
                })
            })
            .clone()
    }

    /// A degenerate one-node topology over `cpus` CPUs.
    pub fn single_node(cpus: usize) -> NumaTopology {
        let cpus = cpus.max(1);
        Self::from_nodes(vec![(0..cpus).collect()])
    }

    /// Parses a `TPM_NUMA_NODES`-style spec: cpulists separated by `;`,
    /// e.g. `0-3,8-11;4-7,12-15`. Returns `None` on any malformed part or
    /// if no node ends up with a CPU.
    pub fn parse_spec(spec: &str) -> Option<NumaTopology> {
        let mut nodes = Vec::new();
        for part in spec.split(';') {
            let cpus = parse_cpulist(part)?;
            if !cpus.is_empty() {
                nodes.push(cpus);
            }
        }
        if nodes.is_empty() {
            None
        } else {
            Some(Self::from_nodes(nodes))
        }
    }

    fn from_nodes(mut nodes: Vec<Vec<usize>>) -> NumaTopology {
        let mut max_cpu = 0;
        for cpus in &mut nodes {
            cpus.sort_unstable();
            cpus.dedup();
            max_cpu = max_cpu.max(cpus.last().copied().unwrap_or(0));
        }
        let mut node_of = vec![0; max_cpu + 1];
        for (node, cpus) in nodes.iter().enumerate() {
            for &cpu in cpus {
                node_of[cpu] = node;
            }
        }
        NumaTopology { nodes, node_of }
    }

    /// Reads `/sys/devices/system/node/`; `None` when the tree is missing
    /// or describes fewer than one populated node.
    fn probe_sysfs() -> Option<NumaTopology> {
        let mut numbered: Vec<(usize, Vec<usize>)> = Vec::new();
        let entries = std::fs::read_dir("/sys/devices/system/node").ok()?;
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(idx) = name
                .strip_prefix("node")
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            let list = std::fs::read_to_string(entry.path().join("cpulist")).ok()?;
            let cpus = parse_cpulist(list.trim())?;
            if !cpus.is_empty() {
                numbered.push((idx, cpus));
            }
        }
        if numbered.is_empty() {
            return None;
        }
        numbered.sort_unstable_by_key(|(idx, _)| *idx);
        Some(Self::from_nodes(
            numbered.into_iter().map(|(_, cpus)| cpus).collect(),
        ))
    }

    /// Number of nodes (always at least 1).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node a CPU lives on (node 0 for unknown CPUs, so worker-index
    /// arithmetic never panics).
    pub fn node_of_cpu(&self, cpu: usize) -> usize {
        self.node_of.get(cpu).copied().unwrap_or(0)
    }

    /// CPUs of one node (empty for out-of-range nodes).
    pub fn cpus_of(&self, node: usize) -> &[usize] {
        self.nodes.get(node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total CPUs across all nodes.
    pub fn num_cpus(&self) -> usize {
        self.nodes.iter().map(Vec::len).sum()
    }
}

/// Parses a kernel cpulist (`0-17,36-53`) into CPU ids. CPUs above 4095
/// are rejected (a malformed sysfs read must not allocate unbounded maps).
fn parse_cpulist(list: &str) -> Option<Vec<usize>> {
    const MAX_CPU: usize = 4095;
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some((lo, hi)) = part.split_once('-') {
            let lo: usize = lo.trim().parse().ok()?;
            let hi: usize = hi.trim().parse().ok()?;
            if lo > hi || hi > MAX_CPU {
                return None;
            }
            cpus.extend(lo..=hi);
        } else {
            let cpu: usize = part.parse().ok()?;
            if cpu > MAX_CPU {
                return None;
            }
            cpus.push(cpu);
        }
    }
    Some(cpus)
}

/// True when `TPM_NUMA` requests node-aware scheduling, false when it
/// forbids it; unset (or unrecognised) defers to `default`.
pub fn numa_from_env(default: bool) -> bool {
    crate::env_flag(std::env::var("TPM_NUMA").ok().as_deref()).unwrap_or(default)
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
    fn cpulist_parsing_handles_ranges_singles_and_garbage() {
        assert_eq!(parse_cpulist("0-3").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("5").unwrap(), vec![5]);
        assert_eq!(
            parse_cpulist("0-2,8,10-11").unwrap(),
            vec![0, 1, 2, 8, 10, 11]
        );
        assert_eq!(parse_cpulist("").unwrap(), Vec::<usize>::new());
        assert!(parse_cpulist("3-1").is_none(), "inverted range");
        assert!(parse_cpulist("a-b").is_none());
        assert!(parse_cpulist("0-99999").is_none(), "absurd range rejected");
    }

    #[test]
    fn spec_parsing_builds_multi_node_topologies() {
        let t = NumaTopology::parse_spec("0-3,8-11;4-7,12-15").unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_cpus(), 16);
        assert_eq!(t.cpus_of(0), &[0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(t.node_of_cpu(5), 1);
        assert_eq!(t.node_of_cpu(9), 0);
        assert_eq!(t.node_of_cpu(999), 0, "unknown CPUs map to node 0");
        assert!(NumaTopology::parse_spec(";;").is_none());
        assert!(NumaTopology::parse_spec("0-3;oops").is_none());
    }

    #[test]
    fn single_node_fallback_covers_every_cpu() {
        let t = NumaTopology::single_node(4);
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.cpus_of(0), &[0, 1, 2, 3]);
        assert_eq!(t.node_of_cpu(3), 0);
        let t = NumaTopology::single_node(0);
        assert_eq!(t.num_cpus(), 1, "clamped to one CPU");
    }

    #[test]
    fn probe_never_panics_and_is_nonempty() {
        let t = NumaTopology::probe();
        assert!(t.num_nodes() >= 1);
        assert!(t.num_cpus() >= 1);
        // Cached: a second probe observes the identical topology.
        assert_eq!(NumaTopology::probe(), t);
    }

    #[test]
    fn numa_env_parse_defaults() {
        // Only exercise the current process state (no env mutation — other
        // tests run concurrently); both defaults must pass through when the
        // variable is unset or unrecognised.
        if std::env::var("TPM_NUMA").is_err() {
            assert!(numa_from_env(true));
            assert!(!numa_from_env(false));
        }
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
