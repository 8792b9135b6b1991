//! Kernel data-path variants.
//!
//! The paper's kernels are written as plain scalar loops — that is what the
//! 2017 sources measured, and the *reference* bodies here preserve them
//! exactly. But scheduling overhead only reads true against compute that
//! runs at hardware speed (Memeti et al., arXiv:1704.05316), so the
//! `tpm-kernels` loops also carry an *optimized* body: unrolled,
//! accumulator-split inner loops the compiler auto-vectorizes and a
//! cache-blocked matmul. [`KernelVariant`] selects between them at run
//! time; both variants run under all eight [`crate::Model`]s. The Rodinia
//! stencils (HotSpot, SRAD) have one body each and ignore the variant:
//! HotSpot's already runs its interior branch-free, and column tiles gained
//! nothing on top of that.

/// Selects between a kernel's paper-faithful scalar body and its
/// data-path-optimized body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelVariant {
    /// The paper's scalar, unblocked loop bodies (the default — figures
    /// regenerate exactly as the 2017 sources wrote them).
    #[default]
    Reference,
    /// Vectorization-friendly bodies: unrolled multi-accumulator inner
    /// loops and cache-blocked matmul.
    Optimized,
}

impl KernelVariant {
    /// Both variants, reference first.
    pub const ALL: [KernelVariant; 2] = [KernelVariant::Reference, KernelVariant::Optimized];

    /// The CLI/JSON spelling.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Reference => "reference",
            KernelVariant::Optimized => "optimized",
        }
    }

    /// Parses the CLI spelling (`reference` / `optimized`).
    pub fn parse(s: &str) -> Option<KernelVariant> {
        match s {
            "reference" => Some(KernelVariant::Reference),
            "optimized" => Some(KernelVariant::Optimized),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("fast"), None);
    }

    #[test]
    fn default_is_reference() {
        assert_eq!(KernelVariant::default(), KernelVariant::Reference);
    }
}
