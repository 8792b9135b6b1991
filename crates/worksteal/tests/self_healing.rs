//! Worker death → respawn on the pool core, driven through [`Runtime`].

use tpm_worksteal::Runtime;

include!("suite/self_healing.rs");

self_healing_tests!(Runtime::new, |rt: &Runtime| {
    rt.install(|ctx| ctx.num_workers())
});
