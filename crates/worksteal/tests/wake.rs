//! Idle waiting on the pool core, driven through [`Runtime::install`].

use tpm_sync::PoolConfig;
use tpm_worksteal::Runtime;

include!("suite/wake.rs");

wake_tests!(
    |threads, idle| Runtime::with_config(PoolConfig {
        threads,
        idle,
        ..PoolConfig::from_env()
    }),
    |rt: &Runtime, body: fn()| rt.install(move |_| body()),
    [1, 3]
);
