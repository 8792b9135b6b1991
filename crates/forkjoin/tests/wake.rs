//! Idle waiting between regions, driven through [`Team::parallel`].

use tpm_forkjoin::Team;
use tpm_sync::PoolConfig;

include!("../../worksteal/tests/suite/wake.rs");

wake_tests!(
    |threads, idle| Team::with_config(PoolConfig {
        threads,
        idle,
        ..PoolConfig::from_env()
    }),
    |team: &Team| team.parallel(|_| {}),
    [2, 3]
);
