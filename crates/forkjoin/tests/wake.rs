//! Idle waiting between regions, driven through [`Team::parallel`]. The
//! body runs on the workers only, so the master waits at the join the way a
//! stealing pool's caller waits for its submission.

use tpm_forkjoin::Team;
use tpm_sync::PoolConfig;

include!("../../worksteal/tests/suite/wake.rs");

wake_tests!(
    |threads, idle| Team::with_config(PoolConfig {
        threads,
        idle,
        ..PoolConfig::from_env()
    }),
    |team: &Team, body: fn()| team.parallel(|ctx| if ctx.thread_num() != 0 {
        body()
    }),
    [2, 3]
);
