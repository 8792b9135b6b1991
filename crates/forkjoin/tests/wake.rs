//! Idle waiting between regions, driven through [`Team::parallel`].

use tpm_forkjoin::Team;

include!("../../worksteal/tests/suite/wake.rs");

wake_tests!(
    |n, (spin, yld)| Team::builder().threads(n).idle(spin, yld).build(),
    |team: &Team| team.parallel(|_| {}),
    [2, 3]
);
