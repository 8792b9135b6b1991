//! Idle waiting on the pool core, driven through [`Runtime::install`].

use tpm_worksteal::Runtime;

include!("suite/wake.rs");

wake_tests!(
    |n, (spin, yld)| Runtime::builder().threads(n).idle(spin, yld).build(),
    |rt: &Runtime| rt.install(|_| ()),
    [1, 2]
);
