//! The caller's seat on the pool core, driven through [`Runtime::install`].

use tpm_worksteal::Runtime;

include!("suite/seat.rs");

seat_tests!(
    Runtime,
    Runtime::new,
    "tpm-worksteal",
    |rt: &Runtime, pieces: usize, body: &(dyn Fn() + Sync)| {
        rt.install(|ctx| {
            if pieces == 1 {
                body();
            } else {
                tpm_worksteal::join(ctx, |_| body(), |_| body());
            }
        })
    }
);
