//! Worker death → respawn on the pool core, driven through
//! [`ActorRuntime`].

use tpm_actors::ActorRuntime;

include!("../../worksteal/tests/suite/self_healing.rs");

/// Runs one task on the pool and returns the worker count it saw.
fn width(rt: &ActorRuntime) -> usize {
    let (seen, done) = tpm_actors::future();
    rt.spawn(move |ctx| done.set(ctx.num_workers()));
    seen.wait()
}

self_healing_tests!(ActorRuntime::new, width);
