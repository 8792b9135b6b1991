//! Idle waiting on the pool core, driven through both of an
//! [`ActorRuntime`]'s outside waits: a mailbox send answered through
//! `ActorRuntime::block_on`, and (`scatter`) a `scatter_for_indexed_cancel`
//! join.

use tpm_actors::{Actor, ActorCtx, ActorRuntime, Addr, Promise};
use tpm_sync::{PoolConfig, SchedulerStats};

/// Runs the body it is sent, then completes the promise.
struct Echo;

impl Actor for Echo {
    type Msg = (fn(), Promise<()>);

    fn on_message(&mut self, (body, done): (fn(), Promise<()>), _ctx: &ActorCtx<'_, '_>) {
        body();
        done.set(());
    }
}

struct Echoes {
    echo: Addr<Echo>,
    rt: ActorRuntime,
}

fn runtime(threads: usize, idle: (u32, u32)) -> ActorRuntime {
    ActorRuntime::with_config(PoolConfig {
        threads,
        idle,
        ..PoolConfig::from_env()
    })
}

impl Echoes {
    fn new(threads: usize, idle: (u32, u32)) -> Self {
        let rt = runtime(threads, idle);
        Self {
            echo: rt.spawn_actor(Echo),
            rt,
        }
    }

    fn send(&self, body: fn()) {
        let (done, promise) = tpm_actors::future();
        self.echo.send((body, promise));
        self.rt.block_on(done);
    }

    fn stats(&self) -> &SchedulerStats {
        self.rt.stats()
    }
}

include!("../../worksteal/tests/suite/wake.rs");

wake_tests!(Echoes::new, Echoes::send, [1, 3]);

/// The same suite through the `actor_for` loop entry's join.
mod scatter {
    use super::*;
    use tpm_actors::scatter_for_indexed_cancel;
    use tpm_sync::CancelToken;

    wake_tests!(
        runtime,
        |rt: &ActorRuntime, body: fn()| {
            scatter_for_indexed_cancel(rt, 0..1, 1, &CancelToken::new(), |_, _| body())
        },
        [1, 3]
    );
}
