//! Idle waiting on the pool core, driven through an [`ActorRuntime`]
//! mailbox send.

use tpm_actors::{Actor, ActorCtx, ActorRuntime, Addr, Promise};
use tpm_sync::SchedulerStats;

/// Completes every promise it is sent.
struct Echo;

impl Actor for Echo {
    type Msg = Promise<()>;

    fn on_message(&mut self, msg: Promise<()>, _ctx: &ActorCtx<'_, '_>) {
        msg.set(());
    }
}

struct Echoes {
    echo: Addr<Echo>,
    rt: ActorRuntime,
}

impl Echoes {
    fn new(threads: usize, (spin, yld): (u32, u32)) -> Self {
        let rt = ActorRuntime::builder()
            .threads(threads)
            .idle(spin, yld)
            .build();
        Self {
            echo: rt.spawn_actor(Echo),
            rt,
        }
    }

    fn send(&self) {
        let (done, promise) = tpm_actors::future();
        self.echo.send(promise);
        done.wait();
    }

    fn stats(&self) -> &SchedulerStats {
        self.rt.stats()
    }
}

include!("../../worksteal/tests/suite/wake.rs");

wake_tests!(Echoes::new, Echoes::send, [1, 2]);
