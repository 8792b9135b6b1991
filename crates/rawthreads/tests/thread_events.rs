//! The no-runtime model's thread accounting: every OS thread a recursive
//! split creates is counted on the process-global counters, and counted
//! exactly once — the counter and the trace agree. (Its own test binary, so
//! no concurrently running test spawns threads into the global counters.)

use tpm_sync::EventKind;

#[test]
fn fib_with_cutoff_counts_every_thread_it_spawns() {
    let stats = tpm_rawthreads::stats();
    let session = tpm_trace::TraceSession::with_capacity(64);
    let before = stats.snapshot();
    assert_eq!(tpm_rawthreads::fib_with_cutoff(20, 10), 6_765);
    let counted = stats.snapshot() - before;
    let summary = session.stop().summary();
    assert!(counted.thread_spawns > 0);
    assert_eq!(counted.thread_spawns, summary.total(EventKind::ThreadSpawn));
    assert_eq!(
        summary.total(EventKind::ThreadJoin),
        counted.thread_spawns,
        "every spawned thread is joined"
    );
}
