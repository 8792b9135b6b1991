//! Integration test for future chaining across launch policies.

use threadcmp::rawthreads::{async_task, Launch};

#[test]
fn future_chain_crosses_policies() {
    let v = async_task(Launch::Deferred, || 10)
        .and_then(Launch::Async, |x| x + 5)
        .and_then(Launch::Deferred, |x| x * 2)
        .get();
    assert_eq!(v, 30);
}
