//! Torn-read safety under concurrent re-registration.
//!
//! A writer re-registers the same task's prior in a tight loop while
//! keep-alive readers hammer the lock-free read path over real TCP. The
//! snapshot-publication design must make every observed frame atomic:
//! each reply decodes cleanly (the client's CRC check rejects torn
//! bytes), its payload is byte-identical to the fresh encode of SOME
//! published generation — never a splice of two — and the generations a
//! single keep-alive stream observes are monotone, because a worker's
//! [`dre_serve::PriorView`] only ever moves forward. The writer starts
//! only once every reader has completed a fetch, so the reads provably
//! overlap the re-registrations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dre_serve::{PriorClient, PriorServer, RetryPolicy, ServeConfig, TcpConnector};

const TASK: u64 = 7;
const READERS: usize = 4;
const GENERATIONS: u64 = 300;

/// Deterministic payload for one generation: length and bytes both vary
/// with the generation, so any splice of two generations is detectable.
fn payload_for(generation: u64) -> Vec<u8> {
    let len = 64 + ((generation * 37) % 509) as usize;
    (0..len)
        .map(|i| {
            (generation
                .wrapping_mul(2_654_435_761)
                .wrapping_add(i as u64 * 97)
                % 251) as u8
        })
        .collect()
}

#[test]
fn concurrent_reregistration_never_tears_a_frame() {
    let config = ServeConfig {
        workers: 2,
        read_timeout: Some(Duration::from_secs(10)),
        write_timeout: Some(Duration::from_secs(10)),
        ..ServeConfig::default()
    };
    let mut handle = PriorServer::bind("127.0.0.1:0", config).unwrap();
    handle.state().register_payload(TASK, payload_for(1));

    // Every payload any reader may legally observe, keyed back to its
    // generation.
    let legal: Arc<HashMap<Vec<u8>, u64>> =
        Arc::new((1..=GENERATIONS).map(|g| (payload_for(g), g)).collect());

    let done = Arc::new(AtomicBool::new(false));
    // Readers that have completed a fetch; the writer waits for all of
    // them before it publishes generation 2.
    let started = Arc::new(AtomicUsize::new(0));
    let addr = handle.addr();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let legal = Arc::clone(&legal);
            let done = Arc::clone(&done);
            let started = Arc::clone(&started);
            std::thread::spawn(move || {
                let mut client = PriorClient::new(TcpConnector::new(addr), RetryPolicy::default())
                    .keep_alive(true);
                let mut buf = Vec::new();
                let mut last_generation = 0u64;
                let mut observed = 0u64;
                loop {
                    client
                        .fetch_prior_payload_into(TASK, &mut buf)
                        .expect("reads must never fail during re-registration");
                    let generation = *legal
                        .get(&buf)
                        .expect("observed a payload no generation ever published");
                    assert!(
                        generation >= last_generation,
                        "one keep-alive stream observed generation {generation} \
                         after {last_generation}"
                    );
                    last_generation = generation;
                    observed += 1;
                    if observed == 1 {
                        started.fetch_add(1, Ordering::SeqCst);
                    }
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                }
                // The writer finished before `done` was set, so the next
                // fetch must observe the final generation.
                client.fetch_prior_payload_into(TASK, &mut buf).unwrap();
                assert_eq!(legal[&buf], GENERATIONS, "final read must be current");
                observed
            })
        })
        .collect();

    // A reader that panicked before its first fetch finishes early; stop
    // waiting then, so the join below reports the panic instead of a hang.
    while started.load(Ordering::SeqCst) < READERS && !readers.iter().any(|r| r.is_finished()) {
        std::thread::yield_now();
    }
    for g in 2..=GENERATIONS {
        handle.state().register_payload(TASK, payload_for(g));
    }
    done.store(true, Ordering::SeqCst);

    let mut total_reads = 0;
    for reader in readers {
        total_reads += reader.join().expect("reader panicked");
    }
    assert!(total_reads > 0);

    let m = handle.metrics();
    // No torn frame ever reached the wire: nothing failed a checksum, no
    // request errored, and every prior request was a cache hit.
    assert_eq!(m.checksum_failures, 0);
    assert_eq!(m.errors, 0);
    assert!(m.prior_cache_hits >= total_reads);
    assert_eq!(m.snapshot_publishes, GENERATIONS);
    // Each published generation paid its frame encode exactly once.
    assert_eq!(m.prior_cache_builds, GENERATIONS);
    handle.shutdown();
}
