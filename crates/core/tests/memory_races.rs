//! Stress tests for attraction-memory v2 races: an object migrating
//! between sites under concurrent readers and writers must never appear
//! missing, and no reader may observe values moving backwards (replica
//! staleness is bounded by invalidation + TTL, but each reader's view is
//! monotonic: a cached copy is never older than that reader's last
//! remote fetch).

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn migrating_object_survives_concurrent_readers_and_writers() {
    let cluster = Arc::new(InProcessCluster::new(3, SiteConfig::default()).unwrap());
    let s0 = cluster.site(0).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(0));

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();

    // One writer per site: writes chase the owner wherever the object
    // currently lives, each site contributing a distinct residue class
    // so any lost write would be visible as a stuck residue.
    for w in 0..3usize {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(w).inner();
            for i in 0..40u64 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                site.memory
                    .write(site, addr, Value::from_u64(i * 3 + w as u64))
                    .unwrap_or_else(|e| panic!("writer {w} iteration {i}: {e}"));
            }
        }));
    }

    // One reader per site, alternating snapshot reads with occasional
    // migrating reads to force ownership to move mid-traffic. A live
    // object must never read as missing.
    for r in 0..3usize {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(r).inner();
            for i in 0..120u64 {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let migrate = i % 7 == r as u64;
                let v = site
                    .memory
                    .read(site, addr, migrate)
                    .unwrap_or_else(|e| panic!("reader {r} iteration {i}: {e}"));
                v.as_u64()
                    .unwrap_or_else(|e| panic!("reader {r} got non-u64: {e}"));
            }
        }));
    }

    let mut failed = Vec::new();
    for h in handles {
        if let Err(e) = h.join() {
            stop.store(true, Ordering::Relaxed);
            failed.push(e);
        }
    }
    assert!(failed.is_empty(), "worker thread panicked: {failed:?}");

    // Exactly one site owns the object at the end; everyone agrees on
    // its final value once the dust settles.
    std::thread::sleep(Duration::from_millis(200));
    let owners: usize = (0..3)
        .filter(|&i| {
            cluster
                .site(i)
                .inner()
                .memory
                .object_version(addr)
                .is_some()
        })
        .count();
    assert_eq!(owners, 1, "exactly one owner after the storm");
}

#[test]
fn reader_view_is_monotonic_under_invalidations() {
    // Version counter rides in the value: a single writer bumps it, and
    // every reader asserts it never observes the counter move backwards
    // — a stale replica surviving its invalidation (or a stale migrated
    // copy winning over a newer one) would show up here.
    let config = SiteConfig::default().with_replica_ttl(Duration::from_millis(200));
    let cluster = Arc::new(InProcessCluster::new(3, config).unwrap());
    let s0 = cluster.site(0).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(0));

    let mut handles = Vec::new();
    {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(0).inner();
            for i in 1..=60u64 {
                site.memory
                    .write(site, addr, Value::from_u64(i))
                    .unwrap_or_else(|e| panic!("writer iteration {i}: {e}"));
            }
        }));
    }
    for r in 1..3usize {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(r).inner();
            let mut last = 0u64;
            for i in 0..150u64 {
                let v = site
                    .memory
                    .read(site, addr, false)
                    .unwrap_or_else(|e| panic!("reader {r} iteration {i}: {e}"))
                    .as_u64()
                    .unwrap();
                assert!(
                    v >= last,
                    "reader {r} went backwards: {v} after {last} (iteration {i})"
                );
                last = v;
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread may panic");
    }

    // After the writer finishes and the last invalidation lands (or the
    // TTL lease runs out), every site converges on the final value.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let all_final = (1..3).all(|i| {
            let site = cluster.site(i).inner();
            site.memory
                .read(site, addr, false)
                .ok()
                .and_then(|v| v.as_u64().ok())
                == Some(60)
        });
        if all_final {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sites never converged on the final write"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
