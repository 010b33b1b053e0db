//! Attraction-memory throughput and read latency, machine-readable.
//!
//! Three experiments, all on the real site stack (managers, wire codec,
//! in-process transport):
//!
//! 1. **Read-mostly remote reads** — two sites repeatedly read an
//!    object owned by a third, with an occasional owner-side write
//!    mixed in (1 write per 100 read rounds). With versioned read
//!    replicas every read after the first is a local version-checked
//!    hit until the next invalidation.
//! 2. **Sharded store under local contention** — four threads hammer
//!    read/write mixes against one site's store, reporting both
//!    throughput and the contention counters the shards expose
//!    (`MemStats::shard_contention`).
//! 3. **Single-read latency** — the three paths a non-migrating read
//!    can take: the object lives here (`owned_local`), a fresh replica
//!    is cached (`replica_hit`), or the read crosses the transport to
//!    the owner and back (`remote_round_trip`, a raw `MemRead` request
//!    that asks for no replica). The first two should be within noise
//!    of each other; the third is the cost replicas avoid.
//!
//! Writes `BENCH_attraction_memory.json` into the working directory.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin attraction_memory
//! ```

use sdvm_bench::rule;
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::{ManagerId, ProgramId, Value};
use sdvm_wire::Payload;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const READ_ROUNDS: u64 = 2_000;
const WRITE_EVERY: u64 = 100;
const LOCAL_THREADS: usize = 4;
const LOCAL_OPS: u64 = 30_000;
const LATENCY_READS: u64 = 5_000;

struct BenchResult {
    name: String,
    ops_per_sec: f64,
    ns_per_op: f64,
    contention: Option<u64>,
}

impl BenchResult {
    fn timed(name: &str, ops: u64, elapsed: Duration, contention: Option<u64>) -> Self {
        let secs = elapsed.as_secs_f64();
        BenchResult {
            name: name.to_string(),
            ops_per_sec: ops as f64 / secs,
            ns_per_op: secs * 1e9 / ops as f64,
            contention,
        }
    }
}

/// Read-mostly fan-in: sites 1 and 2 read an object homed at site 0,
/// the owner writing once per `WRITE_EVERY` rounds. Returns ops/sec
/// over all remote reads.
fn bench_remote_reads() -> BenchResult {
    let cluster = Arc::new(InProcessCluster::new(3, SiteConfig::default()).expect("cluster"));
    let s0 = cluster.site(0).inner();
    let addr = s0.memory.alloc(s0, ProgramId(1), Value::from_u64(0));
    // Warm the path and the copyset.
    for i in 1..3 {
        let site = cluster.site(i).inner();
        site.memory.read(site, addr, false).expect("warm-up read");
    }

    let start = Instant::now();
    let mut handles = Vec::new();
    for r in 1..3usize {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(r).inner();
            for i in 0..READ_ROUNDS {
                site.memory
                    .read(site, addr, false)
                    .unwrap_or_else(|e| panic!("reader {r} round {i}: {e}"));
            }
        }));
    }
    {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(0).inner();
            for i in 0..READ_ROUNDS / WRITE_EVERY {
                site.memory
                    .write(site, addr, Value::from_u64(i + 1))
                    .unwrap_or_else(|e| panic!("writer round {i}: {e}"));
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }
    for h in handles {
        h.join().expect("bench thread");
    }
    BenchResult::timed(
        "remote_read/replicas",
        READ_ROUNDS * 2,
        start.elapsed(),
        None,
    )
}

/// Local mixed read/write traffic from `LOCAL_THREADS` threads against
/// one site's store. Reports the aggregate contention counter next to
/// throughput.
fn bench_local_contention() -> BenchResult {
    let cluster = Arc::new(InProcessCluster::new(1, SiteConfig::default()).expect("cluster"));
    let site = cluster.site(0).inner();
    let addrs: Vec<_> = (0..64)
        .map(|i| site.memory.alloc(site, ProgramId(1), Value::from_u64(i)))
        .collect();
    let addrs = Arc::new(addrs);

    let start = Instant::now();
    let mut handles = Vec::new();
    for t in 0..LOCAL_THREADS {
        let cluster = Arc::clone(&cluster);
        let addrs = Arc::clone(&addrs);
        handles.push(std::thread::spawn(move || {
            let site = cluster.site(0).inner();
            for i in 0..LOCAL_OPS {
                let addr = addrs[((i as usize) * LOCAL_THREADS + t) % addrs.len()];
                if i % 8 == t as u64 % 8 {
                    site.memory
                        .write(site, addr, Value::from_u64(i))
                        .unwrap_or_else(|e| panic!("local writer {t}: {e}"));
                } else {
                    site.memory
                        .read(site, addr, false)
                        .unwrap_or_else(|e| panic!("local reader {t}: {e}"));
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("bench thread");
    }
    let elapsed = start.elapsed();
    let contention: u64 = site.memory.stats().shard_contention.iter().sum();
    BenchResult::timed(
        &format!("local_mix/shards_{}", site.memory.shard_count()),
        LOCAL_OPS * LOCAL_THREADS as u64,
        elapsed,
        Some(contention),
    )
}

/// Time `LATENCY_READS` sequential calls of `read`.
fn read_latency(name: &str, mut read: impl FnMut()) -> BenchResult {
    for _ in 0..64 {
        read();
    }
    let start = Instant::now();
    for _ in 0..LATENCY_READS {
        read();
    }
    BenchResult::timed(name, LATENCY_READS, start.elapsed(), None)
}

/// Single-read latency of the three read paths on a two-site cluster.
fn bench_read_latency(results: &mut Vec<BenchResult>) {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).expect("cluster");
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0.memory.alloc(s0, ProgramId(1), Value::from_u64(7));

    results.push(read_latency("read/owned_local", || {
        black_box(s0.memory.read(s0, black_box(addr), false).expect("read"));
    }));
    // The first read caches the replica; the default TTL (seconds)
    // outlives the run.
    results.push(read_latency("read/replica_hit", || {
        black_box(s1.memory.read(s1, black_box(addr), false).expect("read"));
    }));
    results.push(read_latency("read/remote_round_trip", || {
        let reply = s1
            .request(
                s0.my_id(),
                ManagerId::Memory,
                ManagerId::Memory,
                Payload::MemRead {
                    addr,
                    migrate: false,
                    replica: false,
                },
                Duration::from_secs(5),
            )
            .expect("round trip");
        black_box(reply);
    }));
}

fn main() {
    println!("attraction memory: replica reads, sharded store, read latency");
    rule(90);
    let mut results = vec![bench_remote_reads(), bench_local_contention()];
    bench_read_latency(&mut results);
    for r in &results {
        let contention = r
            .contention
            .map(|c| format!("  contention={c}"))
            .unwrap_or_default();
        println!(
            "{:>26}: {:>12.0} ops/s  {:>10.0} ns/op{}",
            r.name, r.ops_per_sec, r.ns_per_op, contention
        );
    }
    let replica_speedup = results[4].ns_per_op / results[3].ns_per_op;
    println!("replica hit vs remote round trip: {replica_speedup:.1}x");
    rule(90);

    let mut json = String::from("{\n  \"bench\": \"attraction_memory\",\n");
    json.push_str(&format!("  \"read_rounds\": {READ_ROUNDS},\n"));
    json.push_str(&format!("  \"write_every\": {WRITE_EVERY},\n"));
    json.push_str(&format!("  \"local_threads\": {LOCAL_THREADS},\n"));
    json.push_str(&format!(
        "  \"replica_hit_speedup\": {replica_speedup:.2},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let contention = r
            .contention
            .map(|c| format!(", \"shard_contention\": {c}"))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ops_per_sec\": {:.1}, \"ns_per_op\": {:.1}{}}}{}\n",
            r.name,
            r.ops_per_sec,
            r.ns_per_op,
            contention,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_attraction_memory.json", &json)
        .expect("write BENCH_attraction_memory.json");
    println!("wrote BENCH_attraction_memory.json");
}
