//! Outbound message-path throughput, machine-readable.
//!
//! Times the send path the runtime ships, called on a signed-on
//! `InProcessCluster` site: `SecurityManager::seal_frame` (encode, seal
//! and frame in one buffer) for plain and password-protected sites,
//! fanning out to 1 and 8 peers; the drain-sealed path
//! (`encode_plain` per message plus one `seal_batch_record` per run of
//! `BATCH` records); and a real end-to-end TCP fan-out through the
//! per-peer batched writer pipeline. Writes `BENCH_message_path.json`
//! into the working directory.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin message_path
//! ```

use bytes::Bytes;
use sdvm_bench::rule;
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_net::{TcpTransport, Transport};
use sdvm_types::{FileHandle, ManagerId, SiteId};
use sdvm_wire::{Payload, SdMessage};
use std::hint::black_box;
use std::time::{Duration, Instant};

const PAYLOAD_LEN: usize = 256;
/// Records per batch-sealed frame: the writer's drain cap.
const BATCH: usize = 64;
const MEASURE: Duration = Duration::from_millis(800);

fn sample_msg(dst: u32) -> SdMessage {
    SdMessage::new(
        SiteId(1),
        ManagerId::Memory,
        SiteId(dst),
        ManagerId::Memory,
        42,
        Payload::FileData {
            handle: FileHandle {
                site: SiteId(1),
                local: 7,
            },
            data: Bytes::from(vec![0xabu8; PAYLOAD_LEN]),
        },
    )
}

struct Result {
    name: String,
    msgs_per_sec: f64,
    mib_per_sec: f64,
    ns_per_msg: f64,
}

/// Run `step` (which processes `per_step` messages of `frame_len` bytes
/// each) repeatedly for the measurement window.
fn measure(name: &str, per_step: u64, frame_len: u64, mut step: impl FnMut()) -> Result {
    // Warm-up.
    for _ in 0..16 {
        step();
    }
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < MEASURE {
        for _ in 0..32 {
            step();
        }
        steps += 32;
    }
    let secs = start.elapsed().as_secs_f64();
    let msgs = (steps * per_step) as f64;
    Result {
        name: name.to_string(),
        msgs_per_sec: msgs / secs,
        mib_per_sec: msgs * frame_len as f64 / secs / (1024.0 * 1024.0),
        ns_per_msg: secs * 1e9 / msgs,
    }
}

fn bench_paths(plain: &InProcessCluster, sealed: &InProcessCluster, results: &mut Vec<Result>) {
    let plain = plain.site(0).inner();
    let sealed = sealed.site(0).inner();
    for peers in [1u32, 8] {
        let dsts: Vec<SiteId> = (2..peers + 2).map(SiteId).collect();
        let msgs: Vec<SdMessage> = dsts.iter().map(|d| sample_msg(d.0)).collect();
        let frame_len = plain
            .security
            .seal_frame(plain, dsts[0], &msgs[0])
            .expect("frame")
            .len() as u64;

        for (kind, site) in [("plain", plain), ("encrypted", sealed)] {
            results.push(measure(
                &format!("{kind}/{peers}peer"),
                peers as u64,
                frame_len,
                || {
                    for (d, m) in dsts.iter().zip(&msgs) {
                        black_box(site.security.seal_frame(site, *d, m).expect("seal"));
                    }
                },
            ));
        }

        // Drain-sealed: per message, one plain encode plus a 1/BATCH
        // share of the batch's nonce + keystream + MAC.
        results.push(measure(
            &format!("encrypted/batched/{peers}peer"),
            (peers as usize * BATCH) as u64,
            frame_len,
            || {
                for (d, m) in dsts.iter().zip(&msgs) {
                    let bodies: Vec<Bytes> = (0..BATCH)
                        .map(|_| sealed.security.encode_plain(m))
                        .collect();
                    black_box(
                        sealed
                            .security
                            .seal_batch_record(sealed, d.0, &bodies)
                            .expect("seal batch"),
                    );
                }
            },
        ));
    }
}

/// End-to-end: one sender spraying sealed frames round-robin over 8 TCP
/// peers through the batched per-peer writer pipeline.
fn bench_tcp_fanout(sealed: &InProcessCluster, results: &mut Vec<Result>) {
    let sender = TcpTransport::bind("127.0.0.1:0").expect("bind sender");
    let receivers: Vec<_> = (0..8)
        .map(|_| TcpTransport::bind("127.0.0.1:0").expect("bind receiver"))
        .collect();
    let site = sealed.site(0).inner();
    let frame = site
        .security
        .seal_frame(site, SiteId(2), &sample_msg(2))
        .expect("seal");
    let frame_len = frame.len() as u64;

    let n_per_peer = 4000u64;
    let start = Instant::now();
    for _ in 0..n_per_peer {
        for r in &receivers {
            // Frames are cheaply cloneable; per-iteration seal would
            // measure crypto again, this measures the transport.
            sender.send(&r.local_addr(), frame.clone()).expect("send");
        }
    }
    // Wait until every receiver saw everything.
    let mut received = 0u64;
    for r in &receivers {
        let rx = r.incoming();
        for _ in 0..n_per_peer {
            if rx.recv_timeout(Duration::from_secs(10)).is_ok() {
                received += 1;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(received, n_per_peer * 8, "all frames must arrive");
    results.push(Result {
        name: "tcp_fanout/8peer".into(),
        msgs_per_sec: received as f64 / secs,
        mib_per_sec: received as f64 * frame_len as f64 / secs / (1024.0 * 1024.0),
        ns_per_msg: secs * 1e9 / received as f64,
    });
    sender.shutdown();
    for r in &receivers {
        r.shutdown();
    }
}

fn main() {
    println!("message-path throughput: the shipped seal_frame / batch-seal send path");
    rule(90);
    let plain = InProcessCluster::new(1, SiteConfig::default()).expect("plain site");
    let sealed = InProcessCluster::new(1, SiteConfig::default().with_password("bench-pw"))
        .expect("password-protected site");
    let mut results = Vec::new();
    bench_paths(&plain, &sealed, &mut results);
    bench_tcp_fanout(&sealed, &mut results);
    for r in &results {
        println!(
            "{:>24}: {:>10.0} msg/s  {:>8.1} MiB/s  {:>8.0} ns/msg",
            r.name, r.msgs_per_sec, r.mib_per_sec, r.ns_per_msg
        );
    }
    rule(90);

    let mut json = String::from("{\n  \"bench\": \"message_path\",\n");
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD_LEN},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"msgs_per_sec\": {:.1}, \"mib_per_sec\": {:.3}, \"ns_per_msg\": {:.1}}}{}\n",
            r.name,
            r.msgs_per_sec,
            r.mib_per_sec,
            r.ns_per_msg,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_message_path.json", &json).expect("write BENCH_message_path.json");
    println!("wrote BENCH_message_path.json");
}
