//! Crypto primitive throughput, machine-readable.
//!
//! Measures the v2 hot-path primitives in isolation — ChaCha20
//! keystream XOR (wide 4-block path), HMAC-SHA-256 with precomputed
//! ipad/opad midstates, whole-record seal/open, and the amortization a
//! batch record buys over per-record sealing — and writes
//! `BENCH_crypto.json` into the working directory. These are the
//! numbers the batch-sealed record design trades against: per-record
//! cost ≈ keystream setup + MAC, so batching N records pays one of each.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin crypto_primitives
//! ```

use sdvm_bench::rule;
use sdvm_crypto::chacha::ChaChaKey;
use sdvm_crypto::hmac::{hmac_sha256, HmacKey};
use sdvm_crypto::SecureChannel;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MEASURE: Duration = Duration::from_millis(600);

/// Run `step` repeatedly for the measurement window; returns ns/call.
fn measure(mut step: impl FnMut()) -> f64 {
    for _ in 0..32 {
        step();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < MEASURE {
        for _ in 0..64 {
            step();
        }
        calls += 64;
    }
    start.elapsed().as_secs_f64() * 1e9 / calls as f64
}

fn mib_per_sec(bytes: usize, ns_per_call: f64) -> f64 {
    bytes as f64 / (ns_per_call / 1e9) / (1024.0 * 1024.0)
}

struct Row {
    name: String,
    ns_per_call: f64,
    mib_per_sec: f64,
}

fn main() {
    println!("crypto primitives: wide ChaCha20, HMAC midstates, seal/open");
    rule(72);
    let mut rows: Vec<Row> = Vec::new();

    // ChaCha20 keystream XOR throughput.
    let key = ChaChaKey::new(&[7u8; 32]);
    let nonce = [9u8; 12];
    for size in [64usize, 256, 1024, 16384, 1 << 20] {
        let mut buf = vec![0xa5u8; size];
        let ns = measure(|| key.xor(&nonce, 1, black_box(&mut buf)));
        rows.push(Row {
            name: format!("chacha20_xor/{size}"),
            ns_per_call: ns,
            mib_per_sec: mib_per_sec(size, ns),
        });
    }

    // HMAC on a short (64 B) message: one-shot vs midstate keying.
    let data = vec![0x5au8; 64];
    let ns = measure(|| {
        black_box(hmac_sha256(b"key material here", black_box(&data)));
    });
    rows.push(Row {
        name: "hmac_oneshot/64".into(),
        ns_per_call: ns,
        mib_per_sec: mib_per_sec(64, ns),
    });
    let hk = HmacKey::new(b"key material here");
    let ns = measure(|| {
        black_box(hk.mac_of(black_box(&data)));
    });
    rows.push(Row {
        name: "hmac_midstate/64".into(),
        ns_per_call: ns,
        mib_per_sec: mib_per_sec(64, ns),
    });

    // Whole-record seal and in-place open per payload size.
    for size in [64usize, 256, 1024, 4096] {
        let payload = vec![0xabu8; size];
        let mut tx = SecureChannel::new(&[3u8; 32]);
        let ns = measure(|| {
            black_box(tx.seal(black_box(&payload)));
        });
        rows.push(Row {
            name: format!("seal/{size}"),
            ns_per_call: ns,
            mib_per_sec: mib_per_sec(size, ns),
        });

        let mut tx = SecureChannel::new(&[3u8; 32]);
        let mut rx = SecureChannel::new(&[3u8; 32]);
        let ns = measure(|| {
            let mut sealed = tx.seal(black_box(&payload)).to_vec();
            rx.open_in_place(&mut sealed, 0).expect("authentic");
            black_box(&sealed);
        });
        rows.push(Row {
            name: format!("seal_plus_open_in_place/{size}"),
            ns_per_call: ns,
            mib_per_sec: mib_per_sec(size, ns),
        });
    }

    // Batch amortization: one 64-record run sealed as a single unit vs
    // 64 per-record seals of the same total payload.
    const RECORDS: usize = 64;
    const RECORD_LEN: usize = 256;
    let run = vec![0xabu8; RECORDS * RECORD_LEN];
    let mut tx = SecureChannel::new(&[3u8; 32]);
    let ns = measure(|| {
        black_box(tx.seal(black_box(&run)));
    });
    rows.push(Row {
        name: format!("batch/one_record_x{RECORDS}"),
        ns_per_call: ns,
        mib_per_sec: mib_per_sec(run.len(), ns),
    });
    let record = vec![0xabu8; RECORD_LEN];
    let mut tx = SecureChannel::new(&[3u8; 32]);
    let ns = measure(|| {
        for _ in 0..RECORDS {
            black_box(tx.seal(black_box(&record)));
        }
    });
    rows.push(Row {
        name: format!("batch/per_record_x{RECORDS}"),
        ns_per_call: ns,
        mib_per_sec: mib_per_sec(run.len(), ns),
    });

    for r in &rows {
        println!(
            "{:>28}: {:>9.0} ns/call  {:>9.1} MiB/s",
            r.name, r.ns_per_call, r.mib_per_sec
        );
    }
    rule(72);

    let mut json = String::from("{\n  \"bench\": \"crypto_primitives\",\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_call\": {:.1}, \"mib_per_sec\": {:.3}}}{}\n",
            r.name,
            r.ns_per_call,
            r.mib_per_sec,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_crypto.json", &json).expect("write BENCH_crypto.json");
    println!("wrote BENCH_crypto.json");
}
