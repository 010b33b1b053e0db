//! Telemetry overhead on the message hot path, machine-readable.
//!
//! The runtime adds per-message telemetry around the sealed send path:
//! seal timing into the metrics registry, a `Metrics::observe` of the
//! outgoing hop, and a ring-buffer event-bus emit. This bench times the
//! shipped sealed encode path (`SecurityManager::seal_frame` on a
//! signed-on, password-protected site) bare and with the telemetry
//! layer in its three configurations — metrics only (the always-on
//! floor, what a `TraceLog`-less site pays), bus filtered off
//! (`SDVM_TELEMETRY=off`), and everything on — and writes
//! `BENCH_telemetry_overhead.json` with the relative overhead.
//!
//! The acceptance bar is `overhead_percent < 5` for the telemetry a
//! production site pays *unconditionally* per message on the current
//! hot path. That path is drain-sealed: the seal-duration histogram is
//! sampled once per *batch* at the writer's drain, and the send path
//! reads no clocks unless a trace bus is attached and wants `Hops`
//! events — the always-on floor is two counter observes plus a branch,
//! with a 1/64 batch share of the seal timing. Full capture
//! (`SDVM_TELEMETRY=all` with a bus attached) is an explicit opt-in
//! priced separately below, like running with a profiler attached; it
//! is reported, not gated. The denominator is the bare sealed path,
//! measured live in the same run.
//!
//! ```text
//! cargo run --release -p sdvm-bench --bin telemetry_overhead
//! ```

use bytes::Bytes;
use sdvm_bench::rule;
use sdvm_core::telemetry::Metrics;
use sdvm_core::{InProcessCluster, SiteConfig, TraceEvent, TraceLog};
use sdvm_types::{FileHandle, ManagerId, SiteId};
use sdvm_wire::{Payload, SdMessage};
use std::time::{Duration, Instant};

const PAYLOAD_LEN: usize = 256;
const MEASURE: Duration = Duration::from_millis(600);

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

fn hop_event(manager: ManagerId) -> TraceEvent {
    TraceEvent::MessageHop {
        site: SiteId(1),
        manager,
        payload: "FileData",
        outgoing: true,
        trace: 7,
    }
}

/// Exactly the telemetry the runtime's send path adds around one sealed
/// outbound message: two shared clock reads stamping the
/// message-manager and network-manager hops, the seal-duration
/// histogram, and both hop events pushed to the bus under one
/// ring-lock acquisition.
fn send_telemetry(metrics: &Metrics, bus: &TraceLog, t0: Instant, t1: Instant) {
    metrics
        .seal_us
        .observe_duration(t1.saturating_duration_since(t0));
    let ev0 = hop_event(ManagerId::Message);
    metrics.observe(&ev0);
    let ev1 = hop_event(ManagerId::Network);
    metrics.observe(&ev1);
    bus.emit_pair_at(ev0, t0, ev1, t1);
}

fn measure_once(step: &mut impl FnMut()) -> f64 {
    for _ in 0..64 {
        step();
    }
    let start = Instant::now();
    let mut ops = 0u64;
    while start.elapsed() < MEASURE {
        for _ in 0..32 {
            step();
        }
        ops += 32;
    }
    start.elapsed().as_secs_f64() * 1e9 / ops as f64
}

fn main() {
    println!("telemetry overhead on the sealed message path (vs the bare seal)");
    rule(78);
    let msg = sample_msg(2);
    let cluster = InProcessCluster::new(1, SiteConfig::default().with_password("bench-pw"))
        .expect("password-protected site");
    let site = cluster.site(0).inner();
    let seal = || {
        site.security
            .seal_frame(site, SiteId(2), &msg)
            .expect("seal")
    };

    // Per-config state. Each closure reproduces the telemetry work the
    // runtime adds around one sealed outbound message.
    // Baseline: seal only, no telemetry anywhere.
    let mut baseline_step = || {
        std::hint::black_box(seal());
    };

    // Always-on floor: timing + Metrics::observe of both hops (what
    // every site pays even without a TraceLog attached). The
    // filtered-off bus drops both emits on the category mask.
    let metrics1 = Metrics::new();
    let bus_none = TraceLog::with_filter(0);
    let mut metrics_step = || {
        let t0 = Instant::now();
        std::hint::black_box(seal());
        let t1 = Instant::now();
        send_telemetry(&metrics1, &bus_none, t0, t1);
    };

    // Everything on: metrics + two ring-buffer emits per message (with
    // wraparound, since the loop emits far more events than the ring
    // holds).
    let metrics3 = Metrics::new();
    let bus_on = TraceLog::new();
    let mut on_step = || {
        let t0 = Instant::now();
        std::hint::black_box(seal());
        let t1 = Instant::now();
        send_telemetry(&metrics3, &bus_on, t0, t1);
    };

    // The capture-mode telemetry layer in isolation: exactly the
    // per-message additions with a bus attached and unfiltered (both
    // clock reads included), no seal underneath. Timing this directly —
    // instead of subtracting two large, jittery totals — gives the
    // added cost at nanosecond resolution.
    let metrics4 = Metrics::new();
    let bus4 = TraceLog::new();
    let mut ops_step = || {
        let t0 = Instant::now();
        let t1 = Instant::now();
        send_telemetry(&metrics4, &bus4, t0, t1);
    };

    // The always-on floor of the drain-sealed send path, per message:
    // two hop-counter observes and the bus check (no bus attached — the
    // production default), plus a 1/64 batch share of the seal timing
    // the writer's drain records once per batch.
    const BATCH: u64 = 64;
    let metrics5 = Metrics::new();
    let bus5: Option<TraceLog> = None;
    let mut floor_step = || {
        for _ in 0..BATCH {
            if bus5
                .as_ref()
                .is_some_and(|b| b.wants(sdvm_core::Category::Hops))
            {
                unreachable!("no bus attached in the floor configuration");
            }
            let ev0 = hop_event(ManagerId::Message);
            metrics5.observe(&ev0);
            let ev1 = hop_event(ManagerId::Network);
            metrics5.observe(&ev1);
            std::hint::black_box(&metrics5);
        }
        // Once per batch: the drain's seal timing.
        let t0 = Instant::now();
        let t1 = Instant::now();
        metrics5
            .seal_us
            .observe_duration(t1.saturating_duration_since(t0));
    };

    // Interleave the configurations over several rounds and keep each
    // one's best time: the min is robust against scheduler noise, which
    // otherwise dwarfs a sub-5% effect.
    const ROUNDS: usize = 5;
    let names = [
        "baseline_seal",
        "bus_filtered_off",
        "telemetry_on",
        "capture_ops_alone",
        "floor_ops_alone",
    ];
    let mut best = [f64::INFINITY; 5];
    for _ in 0..ROUNDS {
        best[0] = best[0].min(measure_once(&mut baseline_step));
        best[1] = best[1].min(measure_once(&mut metrics_step));
        best[2] = best[2].min(measure_once(&mut on_step));
        best[3] = best[3].min(measure_once(&mut ops_step));
        // floor_step covers a whole batch per call; report per message.
        best[4] = best[4].min(measure_once(&mut floor_step) / BATCH as f64);
    }
    let results: Vec<(String, f64)> = names
        .iter()
        .zip(best.iter())
        .map(|(n, ns)| (n.to_string(), *ns))
        .collect();

    let baseline = results[0].1;
    for (name, ns) in &results[..3] {
        println!(
            "{name:>20}: {ns:>8.1} ns/msg  (+{:.2}% over baseline)",
            (ns - baseline) / baseline * 100.0
        );
    }
    let capture_ops = results[3].1;
    let floor_ops = results[4].1;
    println!(
        "   capture_ops_alone: {capture_ops:>8.1} ns/msg  (bus attached + unfiltered, opt-in)"
    );
    println!("     floor_ops_alone: {floor_ops:>8.1} ns/msg  (always-on, drain-sealed path)");
    // The gate: the unconditional per-message telemetry relative to the
    // bare sealed message.
    let overhead_percent = floor_ops / baseline * 100.0;
    let pass = overhead_percent < 5.0;
    rule(78);
    println!(
        "always-on telemetry: {floor_ops:.0} ns on a {baseline:.0} ns message = {overhead_percent:.2}% ({}); full capture costs {capture_ops:.0} ns/msg on top when explicitly enabled",
        if pass { "PASS, < 5%" } else { "FAIL, >= 5%" }
    );

    let mut json = String::from("{\n  \"bench\": \"telemetry_overhead\",\n");
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD_LEN},\n"));
    json.push_str("  \"results\": [\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ns_per_msg\": {ns:.1}}}{}\n",
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"reference_ns_per_msg\": {baseline:.1},\n  \"reference\": \"live baseline\",\n"
    ));
    json.push_str(&format!(
        "  \"overhead_percent\": {overhead_percent:.2},\n  \"pass\": {pass}\n}}\n"
    ));
    std::fs::write("BENCH_telemetry_overhead.json", &json)
        .expect("write BENCH_telemetry_overhead.json");
    println!("wrote BENCH_telemetry_overhead.json");
    assert!(pass, "telemetry overhead must stay below 5%");
}
