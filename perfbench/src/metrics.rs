//! Turns a run's records into named metrics, prints them, and prints the
//! JSON summary line.

use crate::cluster::Counters;
use crate::record::{span, FrameRec, Span};
use crate::stats;
use crate::{Op, RunData, Workload};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// End-to-end metrics of the JSON summary (`--trace 0`), with units.
/// Defined on every workload: an operation is one program run, or one
/// ping on `ping_tcp`; a step is one frame's wait from its last
/// parameter's send to its handler's start, or one ping round trip.
/// `cpu_ms_per_op` is printed but not summarised: on `ping_tcp` it is
/// mostly the transport's idle polling during the round trip, and its
/// run-to-run spread reached the largest bound a summary metric may have.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms", "ms"),
    ("wait_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Spans whose self time the traced pass reports.
const SPANS: [&str; 9] = [
    span::ITERATION,
    span::LAUNCH,
    span::WAIT,
    span::FRAME,
    span::CREATE,
    span::READ,
    span::WRITE,
    span::SEND,
    span::REQUEST,
];

/// Managers with a dispatch histogram, as `SiteMetrics` names them.
const DISPATCH: [&str; 7] = [
    "Scheduling",
    "Memory",
    "Code",
    "Cluster",
    "Program",
    "Io",
    "Site",
];

/// One named value.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
}

#[derive(Default)]
struct Sheet(Vec<Metric>);

impl Sheet {
    fn put(&mut self, name: impl Into<String>, value: Option<f64>, unit: &'static str) {
        let value = value.filter(|v| v.is_finite());
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Process CPU time, user + system, in ms (from `/proc/self/stat`, whose
/// times are in 10 ms clock ticks).
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    let tick = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) * 10.0,
        _ => 0.0,
    }
}

/// Host CPU time so far as `(stolen, total)` clock ticks, summed over
/// CPUs (from `/proc/stat`): time a virtual machine's CPUs were ready but
/// the hypervisor ran something else.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident memory of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

/// Resident memory of the process now, in MB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_mb("VmRSS:")
}

/// `sdvm-sim`'s speedup for `graph`: one site over `sites` sites.
pub fn sim_speedup(graph: sdvm_cdag::Cdag, sites: usize) -> f64 {
    use sdvm_sim::{SimConfig, Simulation};
    let t1 = Simulation::new(SimConfig::homogeneous(1), graph.clone())
        .run()
        .makespan;
    let tn = Simulation::new(SimConfig::homogeneous(sites), graph)
        .run()
        .makespan;
    stats::speedup(t1, tn)
}

/// Percentile `p` of `samples` if enough samples lie beyond it, else the
/// highest percentile that has them (named on stderr).
fn tail(samples: &[f64], p: f64, what: &str) -> Option<f64> {
    if let Some(v) = stats::supported_quantile(samples, p) {
        return Some(v);
    }
    let (q, v) = stats::highest_supported(samples, &[0.5, 0.75, 0.9, 0.95])?;
    eprintln!(
        "note: {what}: {} samples support only p{:.0}",
        samples.len(),
        q * 100.0
    );
    Some(v)
}

/// The verified operations with tracing `traced`: every latency figure
/// is taken over all of them. Failures are counted from all operations.
pub fn verified(ops: &[Op], traced: bool) -> Vec<&Op> {
    ops.iter().filter(|o| o.ok && o.traced == traced).collect()
}

/// The end-to-end sheet, from the untraced operations.
fn end_to_end(d: &RunData) -> Sheet {
    let programs = d.workload != Workload::PingTcp;
    let ops = verified(&d.ops, false);
    let good: Vec<f64> = ops.iter().map(|o| ms(o.latency_ns())).collect();
    let traces: HashSet<u64> = ops.iter().map(|o| o.trace).collect();
    let waits: Vec<f64> = d
        .frames
        .iter()
        .filter(|f| traces.contains(&u64::from(f.program)))
        .map(|f| ms(f.wait_ns()))
        .collect();
    let steps = if programs { &waits } else { &good };
    let op_ms = (!good.is_empty()).then(|| stats::median(&good));
    let cpu_ms: f64 = ops.iter().map(|o| o.cpu_ms).sum();
    let mut s = Sheet::default();
    s.put("op_ms", op_ms, "ms");
    s.put("wait_p50_ms", stats::quantile(steps, 0.5), "ms");
    s.put("cpu_ms_per_op", ratio(cpu_ms, ops.len() as f64), "ms");
    s.put("peak_rss_mb", Some(d.peak_rss_mb), "MB");
    s.put("setup_s", Some(stats::median(&d.setup_s)), "s");
    // The same figures under the names of the workload they apply to.
    let on = |yes: bool, v: &dyn Fn() -> Option<f64>| if yes { v() } else { None };
    s.put("makespan_ms", on(programs, &|| op_ms), "ms");
    s.put(
        "speedup",
        on(programs, &|| op_ms.map(|m| stats::speedup(d.ideal_ms, m))),
        "x",
    );
    s.put(
        "frame_wait_p50_ms",
        on(programs, &|| stats::quantile(&waits, 0.5)),
        "ms",
    );
    s.put(
        "frame_wait_p99_ms",
        on(programs, &|| tail(&waits, 0.99, "frame_wait_p99_ms")),
        "ms",
    );
    s.put(
        "rtt_p50_us",
        on(!programs, &|| stats::quantile(&good, 0.5).map(|v| v * 1e3)),
        "us",
    );
    s.put(
        "rtt_p99_us",
        on(!programs, &|| {
            tail(&good, 0.99, "rtt_p99_us").map(|v| v * 1e3)
        }),
        "us",
    );
    let failed = d.ops.iter().filter(|o| !o.ok).count();
    s.put(
        "failed_ratio",
        ratio(failed as f64, d.ops.len() as f64),
        "ratio",
    );
    s
}

/// Spans of the traced operations, with `frame.exec` parents resolved to
/// their iteration; orphans (frames of untraced operations) dropped.
fn resolve(spans: &[Span]) -> Vec<Span> {
    let iters: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.name == span::ITERATION)
        .map(|s| (s.trace, s.id))
        .collect();
    spans
        .iter()
        .filter_map(|s| {
            let mut s = *s;
            if s.name == span::FRAME {
                s.parent = *iters.get(&s.trace)?;
            }
            iters.contains_key(&s.trace).then_some(s)
        })
        .collect()
}

/// The per-layer sheet.
fn per_layer(d: &RunData, e2e: &Sheet) -> Sheet {
    let mut s = Sheet::default();
    let w: &Counters = &d.window;
    let n_ops = d.ops.len() as f64;
    let programs = d.workload != Workload::PingTcp;

    // scheduling: where frames ran, from the frames themselves.
    let total = d.frames.len() as f64;
    let stolen: Vec<f64> = d
        .frames
        .iter()
        .filter(|f| f.home != f.site)
        .map(|f| ms(f.wait_ns()))
        .collect();
    let mut per_site: HashMap<u32, usize> = HashMap::new();
    for f in &d.frames {
        *per_site.entry(f.site).or_default() += 1;
    }
    let busiest = per_site.values().copied().max().unwrap_or(0) as f64;
    s.put(
        "scheduling.stolen_share",
        ratio(stolen.len() as f64, total),
        "share",
    );
    s.put(
        "scheduling.busiest_site_share",
        ratio(busiest, total),
        "share",
    );
    s.put(
        "scheduling.wait_stolen_p50_ms",
        stats::quantile(&stolen, 0.5),
        "ms",
    );

    // cluster: the help protocol.
    s.put(
        "cluster.help_requests",
        ratio(w.help_requests as f64, n_ops),
        "count/op",
    );
    s.put(
        "cluster.help_granted",
        ratio(w.help_granted as f64, n_ops),
        "count/op",
    );
    s.put(
        "cluster.help_grant_ratio",
        ratio(w.help_granted as f64, w.help_requests as f64),
        "ratio",
    );
    s.put("cluster.help_rtt_mean_us", Some(w.help_rtt.mean()), "us");

    // Spans of the traced operations.
    let spans = resolve(&d.spans);
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for sp in &spans {
        children
            .entry(sp.parent)
            .or_default()
            .push((sp.start, sp.end));
    }
    let mut self_ns: HashMap<&str, u64> = HashMap::new();
    let mut dur_us: HashMap<&str, Vec<f64>> = HashMap::new();
    for sp in &spans {
        let kids = children.get(&sp.id).map_or(&[][..], Vec::as_slice);
        *self_ns.entry(sp.name).or_default() += stats::self_time((sp.start, sp.end), kids);
        dur_us
            .entry(sp.name)
            .or_default()
            .push((sp.end - sp.start) as f64 / 1e3);
    }
    let traced: Vec<&Op> = d.ops.iter().filter(|o| o.traced && o.ok).collect();
    let traced_ns: u64 = traced.iter().map(|o| o.latency_ns()).sum();
    let durs = |name: &str| dur_us.get(name).map_or(&[][..], Vec::as_slice);

    // processing: handler time over slot time.
    let exec_ns = durs(span::FRAME).iter().fold(0.0, |acc, us| acc + us) * 1e3;
    let slots = (d.workload.sites() * sdvm_core::SiteConfig::default().slots) as f64;
    s.put(
        "processing.slot_busy_share",
        ratio(exec_ns, slots * traced_ns as f64),
        "share",
    );

    // memory: benchmark-timed calls, then the attraction-memory counters.
    s.put(
        "memory.create_p50_us",
        stats::quantile(durs(span::CREATE), 0.5),
        "us",
    );
    s.put(
        "memory.send_p50_us",
        stats::quantile(durs(span::SEND), 0.5),
        "us",
    );
    s.put(
        "memory.read_p50_us",
        stats::quantile(durs(span::READ), 0.5),
        "us",
    );
    s.put(
        "memory.read_p99_us",
        stats::supported_quantile(durs(span::READ), 0.99),
        "us",
    );
    s.put(
        "memory.write_p50_us",
        stats::quantile(durs(span::WRITE), 0.5),
        "us",
    );
    s.put(
        "memory.replica_hit_ratio",
        ratio(
            w.replica_hits as f64,
            (w.replica_hits + w.replica_misses) as f64,
        ),
        "ratio",
    );
    s.put(
        "memory.invalidations",
        ratio(w.invalidations as f64, n_ops),
        "count/op",
    );
    s.put("memory.chase_hops_mean", Some(w.chase_hops.mean()), "hops");

    // security + wire.
    s.put("security.seal_us_mean", Some(w.seal.mean()), "us");
    s.put("security.open_us_mean", Some(w.open.mean()), "us");

    // site: router dispatch per manager.
    for m in DISPATCH {
        s.put(
            format!("site.dispatch_us_mean.{}", m.to_lowercase()),
            Some(w.dispatch_mean(m)),
            "us",
        );
    }

    // net.
    s.put(
        "net.msgs_per_frame",
        ratio(w.messages_sent as f64, w.frames_executed as f64),
        "count",
    );
    s.put(
        "net.msgs_per_op",
        ratio(w.messages_sent as f64, n_ops),
        "count/op",
    );
    s.put(
        "net.backpressure_stalls",
        ratio(w.backpressure_stalls as f64, n_ops),
        "count/op",
    );
    s.put(
        "net.outbound_queue_depth_max",
        Some(d.queue_depth_max as f64),
        "count",
    );
    let transit = e2e
        .get("rtt_p50_us")
        .and_then(|m| m.value)
        .map(|rtt| rtt - 2.0 * (w.seal.mean() + w.open.mean() + w.dispatch_mean("Site")));
    s.put("net.transit_us", transit, "us");

    // code: distribution work, in set-up and in the timed window.
    s.put(
        "code.remote_fetches",
        Some(w.remote_fetches as f64),
        "count",
    );
    s.put("code.compiles", Some(w.compiles as f64), "count");
    s.put(
        "code.setup_remote_fetches",
        Some(d.setup.remote_fetches as f64),
        "count",
    );
    s.put(
        "code.setup_compiles",
        Some(d.setup.compiles as f64),
        "count",
    );

    // program: the frontend's two ends.
    let launch: Vec<f64> = traced
        .iter()
        .filter_map(|o| o.stages.iter().find(|st| st.0 == span::LAUNCH))
        .map(|st| ms(st.2 - st.1))
        .collect();
    let result: Vec<f64> = traced
        .iter()
        .filter_map(|o| {
            let end = o.stages.last()?.2;
            (o.result_sent > 0 && o.result_sent <= end).then(|| ms(end - o.result_sent))
        })
        .collect();
    s.put("program.launch_ms", stats::quantile(&launch, 0.5), "ms");
    s.put("program.result_ms", stats::quantile(&result, 0.5), "ms");

    // process: resident memory the timed window added, per operation.
    s.put(
        "process.rss_growth_kb_per_op",
        ratio((d.rss_mb.1 - d.rss_mb.0) * 1024.0, n_ops),
        "kB/op",
    );

    // sim: the simulator's prediction for the same graph.
    s.put("sim.speedup", d.sim_speedup, "x");

    // trace: overhead, stage coverage, self time per span.
    let med = |traced: bool| {
        let v: Vec<f64> = verified(&d.ops, traced)
            .iter()
            .map(|o| ms(o.latency_ns()))
            .collect();
        (!v.is_empty()).then(|| stats::median(&v))
    };
    let overhead = match (med(true), med(false)) {
        (Some(t), Some(u)) => ratio(t - u, u).map(|r| r * 100.0),
        _ => None,
    };
    s.put("trace.overhead_pct", overhead, "%");
    let cov = coverage(d, e2e);
    s.put("trace.coverage", cov.map(|c| c.ratio), "ratio");
    s.put(
        "trace.uncovered_ms",
        cov.map(|c| c.uncovered / 1e6),
        "ms/op",
    );
    let iter_ns: u64 = traced.iter().map(|o| o.span.1 - o.span.0).sum();
    let iters: Vec<&Span> = spans
        .iter()
        .filter(|sp| sp.name == span::ITERATION)
        .collect();
    let exec_union: u64 = iters
        .iter()
        .map(|it| {
            let frames: Vec<(u64, u64)> = spans
                .iter()
                .filter(|sp| sp.parent == it.id && sp.name == span::FRAME)
                .map(|sp| (sp.start, sp.end))
                .collect();
            stats::union_within(it.start, it.end, &frames)
        })
        .sum();
    s.put(
        "trace.exec_union_share",
        programs
            .then(|| ratio(exec_union as f64, iter_ns as f64))
            .flatten(),
        "share",
    );
    for name in SPANS {
        let ns = self_ns.get(name).copied().unwrap_or(0) as f64;
        s.put(
            format!("trace.self_ms.{name}"),
            ratio(ns / 1e6, traced.len() as f64),
            "ms/op",
        );
        s.put(
            format!("trace.share.{name}"),
            ratio(ns, iter_ns as f64),
            "share",
        );
    }
    s
}

/// Stage coverage of one program run from the runtime-side stamps: the
/// `site.launch` call, every frame of the program from its last
/// parameter's send through its handler's end, and the final value's
/// send until `wait` returned, against the makespan. Returns
/// `(makespan, covered)` in ns; overlapping stages count once.
fn program_coverage(op: &Op, frames: &[&FrameRec]) -> (u64, u64) {
    let (t0, t2) = (op.stages[0].1, op.stages.last().map_or(0, |s| s.2));
    let mut stages: Vec<(u64, u64)> = vec![(op.stages[0].1, op.stages[0].2)];
    for f in frames {
        stages.push((f.sent, f.start));
        stages.push((f.start, f.end));
    }
    if op.result_sent > 0 {
        stages.push((op.result_sent, t2));
    }
    (t2 - t0, stats::union_within(t0, t2, &stages))
}

/// Stage coverage of a run's traced operations, or `None` without any.
///
/// Programs: [`program_coverage`] of every verified traced run. Pings: the
/// runtime stamps no single message, so the measured stages are the mean
/// seal, open and site dispatch, twice (request and reply), against the
/// RTT p50; the rest is `net.transit_us`, a labelled remainder. There the
/// check fails only if the measured stages exceed the round trip.
fn coverage(d: &RunData, e2e: &Sheet) -> Option<stats::Coverage> {
    let traced: Vec<&Op> = verified(&d.ops, true);
    if traced.is_empty() {
        return None;
    }
    if d.workload == Workload::PingTcp {
        let rtt = e2e.get("rtt_p50_us")?.value? * 1e3;
        let w = &d.window;
        let staged = 2e3 * (w.seal.mean() + w.open.mean() + w.dispatch_mean("Site"));
        return Some(stats::Coverage {
            ratio: staged / rtt,
            uncovered: rtt - staged,
            passes: staged <= rtt,
        });
    }
    let mut by_program: HashMap<u32, Vec<&FrameRec>> = HashMap::new();
    for f in &d.frames {
        by_program.entry(f.program).or_default().push(f);
    }
    let pairs: Vec<(f64, f64)> = traced
        .iter()
        .map(|o| {
            let frames = by_program
                .get(&(o.trace as u32))
                .map_or(&[][..], Vec::as_slice);
            let (total, covered) = program_coverage(o, frames);
            (total as f64, covered as f64)
        })
        .collect();
    Some(stats::coverage(&pairs))
}

fn print_sheet(title: &str, sheet: &Sheet) {
    println!("{title}");
    for m in &sheet.0 {
        match m.value {
            Some(v) => println!("  {:<34} {:>16.4} {}", m.name, v, m.unit),
            None => println!("  {:<34} {:>16} {}", m.name, "n/a", m.unit),
        }
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The summary's metrics. End-to-end metrics always have a value (see
/// [`report`]); a per-layer metric without one is a layer that did no
/// work on this workload, written as 0.
fn json_metrics(sheet: &Sheet, names: &[String]) -> String {
    let mut out = String::from("{");
    for (i, name) in names.iter().enumerate() {
        let m = sheet.get(name).expect("every reported metric is computed");
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            m.value.unwrap_or(0.0),
            json_str(m.unit)
        );
    }
    out.push('}');
    out
}

/// Host facts recorded with every result row.
fn host_facts(d: &RunData) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags = env!("PERFBENCH_RUSTFLAGS");
    let target_cpu = flags
        .split_whitespace()
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default");
    format!(
        "{{\"nproc\": {nproc}, \"target_cpu\": {}, \"git_rev\": {}, \"cpu_steal_share\": {:.4}}}",
        json_str(target_cpu),
        json_str(&git_rev()),
        d.steal_share
    )
}

/// The checkout's git revision, or `unknown` outside a git checkout.
fn git_rev() -> String {
    let here = std::env::current_dir().unwrap_or_default();
    let mut cmd = std::process::Command::new("git");
    cmd.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(parent) = here.parent() {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    match cmd.stderr(std::process::Stdio::null()).output() {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// Where the benchmark writes its files: under the build directory.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::PathBuf::from(target).join("perfbench")
}

/// Write the spans of the first few traced operations as JSON.
fn write_spans(d: &RunData, seed: u64) -> std::io::Result<std::path::PathBuf> {
    const KEEP: usize = 4;
    let keep: HashSet<u64> = d
        .ops
        .iter()
        .filter(|o| o.traced)
        .take(KEEP)
        .map(|o| o.trace)
        .collect();
    let mut out = String::from("[\n");
    let spans = resolve(&d.spans);
    let mut first = true;
    for s in spans.iter().filter(|s| keep.contains(&s.trace)) {
        let _ = writeln!(
            out,
            "{}{{\"name\": {}, \"id\": {}, \"parent\": {}, \"trace\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            if first { "" } else { "," },
            json_str(s.name),
            s.id,
            s.parent,
            s.trace,
            s.start,
            s.end
        );
        first = false;
    }
    out.push_str("]\n");
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{}-seed{seed}.json", d.workload.name()));
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Print every metric, the result row, and the JSON summary line. Fails,
/// before the summary, when an end-to-end metric has no value (no
/// verified operation to take it from). The summary's `correct` is false
/// when any operation failed or the traced pass fails its stage coverage.
pub fn report(d: &RunData, seed: u64, trace: bool) -> Result<(), String> {
    let e2e = end_to_end(d);
    let ops = d.ops.len();
    let failed = d.ops.iter().filter(|o| !o.ok).count();
    println!(
        "workload {}  seed {seed}  sites {}  ops {ops}  failed {failed}  traced ops {}",
        d.workload.name(),
        d.workload.sites(),
        d.ops.iter().filter(|o| o.traced).count()
    );
    let lat: Vec<f64> = d.ops.iter().map(|o| ms(o.latency_ns())).collect();
    let q = |p: f64| stats::quantile(&lat, p).unwrap_or(0.0);
    println!(
        "operation ms: min {:.3}  q1 {:.3}  median {:.3}  q3 {:.3}  max {:.3}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    );
    println!(
        "verified untraced operations: {} (host CPU steal share over the window {:.4})",
        verified(&d.ops, false).len(),
        d.steal_share
    );
    print_sheet("end-to-end (verified untraced operations)", &e2e);
    let layer = trace.then(|| per_layer(d, &e2e));
    let mut covered = true;
    if let Some(layer) = &layer {
        print_sheet("per-layer (traced pass)", layer);
        let cov = coverage(d, &e2e);
        covered = cov.is_some_and(|c| c.passes);
        match (cov, d.workload) {
            (None, _) => println!("stage coverage: no verified traced operation: FAIL"),
            (Some(c), Workload::PingTcp) => println!(
                "stage coverage: seal + open + site dispatch (x2) measure {:.2}% of the RTT p50; \
                 remainder net.transit_us {:.1} us (unmeasured, labelled remainder): {}",
                c.ratio * 100.0,
                c.uncovered / 1e3,
                if c.passes { "PASS" } else { "FAIL" }
            ),
            (Some(c), _) => println!(
                "stage coverage: site.launch, frame waits + frame.exec and the result's send \
                 cover {:.2}% of the makespan of {} traced programs, {:.3} ms uncovered per \
                 program (tolerance {:.0}%): {}",
                c.ratio * 100.0,
                verified(&d.ops, true).len(),
                c.uncovered / 1e6,
                stats::COVERAGE_TOLERANCE * 100.0,
                if c.passes { "PASS" } else { "FAIL" }
            ),
        }
        match write_spans(d, seed) {
            Ok(p) => println!("spans: {}", p.display()),
            Err(e) => eprintln!("note: spans not written: {e}"),
        }
    }
    let (sheet, names): (&Sheet, Vec<String>) = match &layer {
        Some(l) => (l, l.0.iter().map(|m| m.name.clone()).collect()),
        None => (
            &e2e,
            END_TO_END.iter().map(|(n, _)| n.to_string()).collect(),
        ),
    };
    if let Some((name, _)) = END_TO_END
        .iter()
        .find(|(n, _)| e2e.get(n).and_then(|m| m.value).is_none())
    {
        return Err(format!("end-to-end metric {name} has no value"));
    }
    let metrics = json_metrics(sheet, &names);
    // The result row keeps every figure the run produced.
    let mut all: Vec<&Metric> = e2e.0.iter().collect();
    all.extend(layer.iter().flat_map(|l| l.0.iter()));
    let row_metrics = all
        .iter()
        .filter_map(|m| {
            let v = m.value?;
            Some(format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            ))
        })
        .collect::<Vec<_>>()
        .join(", ");
    let row = format!(
        "{{\"bench\": \"perfbench\", \"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"host\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {{{row_metrics}}}}}",
        json_str(d.workload.name()),
        u8::from(trace),
        host_facts(d)
    );
    println!("result row: {row}");
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        use std::io::Write as _;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("results.jsonl"))
        {
            let _ = writeln!(f, "{row}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {ops}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0 && covered
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of the metrics `BENCHMARK.json` declares under
    /// `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{key}\"")).expect("key present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        let field = |entry: &str, f: &str| {
            let at = entry.find(&format!("\"{f}\"")).expect("field present");
            entry[at + f.len() + 2..]
                .split('"')
                .nth(1)
                .expect("quoted")
                .to_string()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn empty_run(workload: Workload) -> RunData {
        RunData {
            workload,
            ops: Vec::new(),
            frames: Vec::new(),
            spans: Vec::new(),
            window: Counters::default(),
            setup: Counters::default(),
            setup_s: vec![1.0],
            steal_share: 0.0,
            peak_rss_mb: 0.0,
            rss_mb: (0.0, 0.0),
            queue_depth_max: 0,
            ideal_ms: 0.0,
            sim_speedup: None,
        }
    }

    #[test]
    fn summary_metrics_match_benchmark_json() {
        let e2e = end_to_end(&empty_run(Workload::Fan));
        let want: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), want);
        for (n, u) in &want {
            assert_eq!(e2e.get(n).map(|m| m.unit), Some(u.as_str()), "{n}");
        }
        for w in [Workload::Fan, Workload::PingTcp] {
            let d = empty_run(w);
            let layer = per_layer(&d, &end_to_end(&d));
            let got: Vec<(String, String)> = layer
                .0
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            assert_eq!(declared("per_layer"), got);
        }
    }

    fn op(stages: Vec<(&'static str, u64, u64)>, result_sent: u64) -> Op {
        let span = (stages[0].1, stages.last().unwrap().2 + 50);
        Op {
            trace: 1,
            traced: true,
            ok: true,
            stages,
            span,
            result_sent,
            cpu_ms: 0.0,
        }
    }

    fn frame(sent: u64, start: u64, end: u64) -> FrameRec {
        FrameRec {
            program: 1,
            site: 0,
            home: 0,
            sent,
            start,
            end,
        }
    }

    #[test]
    fn coverage_uses_runtime_stamps_not_client_stages() {
        // Launch [100, 300), wait [300, 1000): the client stages alone
        // would cover everything. Frame a waits [250, 260) and runs to 500;
        // frame b waits from 280 (overlapping a) and runs [600, 800); the
        // result leaves at 900. Nothing covers [800, 900).
        let o = op(
            vec![(span::LAUNCH, 100, 300), (span::WAIT, 300, 1_000)],
            900,
        );
        let (a, b) = (frame(250, 260, 500), frame(280, 600, 800));
        assert_eq!(program_coverage(&o, &[&a, &b]), (900, 800));
        let mut d = empty_run(Workload::Fan);
        d.ops = vec![o.clone()];
        d.frames = vec![a, b];
        let cov = coverage(&d, &Sheet::default()).unwrap();
        assert!(!cov.passes, "an 11% gap fails");
        assert_eq!(cov.uncovered, 100.0);
        // The join's stamps fill the gap: it passes.
        d.frames.push(frame(790, 810, 895));
        let cov = coverage(&d, &Sheet::default()).unwrap();
        assert!(cov.passes);
        assert_eq!(cov.uncovered, 5.0);
        // No verified traced operation: nothing to check.
        d.ops[0].ok = false;
        assert!(coverage(&d, &Sheet::default()).is_none());
    }

    #[test]
    fn ping_coverage_leaves_transit_as_the_remainder() {
        let mut d = empty_run(Workload::PingTcp);
        d.ops = vec![op(vec![(span::REQUEST, 0, 1_000_000)], 0)];
        let hist = |mean: u64| crate::cluster::Hist {
            count: 10,
            sum: 10 * mean,
        };
        d.window.seal = hist(100);
        d.window.open = hist(100);
        d.window.dispatch = vec![("Site".to_string(), hist(50))];
        let mut e2e = Sheet::default();
        e2e.put("rtt_p50_us", Some(1_000.0), "us");
        let cov = coverage(&d, &e2e).unwrap();
        assert!(cov.passes);
        assert_eq!(cov.ratio, 0.5);
        assert_eq!(cov.uncovered, 500_000.0);
        // Stages longer than the round trip are inconsistent.
        d.window.seal = hist(400);
        assert!(!coverage(&d, &e2e).unwrap().passes);
    }
}
