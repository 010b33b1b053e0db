//! The SDVM cluster benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fan --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Builds a cluster of the shipping runtime (default `SiteConfig`), sets
//! it up several times (build, sign-on, 300 ms settle, one warm-up
//! operation), then drives one workload from one client thread in a
//! closed loop for `--seconds`, verifying every result. It prints every
//! metric by name with its unit, a result row with the host facts, and
//! as its last line the JSON summary: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. See `README.md`.

mod cluster;
mod metrics;
mod programs;
mod record;
mod stats;

use cluster::{Cluster, Counters};
use programs::{Attract, Fan, Program, Rng};
use record::{now_ns, span, Recorder, Span};
use sdvm_types::{ManagerId, SdvmError, SdvmResult};
use sdvm_wire::Payload;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Quiet period after sign-on, before the warm-up operation.
const SETTLE: Duration = Duration::from_millis(300);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Longest wait for one program's result before it counts as failed.
const PROGRAM_TIMEOUT: Duration = Duration::from_secs(30);
/// Longest wait for one pong.
const PING_TIMEOUT: Duration = Duration::from_secs(2);
/// Pings of the `ping_tcp` warm-up.
const PING_WARMUP: usize = 200;
/// Longest think time before a ping (µs), drawn from the seed so that
/// pings do not lock onto the phase of the transport's polling.
const PING_THINK_US: u64 = 1_000;
/// Operations of the timed window after which `peak_rss_mb` is read: a
/// fixed amount of work, so the figure does not depend on throughput.
pub const RSS_AFTER_OPS: usize = 64;
/// `attract`: tasks, shared objects, accesses per task, task sleep (µs).
const ATTRACT: (usize, u64, usize, u64) = (100, 64, 48, 2_000);

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fork/join of 1 200 sleeping tasks on 4 in-process sites.
    Fan,
    /// Tasks reading and writing shared objects on 4 in-process sites.
    Attract,
    /// Site-manager pings between 2 encrypted TCP sites.
    PingTcp,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "fan" => Workload::Fan,
            "attract" => Workload::Attract,
            "ping_tcp" => Workload::PingTcp,
            _ => return None,
        })
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fan => "fan",
            Workload::Attract => "attract",
            Workload::PingTcp => "ping_tcp",
        }
    }

    /// Number of sites.
    pub fn sites(self) -> usize {
        match self {
            Workload::PingTcp => 2,
            _ => 4,
        }
    }

    fn cluster(self) -> SdvmResult<Cluster> {
        match self {
            Workload::Fan | Workload::Attract => Cluster::in_process(self.sites()),
            Workload::PingTcp => Cluster::tcp(self.sites()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One closed-loop operation: a program run or a ping.
#[derive(Clone, Debug)]
pub struct Op {
    /// Program id (ping index on `ping_tcp`): the trace id.
    pub trace: u64,
    /// Whether its spans were recorded.
    pub traced: bool,
    /// Result verified against the reference.
    pub ok: bool,
    /// Client-side stages: `site.launch` and `handle.wait`, or
    /// `net.request` alone.
    pub stages: Vec<(&'static str, u64, u64)>,
    /// Whole operation including verification (the `iteration` span).
    pub span: (u64, u64),
    /// When the program's final value was sent (0 for pings).
    pub result_sent: u64,
    /// Process CPU time (user + sys, ms) while it ran.
    pub cpu_ms: f64,
}

impl Op {
    /// Makespan (ns): from the first call into the runtime to the reply
    /// or the result.
    pub fn latency_ns(&self) -> u64 {
        let first = self.stages.first().map_or(0, |s| s.1);
        let last = self.stages.last().map_or(0, |s| s.2);
        last - first
    }
}

/// Everything a run measured, for [`metrics`].
pub struct RunData {
    /// The workload.
    pub workload: Workload,
    /// The operations of the timed window, in order.
    pub ops: Vec<Op>,
    /// Frames executed during the timed window.
    pub frames: Vec<record::FrameRec>,
    /// Spans of the traced operations.
    pub spans: Vec<Span>,
    /// Counter deltas over the timed window.
    pub window: Counters,
    /// Counters at the end of the last set-up (set-up work).
    pub setup: Counters,
    /// Duration of each set-up (s).
    pub setup_s: Vec<f64>,
    /// Share of the host's CPU time stolen by the hypervisor over the
    /// timed window (a host fact: other tenants' load).
    pub steal_share: f64,
    /// Peak resident memory of the process after set-up and the first
    /// [`RSS_AFTER_OPS`] operations (MB).
    pub peak_rss_mb: f64,
    /// Resident memory at the start and the end of the timed window (MB).
    pub rss_mb: (f64, f64),
    /// Largest outbound queue depth sampled (traced pass only).
    pub queue_depth_max: usize,
    /// Ideal one-site time of one program (ms; 0 for pings).
    pub ideal_ms: f64,
    /// The simulator's speedup for the same graph, where it models it.
    pub sim_speedup: Option<f64>,
}

/// The workload's program, if it runs programs.
fn program(w: Workload, rec: &Arc<Recorder>, seed: u64) -> Option<Box<dyn Program>> {
    match w {
        Workload::Fan => Some(Box::new(Fan::new(rec.clone(), 1_200, seed))),
        Workload::Attract => {
            let (tasks, objects, per_task, sleep_us) = ATTRACT;
            Some(Box::new(Attract::new(
                rec.clone(),
                tasks,
                objects,
                per_task,
                sleep_us,
                seed,
            )))
        }
        Workload::PingTcp => None,
    }
}

/// Run one program and verify its result.
fn run_program(cl: &Cluster, prog: &dyn Program, rec: &Recorder, traced: bool) -> Op {
    rec.set_tracing(traced);
    let launch_id = rec.span_id();
    let t0 = now_ns();
    let handle = prog.launch(cl.site(0), launch_id);
    let t1 = now_ns();
    let (trace, value) = match &handle {
        Ok(h) => (u64::from(h.program.0), h.wait(PROGRAM_TIMEOUT)),
        Err(e) => (0, Err(e.clone())),
    };
    let t2 = now_ns();
    let (ok, result_sent) = match value.and_then(|v| programs::decode_result(&v)) {
        Ok((words, sent)) => (words == prog.expected(), sent),
        Err(e) => {
            eprintln!("program failed: {e}");
            (false, 0)
        }
    };
    let t3 = now_ns();
    if traced {
        let it = rec.span_id();
        for (id, name, start, end) in [
            (it, span::ITERATION, t0, t3),
            (launch_id, span::LAUNCH, t0, t1),
            (rec.span_id(), span::WAIT, t1, t2),
        ] {
            let parent = if id == it { 0 } else { it };
            rec.push_span(Span {
                id,
                parent,
                trace,
                name,
                start,
                end,
            });
        }
    }
    rec.set_tracing(false);
    Op {
        trace,
        traced,
        ok,
        stages: vec![(span::LAUNCH, t0, t1), (span::WAIT, t1, t2)],
        span: (t0, t3),
        result_sent,
        cpu_ms: 0.0,
    }
}

/// One ping from site 0 to site 1's site manager.
fn run_ping(cl: &Cluster, rec: &Recorder, index: u64, token: u64, traced: bool) -> Op {
    rec.set_tracing(traced);
    let peer = cl.site(1).id();
    let t0 = now_ns();
    let reply = cl.site(0).inner().request(
        peer,
        ManagerId::Site,
        ManagerId::Site,
        Payload::Ping { token },
        PING_TIMEOUT,
    );
    let t1 = now_ns();
    let ok =
        matches!(&reply, Ok(m) if matches!(m.payload, Payload::Pong { token: t } if t == token));
    if let Err(e) = &reply {
        eprintln!("ping failed: {e}");
    }
    let t2 = now_ns();
    if traced {
        let it = rec.span_id();
        rec.push_span(Span {
            id: it,
            parent: 0,
            trace: index,
            name: span::ITERATION,
            start: t0,
            end: t2,
        });
        rec.push_span(Span {
            id: rec.span_id(),
            parent: it,
            trace: index,
            name: span::REQUEST,
            start: t0,
            end: t1,
        });
    }
    rec.set_tracing(false);
    Op {
        trace: index,
        traced,
        ok,
        stages: vec![(span::REQUEST, t0, t1)],
        span: (t0, t2),
        result_sent: 0,
        cpu_ms: 0.0,
    }
}

/// Build, sign on, settle and warm up; fails if the warm-up fails.
fn set_up(
    w: Workload,
    prog: Option<&dyn Program>,
    rec: &Recorder,
    rng: &mut Rng,
) -> SdvmResult<Cluster> {
    let cl = w.cluster()?;
    std::thread::sleep(SETTLE);
    let warm_ok = match prog {
        Some(p) => run_program(&cl, p, rec, false).ok,
        None => (0..PING_WARMUP).all(|i| run_ping(&cl, rec, i as u64, rng.next_u64(), false).ok),
    };
    if !warm_ok {
        return Err(SdvmError::InvalidState(format!(
            "{} warm-up failed",
            w.name()
        )));
    }
    Ok(cl)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload fan|attract|ping_tcp --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let done = run(&args)
        .map_err(|e| e.to_string())
        .and_then(|data| metrics::report(&data, args.seed, args.trace));
    if let Err(e) = done {
        eprintln!("error: {} run failed: {e}", args.workload.name());
        std::process::exit(1);
    }
}

fn run(args: &Args) -> SdvmResult<RunData> {
    let w = args.workload;
    let rec = Arc::new(Recorder::default());
    let prog = program(w, &rec, args.seed);
    let mut rng = Rng::new(args.seed);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut cl = None;
    for _ in 0..SETUPS {
        drop(cl.take());
        let t0 = now_ns();
        cl = Some(set_up(w, prog.as_deref(), &rec, &mut rng)?);
        setup_s.push((now_ns() - t0) as f64 / 1e9);
    }
    let cl = cl.expect("at least one set-up");
    let setup = Counters::read(&cl);

    rec.take_frames();
    rec.take_spans();
    let before = Counters::read(&cl);
    let host0 = metrics::host_cpu_ticks();
    let rss0 = metrics::rss_mb();
    let mut peak_rss_mb = None;
    let deadline = now_ns() + args.seconds * 1_000_000_000;
    let mut ops = Vec::new();
    let sampling = AtomicBool::new(args.trace);
    let depth_max = AtomicUsize::new(0);
    std::thread::scope(|s| {
        if args.trace {
            s.spawn(|| {
                while sampling.load(Ordering::SeqCst) {
                    depth_max.fetch_max(cl.outbound_depth_max(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // The traced pass alternates untraced and traced operations, so
        // their difference is the tracing overhead under equal conditions.
        while now_ns() < deadline {
            let traced = args.trace && ops.len() % 2 == 1;
            if prog.is_none() {
                std::thread::sleep(Duration::from_micros(rng.range(0, PING_THINK_US)));
            }
            let cpu0 = metrics::process_cpu_ms();
            let mut op = match &prog {
                Some(p) => run_program(&cl, p.as_ref(), &rec, traced),
                None => run_ping(&cl, &rec, ops.len() as u64, rng.next_u64(), traced),
            };
            op.cpu_ms = metrics::process_cpu_ms() - cpu0;
            ops.push(op);
            if ops.len() == RSS_AFTER_OPS {
                peak_rss_mb = Some(metrics::peak_rss_mb());
            }
        }
        sampling.store(false, Ordering::SeqCst);
    });
    let rss1 = metrics::rss_mb();
    let host1 = metrics::host_cpu_ticks();
    let steal_share = (host1.0 - host0.0) as f64 / (host1.1 - host0.1).max(1) as f64;
    let window = Counters::read(&cl).since(&before);
    let frames = rec.take_frames();
    let spans = rec.take_spans();
    drop(cl);

    let ideal_ms = prog.as_ref().map_or(0.0, |p| {
        stats::ideal_one_site(p.total_sleep_ms(), sdvm_core::SiteConfig::default().slots)
    });
    let sim_speedup = prog
        .as_ref()
        .and_then(|p| p.sim_graph())
        .map(|g| metrics::sim_speedup(g, w.sites()));
    Ok(RunData {
        workload: w,
        ops,
        frames,
        spans,
        window,
        setup,
        setup_s,
        steal_share,
        peak_rss_mb: peak_rss_mb.unwrap_or_else(metrics::peak_rss_mb),
        rss_mb: (rss0, rss1),
        queue_depth_max: depth_max.load(Ordering::Relaxed),
        ideal_ms,
        sim_speedup,
    })
}
