//! Panic-safe execution engine drills: handler panics stay inside their
//! worker slot, infrastructure failures get a bounded retry budget with
//! growing backoff, poison frames land in the dead-letter store exactly
//! once (and can be re-driven), dead workers are respawned by the
//! supervisor, and a program that can never finish is flagged by the
//! stuck-program watchdog instead of hanging its waiter forever.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::config::MAX_FRAME_RETRIES;
use sdvm_core::{
    perfetto_trace_json, prometheus_text, AppBuilder, AppFault, AppFaultKind, ExecCtx,
    InProcessCluster, SiteConfig, TraceEvent, TraceLog,
};
use sdvm_types::{FailurePolicy, GlobalAddress, SdvmError, SiteId, Value};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(60);

fn poll_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    loop {
        if cond() {
            return true;
        }
        if Instant::now() > end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One doubler frame feeding the result: the minimal poisonable program.
fn doubler_app(fault: &AppFault) -> AppBuilder {
    let mut app = AppBuilder::new("poison-doubler");
    let work = |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        ctx.send(ctx.target(0)?, 0, Value::from_u64(v * 2))
    };
    app.thread("work", fault.wrap(work));
    app
}

/// Fan out `n` squaring frames into one join that sums them.
fn fan_app(fault: &AppFault) -> AppBuilder {
    let mut app = AppBuilder::new("poison-fan");
    let work = |ctx: &mut ExecCtx<'_>| {
        let v = ctx.param(0)?.as_u64()?;
        let slot = ctx.param(1)?.as_u64()? as u32;
        std::thread::sleep(Duration::from_millis(5));
        ctx.send(ctx.target(0)?, slot, Value::from_u64(v * v))
    };
    app.thread("work", fault.wrap(work));
    app.thread("join", |ctx| {
        let mut acc = 0;
        for i in 0..ctx.param_count() as u32 {
            acc += ctx.param(i)?.as_u64()?;
        }
        ctx.send(ctx.target(0)?, 0, Value::from_u64(acc))
    });
    app
}

fn launch_fan(cluster: &InProcessCluster, app: &AppBuilder, n: usize) -> sdvm_core::ProgramHandle {
    cluster
        .site(0)
        .launch(app, move |ctx, result| {
            let join = ctx.create_frame(1, n, vec![result], Default::default());
            for i in 0..n {
                let w = ctx.create_frame(0, 2, vec![join], Default::default());
                ctx.send(w, 0, Value::from_u64(i as u64))?;
                ctx.send(w, 1, Value::from_u64(i as u64))?;
            }
            Ok(())
        })
        .unwrap()
}

/// A panicking handler is quarantined exactly once, `wait()` returns a
/// descriptive error naming frame, thread and cause under the default
/// fail-fast policy — and every worker slot survives the panic.
#[test]
fn panicking_handler_fails_fast_and_keeps_workers_alive() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 1], Some(trace.clone()))
            .unwrap();
    let fault = AppFault::new(cluster.site(0).id(), 1, AppFaultKind::Panic);
    let app = doubler_app(&fault);
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(21))
        })
        .unwrap();
    let err = handle
        .wait(WAIT)
        .expect_err("fail-fast must surface the panic");
    let text = err.to_string();
    assert!(
        text.contains("quarantined") && text.contains("chaos: injected panic"),
        "error must name the quarantine and the cause, got: {text}"
    );
    assert!(
        matches!(err, SdvmError::ProgramFailed { .. }),
        "wait() must return ProgramFailed, got {err:?}"
    );
    // Panic isolation: the slot that hosted the panic is still alive.
    let slots = cluster.site(0).inner().config.slots;
    assert_eq!(cluster.site(0).live_workers(), slots);
    // Exactly one quarantine, one counted panic, accounting restored.
    let quarantines = trace.filter(|e| matches!(e, TraceEvent::FrameQuarantined { .. }));
    assert_eq!(
        quarantines.len(),
        1,
        "poison frame quarantined exactly once"
    );
    let snap = cluster.site(0).inner().metrics.snapshot();
    assert_eq!(snap.handler_panics, 1);
    assert_eq!(snap.frames_quarantined, 1);
    let inner = cluster.site(0).inner();
    let status = inner.site_mgr.status(inner);
    assert_eq!(
        status.busy_slots, 0,
        "busy accounting must unwind after a panic"
    );
}

/// Counter-leak regression: after a handler error *and* a handler panic,
/// the busy/running books are balanced and the same workers complete a
/// healthy program.
#[test]
fn accounting_survives_errors_and_panics() {
    let cluster = InProcessCluster::with_configs(vec![SiteConfig::default(); 1], None).unwrap();
    let me = cluster.site(0).id();
    for kind in [AppFaultKind::Fail, AppFaultKind::Panic] {
        let fault = AppFault::new(me, 1, kind);
        let app = doubler_app(&fault);
        let handle = cluster
            .site(0)
            .launch(&app, |ctx, result| {
                let w = ctx.create_frame(0, 1, vec![result], Default::default());
                ctx.send(w, 0, Value::from_u64(1))
            })
            .unwrap();
        assert!(handle.wait(WAIT).is_err(), "{kind:?} must fail the program");
    }
    let inner = cluster.site(0).inner();
    let balanced = poll_until(Duration::from_secs(5), || {
        inner.site_mgr.status(inner).busy_slots == 0
    });
    assert!(balanced, "busy slots must drop to zero after poison frames");
    // The same worker pool still executes a healthy program to completion.
    let healthy = AppFault::new(me, u32::MAX, AppFaultKind::Fail); // never fires
    let app = doubler_app(&healthy);
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(21))
        })
        .unwrap();
    assert_eq!(handle.wait(WAIT).unwrap().as_u64().unwrap(), 42);
}

/// Infrastructure failures are retried exactly `MAX_FRAME_RETRIES` times
/// with capped-exponential gaps (asserted through the retry-delay
/// histogram: 10 + 20 + 40 + 80 + 160 ms), then the frame is
/// dead-lettered and the waiter gets an error — it does not hang.
#[test]
fn retry_budget_exhaustion_dead_letters_the_frame() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default()], Some(trace.clone())).unwrap();
    let mut app = AppBuilder::new("doomed");
    app.thread("doomed", |ctx| {
        // The home site of this address does not exist: every attempt
        // fails with an infrastructure error (UnknownSite).
        ctx.send(GlobalAddress::new(SiteId(77), 9_999), 0, Value::from_u64(1))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(1))
        })
        .unwrap();
    let err = handle
        .wait(WAIT)
        .expect_err("exhausted budget must fail the program");
    assert!(
        matches!(err, SdvmError::ProgramFailed { .. }),
        "got {err:?}"
    );

    // Exactly MAX_FRAME_RETRIES attempts, 1-based and in order.
    let attempts: Vec<u32> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FrameRetried { attempt, .. } => Some(*attempt),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, (1..=MAX_FRAME_RETRIES).collect::<Vec<_>>());
    assert_eq!(
        trace
            .filter(|e| matches!(e, TraceEvent::FrameQuarantined { .. }))
            .len(),
        1
    );
    // Growing gaps, deterministically: 10, 20, 40, 80, 160 ms of
    // scheduled backoff.
    let snap = cluster.site(0).inner().metrics.snapshot();
    assert_eq!(snap.retry_delay_us.count, 5);
    assert_eq!(snap.retry_delay_us.sum_us, 310_000);
    assert_eq!(snap.frames_retried, 5);
}

/// Under the skip-frame policy the waiter must not hang either: skipping
/// the only frame feeding the result leaves the program permanently
/// quiet, and the watchdog turns that into a `ProgramStuck` error.
#[test]
fn skip_frame_policy_reports_and_watchdog_unblocks_the_waiter() {
    let trace = TraceLog::new();
    let cfg = SiteConfig::default().with_stuck_timeout(Duration::from_millis(800));
    let cluster = InProcessCluster::with_configs(vec![cfg; 1], Some(trace.clone())).unwrap();
    let fault = AppFault::new(cluster.site(0).id(), 1, AppFaultKind::Fail);
    let app = doubler_app(&fault).on_failure(FailurePolicy::SkipFrame);
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(21))
        })
        .unwrap();
    let err = handle
        .wait(Duration::from_secs(20))
        .expect_err("skipped result producer must end in ProgramStuck, not a hang");
    assert!(matches!(err, SdvmError::ProgramStuck { .. }), "got {err:?}");
    assert_eq!(
        trace
            .filter(|e| matches!(e, TraceEvent::ProgramStuck { .. }))
            .len(),
        1
    );
}

/// The watchdog also catches programs that were never poisoned but can
/// never finish (a created frame whose parameters never arrive).
#[test]
fn watchdog_flags_a_program_that_cannot_finish() {
    let trace = TraceLog::new();
    let cfg = SiteConfig {
        stuck_timeout: Duration::from_millis(500),
        ..SiteConfig::default()
    };
    let cluster = InProcessCluster::with_configs(vec![cfg; 1], Some(trace.clone())).unwrap();
    let mut app = AppBuilder::new("never");
    app.thread("work", |ctx| {
        let v = ctx.param(0)?.as_u64()?;
        ctx.send(ctx.target(0)?, 0, Value::from_u64(v))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            // Create the frame but never send its parameter.
            let _w = ctx.create_frame(0, 1, vec![result], Default::default());
            Ok(())
        })
        .unwrap();
    let err = handle
        .wait(Duration::from_secs(20))
        .expect_err("quiet program must be declared stuck");
    assert!(matches!(err, SdvmError::ProgramStuck { .. }), "got {err:?}");
}

/// A worker slot that dies is respawned by the maintenance supervisor,
/// and the refreshed pool still runs programs.
#[test]
fn killed_worker_is_respawned_by_the_supervisor() {
    let trace = TraceLog::new();
    let cfg = SiteConfig {
        heartbeat_interval: Duration::from_millis(50),
        ..SiteConfig::default()
    };
    let cluster = InProcessCluster::with_configs(vec![cfg; 1], Some(trace.clone())).unwrap();
    let slots = cluster.site(0).inner().config.slots;
    assert_eq!(cluster.site(0).live_workers(), slots);

    cluster.site(0).kill_worker();
    let respawned = poll_until(Duration::from_secs(10), || {
        !trace
            .filter(|e| matches!(e, TraceEvent::WorkerRespawned { .. }))
            .is_empty()
            && cluster.site(0).live_workers() == slots
    });
    assert!(respawned, "supervisor must respawn the dead slot");
    assert_eq!(
        cluster.site(0).inner().metrics.snapshot().workers_respawned,
        1
    );

    let healthy = AppFault::new(cluster.site(0).id(), u32::MAX, AppFaultKind::Fail);
    let app = doubler_app(&healthy);
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(4))
        })
        .unwrap();
    assert_eq!(handle.wait(WAIT).unwrap().as_u64().unwrap(), 8);
}

/// A dead-lettered frame can be re-driven once the cause is gone: the
/// budget resets, the frame re-executes and the program completes with
/// the right answer.
#[test]
fn quarantined_frame_can_be_redriven_to_completion() {
    let cluster = InProcessCluster::with_configs(vec![SiteConfig::default(); 1], None).unwrap();
    // Fails only on its first execution: the re-driven run succeeds.
    let fault = AppFault::new(cluster.site(0).id(), 1, AppFaultKind::Fail);
    let app = doubler_app(&fault).on_failure(FailurePolicy::SkipFrame);
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let w = ctx.create_frame(0, 1, vec![result], Default::default());
            ctx.send(w, 0, Value::from_u64(21))
        })
        .unwrap();
    let inner = cluster.site(0).inner();
    let parked = poll_until(Duration::from_secs(10), || inner.deadletter.count() == 1);
    assert!(
        parked,
        "failed frame must be dead-lettered under skip-frame"
    );
    let status = inner.site_mgr.status(inner);
    assert_eq!(
        status.dead_letters, 1,
        "dead letters must show in SiteStatus"
    );

    let poison = inner.deadletter.letters()[0].frame.id;
    assert!(inner.deadletter.redrive(inner, poison));
    assert_eq!(
        handle.wait(WAIT).unwrap().as_u64().unwrap(),
        42,
        "re-driven frame must finish the program"
    );
    assert_eq!(inner.deadletter.count(), 0);
}

fn drill_config() -> SiteConfig {
    let mut cfg = SiteConfig::default().with_crash_tolerance();
    cfg.heartbeat_interval = Duration::from_millis(50);
    cfg.suspect_timeout = Duration::from_millis(200);
    cfg.crash_timeout = Duration::from_millis(2_000);
    cfg
}

/// The acceptance drill: on a four-site cluster, a scripted handler
/// panic poisons one frame. The frame is quarantined exactly once
/// cluster-wide, no buddy revives it, every worker slot on every site
/// stays alive, `wait()` returns a descriptive error — and the counters
/// show up in both the Prometheus export and the Perfetto trace.
#[test]
fn four_site_poison_drill_fail_fast() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![drill_config(); 4], Some(trace.clone())).unwrap();
    let fault = AppFault::new(cluster.site(0).id(), 1, AppFaultKind::Panic);
    let app = fan_app(&fault);
    let handle = launch_fan(&cluster, &app, 12);
    let err = handle
        .wait(WAIT)
        .expect_err("fail-fast must surface the poison");
    let text = err.to_string();
    assert!(
        text.contains("chaos: injected panic"),
        "error must carry the cause, got: {text}"
    );
    // Let in-flight frames drain and the termination broadcast settle.
    std::thread::sleep(Duration::from_millis(500));

    // Panic isolation everywhere: full worker pools on all four sites.
    for i in 0..4 {
        assert_eq!(
            cluster.site(i).live_workers(),
            cluster.site(i).inner().config.slots,
            "site {i} lost a worker slot"
        );
    }
    // Exactly one quarantine cluster-wide, and the poison frame was
    // never revived or executed afterwards (the backup tombstone holds).
    let events = trace.events();
    let quarantined: Vec<GlobalAddress> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::FrameQuarantined { frame, .. } => Some(*frame),
            _ => None,
        })
        .collect();
    assert_eq!(quarantined.len(), 1, "exactly one quarantine cluster-wide");
    let poison = quarantined[0];
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::FrameExecuted { frame, .. } if *frame == poison)),
        "a quarantined frame must never execute"
    );
    let panics: u64 = (0..4)
        .map(|i| cluster.site(i).inner().metrics.snapshot().handler_panics)
        .sum();
    assert_eq!(panics, 1);

    // The counters are visible to operators in both exports.
    let snaps: Vec<(SiteId, _)> = (0..4)
        .map(|i| {
            (
                cluster.site(i).id(),
                cluster.site(i).inner().metrics.snapshot(),
            )
        })
        .collect();
    let prom = prometheus_text(&snaps);
    for fam in [
        "sdvm_handler_panics_total",
        "sdvm_frames_quarantined_total",
        "sdvm_frames_retried_total",
        "sdvm_retry_delay_us",
    ] {
        assert!(prom.contains(fam), "missing Prometheus family {fam}");
    }
    let json = perfetto_trace_json(&trace.timestamped());
    assert!(
        json.contains("quarantine frame"),
        "quarantine must appear in the Perfetto trace"
    );
}

/// Same drill under the skip-frame policy: the cluster keeps executing
/// the remaining frames after the quarantine, and re-driving the poison
/// frame completes the program with the full (correct) sum.
#[test]
fn four_site_poison_drill_skip_frame_continues_and_redrives() {
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![drill_config(); 4], Some(trace.clone())).unwrap();
    // Fails once, on site 0; the re-driven execution succeeds.
    let fault = AppFault::new(cluster.site(0).id(), 1, AppFaultKind::Fail);
    let app = fan_app(&fault).on_failure(FailurePolicy::SkipFrame);
    let n = 12usize;
    let handle = launch_fan(&cluster, &app, n);

    // The poison frame lands in some site's dead-letter store while the
    // rest of the fan-out keeps executing.
    let parked = poll_until(Duration::from_secs(20), || {
        (0..4).any(|i| {
            let inner = cluster.site(i).inner();
            inner.deadletter.count() == 1
        })
    });
    assert!(parked, "failed frame must be dead-lettered");
    let owner = (0..4)
        .find(|&i| cluster.site(i).inner().deadletter.count() == 1)
        .unwrap();
    let executed_at_quarantine = trace
        .filter(|e| matches!(e, TraceEvent::FrameExecuted { .. }))
        .len();
    // Remaining frames complete: executions keep landing after the
    // quarantine (11 work frames + nothing blocked on the poison yet).
    let progressed = poll_until(Duration::from_secs(20), || {
        trace
            .filter(|e| matches!(e, TraceEvent::FrameExecuted { .. }))
            .len()
            >= executed_at_quarantine.max(n - 1)
    });
    assert!(progressed, "remaining frames must keep completing");

    // Re-drive: the once-poisoned frame now runs clean and the join
    // receives every contribution.
    let inner = cluster.site(owner).inner();
    let poison = inner.deadletter.letters()[0].frame.id;
    assert!(inner.deadletter.redrive(inner, poison));
    let result = handle.wait(WAIT).unwrap().as_u64().unwrap();
    let expect: u64 = (0..n as u64).map(|i| i * i).sum();
    assert_eq!(result, expect, "full sum after re-drive");
    assert!(
        handle.wait(Duration::from_millis(300)).is_err(),
        "result must be delivered exactly once"
    );
}
