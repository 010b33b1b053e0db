//! The processing manager (paper §4): executes microthreads.
//!
//! "If it is idle, it requests a pair of an executable microframe and its
//! corresponding microthread from the scheduling manager. [...] Then the
//! microthread is executed using these parameters." Latency hiding is
//! achieved by running `SiteConfig::slots` of these loops in (virtual)
//! parallel — the paper found about 5 to work well; while one microthread
//! blocks on a remote memory access, the other slots keep executing.
//!
//! The engine is panic-safe: every handler runs under `catch_unwind`, so
//! an application bug cannot kill a worker slot, and the busy/running
//! accounting is held by an RAII guard so no exit path — return, retry,
//! or unwind — can leak a counter. Infrastructure failures are retried
//! with a budgeted, capped exponential backoff; panics, application
//! errors and exhausted budgets quarantine the frame in the dead-letter
//! store instead of looping forever.

use crate::api::ExecCtx;
use crate::config::{debug_enabled, retry_backoff, MAX_FRAME_RETRIES};
use crate::site::SiteInner;
use crate::trace::TraceEvent;
use sdvm_types::{ProgramId, SdvmError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Is this failure the cluster's fault (peer crashed, request timed out)
/// rather than the application's? Infrastructure failures re-execute.
fn is_infrastructure(e: &SdvmError) -> bool {
    matches!(
        e,
        SdvmError::Transport(_)
            | SdvmError::Timeout(_)
            | SdvmError::UnknownSite(_)
            | SdvmError::SiteLost(_)
            | SdvmError::ObjectMissing(_)
    )
}

/// Human-readable message out of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// RAII guard for one slot execution: busy/running counters and program
/// billing are released on drop, so every exit path — including an
/// unwind caught further up — restores the accounting.
struct SlotGuard<'a> {
    site: &'a SiteInner,
    program: ProgramId,
    in_flight: Option<sdvm_types::GlobalAddress>,
    started: std::time::Instant,
}

impl<'a> SlotGuard<'a> {
    fn enter(site: &'a SiteInner, frame: &crate::frame::Microframe) -> Self {
        let program = frame.program();
        site.scheduling.set_busy(1);
        site.scheduling.note_running(program, 1);
        // Keep the pre-execution image visible to non-quiescing
        // (incremental) snapshots; replica runs stay invisible — they
        // settle through their coordinator, not through a checkpoint.
        let in_flight = if frame.replica.is_none() {
            site.scheduling.note_in_flight(frame.clone());
            Some(frame.id)
        } else {
            None
        };
        SlotGuard {
            site,
            program,
            in_flight,
            started: std::time::Instant::now(),
        }
    }
}

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.in_flight {
            self.site.scheduling.clear_in_flight(id);
        }
        self.site.scheduling.set_busy(-1);
        self.site.scheduling.note_running(self.program, -1);
        // Accounting (paper goal 14): charge the program for the slot
        // time, successful or not — failed work still burnt resources.
        self.site
            .site_mgr
            .account(self.program, self.started.elapsed());
    }
}

/// Body of one processing slot; runs until site shutdown (or until the
/// supervisor asks this slot to exit — see `SiteInner::take_worker_exit`).
pub fn worker_loop(site: &Arc<SiteInner>) {
    while site.is_running() {
        site.pause_gate();
        let Some((mut frame, func)) = site.scheduling.next_work(site) else {
            break;
        };
        let id = frame.id;
        let thread = frame.thread;
        // A replica dispatched by the replication manager buffers its
        // result sends into a ballot instead of applying them.
        let ballot = frame
            .replica
            .map(|_| Arc::new(parking_lot::Mutex::new(Vec::new())));
        let result = {
            let guard = SlotGuard::enter(site, &frame);
            // The guard sits OUTSIDE the catch so its Drop runs on the
            // normal path after a caught unwind — counters cannot leak.
            let caught = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = match &ballot {
                    Some(buf) => ExecCtx::for_replica(site, &frame, buf.clone()),
                    None => ExecCtx::for_frame(site, &frame),
                };
                func(&mut ctx)
            }));
            drop(guard);
            match caught {
                Ok(r) => r,
                Err(payload) => {
                    site.metrics.handler_panics.inc();
                    Err(SdvmError::HandlerPanicked {
                        thread,
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        };
        if let (Some(run), Some(buf)) = (frame.replica, ballot) {
            // Replicas report to their coordinator — no local retry or
            // quarantine (the escrow entry re-dispatches on failure),
            // and no consume/FrameExecuted (the coordinator settles the
            // logical frame exactly once).
            let outcome = result.map(|()| std::mem::take(&mut *buf.lock()));
            site.replication.report(site, id, run, outcome);
            continue;
        }
        if let Err(ref e) = result {
            if debug_enabled() {
                eprintln!(
                    "[dbg site{}] microthread {thread} frame {id} failed: {e}",
                    site.my_id().0
                );
            }
            if is_infrastructure(e) && site.is_running() && !site.is_draining() {
                // A peer died under us mid-execution. Re-execution
                // re-sends every result; duplicates of sends that
                // already landed are dropped idempotently
                // (at-least-once semantics, as after crash recovery).
                frame.retries += 1;
                if frame.retries <= MAX_FRAME_RETRIES {
                    let delay = retry_backoff(frame.retries);
                    site.metrics.retry_delay_us.observe_duration(delay);
                    site.emit(TraceEvent::FrameRetried {
                        site: site.my_id(),
                        frame: id,
                        thread,
                        attempt: frame.retries,
                    });
                    site.scheduling.enqueue_delayed(site, frame, delay);
                    continue;
                }
                // Budget exhausted: the failure is persistent — the
                // frame is poison, not merely unlucky.
            }
            // Panic, application error, or exhausted retry budget:
            // quarantine. This consumes the frame cluster-wide
            // (tombstoning the backup) and reports to the program's
            // code home, where the failure policy decides.
            site.deadletter.quarantine(site, frame, e.clone());
            continue;
        }
        // The microframe is consumed by execution and vanishes (§3.2).
        site.memory.consume_frame(site, id);
        site.emit(TraceEvent::FrameExecuted {
            site: site.my_id(),
            frame: id,
            thread,
        });
    }
}
