//! Per-site configuration.

use sdvm_types::{IdAllocStrategy, PlatformId, QueuePolicy};
use std::time::Duration;

/// Configuration of one SDVM site (daemon).
#[derive(Clone, Debug)]
pub struct SiteConfig {
    /// Platform id of this machine (architecture + OS); drives the code
    /// manager's binary-vs-source decisions on heterogeneous clusters.
    pub platform: PlatformId,
    /// Relative CPU speed announced to the cluster (1.0 = reference).
    pub speed: f64,
    /// Number of microthreads executed in (virtual) parallel by the
    /// processing manager to hide memory/communication latency. The paper
    /// found "about 5" to work well (§4); experiment E3 sweeps this.
    pub slots: usize,
    /// Local scheduling discipline (paper: FIFO, against starvation).
    pub local_policy: QueuePolicy,
    /// Discipline used when answering help requests (paper: LIFO, for
    /// latency hiding).
    pub help_policy: QueuePolicy,
    /// Start password enabling the security manager; `None` runs the
    /// cluster unencrypted ("insular cluster", §4).
    pub password: Option<String>,
    /// Volunteer as a code distribution site (stores every microthread).
    pub code_distribution: bool,
    /// Simulated duration of compiling a microthread's source on the fly.
    pub compile_latency: Duration,
    /// How logical site ids are allocated (paper discusses three concepts).
    pub id_alloc: IdAllocStrategy,
    /// Mirror frames/objects to a backup site and recover them when a
    /// site crashes (the paper's crash management, §2.2/\[4\]).
    pub crash_tolerance: bool,
    /// Heartbeat gossip period.
    pub heartbeat_interval: Duration,
    /// Silence after which a site is declared crashed (when crash
    /// tolerance is on).
    pub crash_timeout: Duration,
    /// Silence after which a site becomes *suspected* by the two-phase
    /// (suspect → confirm) failure detector. Must be below
    /// `crash_timeout` to buy the suspect a probing window before the
    /// verdict.
    pub suspect_timeout: Duration,
    /// How long an idle worker waits for a help reply before trying the
    /// next site.
    pub help_timeout: Duration,
    /// Timeout for blocking remote operations (memory reads, code fetch).
    pub request_timeout: Duration,
    /// Quiet period after which a frontend program with an undelivered
    /// result, no runnable frames and no in-flight requests is declared
    /// stuck (watchdog; the waiter gets `SdvmError::ProgramStuck`).
    pub stuck_timeout: Duration,
    /// Lease on a cached replica: a replica older than this is ignored
    /// and re-fetched. Bounds staleness when an invalidation is lost
    /// (e.g. dropped during a network partition).
    pub replica_ttl: Duration,
    /// Bind address for the ops-plane HTTP listener serving
    /// `GET /metrics`, `/healthz` and `/status` (e.g. `"127.0.0.1:0"`
    /// to let the OS pick a port). `None` (the default) runs no
    /// listener at all — the hot path then pays nothing for the ops
    /// plane beyond the relaxed counter loads it already does.
    pub ops_addr: Option<String>,
    /// Directory where the flight recorder writes
    /// `postmortem-<site>-<seq>.json` black boxes on crash verdicts,
    /// frame quarantines, result divergence, or stuck programs.
    /// `None` (the default) disables the recorder.
    pub postmortem_dir: Option<std::path::PathBuf>,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            platform: PlatformId(0),
            speed: 1.0,
            slots: 5,
            local_policy: QueuePolicy::Fifo,
            help_policy: QueuePolicy::Lifo,
            password: None,
            code_distribution: false,
            compile_latency: Duration::from_millis(20),
            id_alloc: IdAllocStrategy::CentralServer,
            crash_tolerance: false,
            heartbeat_interval: Duration::from_millis(100),
            crash_timeout: Duration::from_millis(600),
            suspect_timeout: Duration::from_millis(300),
            help_timeout: Duration::from_millis(100),
            request_timeout: Duration::from_secs(5),
            stuck_timeout: Duration::from_secs(30),
            replica_ttl: Duration::from_secs(2),
            ops_addr: None,
            postmortem_dir: None,
        }
    }
}

impl SiteConfig {
    /// Shorthand: default config with crash tolerance enabled.
    pub fn with_crash_tolerance(mut self) -> Self {
        self.crash_tolerance = true;
        self
    }

    /// Shorthand: default config with the given start password.
    pub fn with_password(mut self, pw: &str) -> Self {
        self.password = Some(pw.to_string());
        self
    }

    /// Shorthand: set the stuck-program watchdog timeout.
    pub fn with_stuck_timeout(mut self, t: Duration) -> Self {
        self.stuck_timeout = t;
        self
    }

    /// Shorthand: set the replica staleness lease.
    pub fn with_replica_ttl(mut self, t: Duration) -> Self {
        self.replica_ttl = t;
        self
    }

    /// Shorthand: serve the ops-plane HTTP endpoints on `addr`
    /// (`"127.0.0.1:0"` picks a free port; query it via
    /// [`crate::site::Site::ops_addr`] after start).
    pub fn with_ops_addr(mut self, addr: &str) -> Self {
        self.ops_addr = Some(addr.to_string());
        self
    }

    /// Shorthand: enable the flight recorder, writing postmortem black
    /// boxes into `dir`.
    pub fn with_postmortem_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.postmortem_dir = Some(dir.into());
        self
    }
}

/// How often a microframe that failed on an *infrastructure* error
/// (transport, timeout, missing object) is re-tried before it is
/// escalated to the dead-letter store as poison.
pub const MAX_FRAME_RETRIES: u32 = 5;

/// Backoff before the first retry; doubles per attempt up to
/// [`RETRY_BACKOFF_CAP`].
const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(10);

/// Upper bound on the per-retry backoff.
const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(500);

/// Backoff before retry attempt `n` (1-based): `base · 2^(n-1)`,
/// capped. Deterministic — no jitter — so drills can assert the exact
/// delay schedule.
pub fn retry_backoff(attempt: u32) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    RETRY_BACKOFF_BASE
        .saturating_mul(factor)
        .min(RETRY_BACKOFF_CAP)
}

/// True when `SDVM_DEBUG` was set in the environment at first use —
/// consulted once and cached, never re-read (the env lookup used to sit
/// on every failed execution).
pub fn debug_enabled() -> bool {
    static DEBUG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("SDVM_DEBUG").is_some())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SiteConfig::default();
        assert_eq!(c.slots, 5, "paper: about 5 virtual-parallel microthreads");
        assert_eq!(c.local_policy, QueuePolicy::Fifo);
        assert_eq!(c.help_policy, QueuePolicy::Lifo);
        assert!(
            c.password.is_none(),
            "security off by default on insular clusters"
        );
    }

    #[test]
    fn retry_backoff_schedule_is_deterministic_and_capped() {
        let schedule: Vec<u64> = (1..=8)
            .map(|n| retry_backoff(n).as_millis() as u64)
            .collect();
        assert_eq!(schedule, [10, 20, 40, 80, 160, 320, 500, 500], "capped");
        // Huge attempt numbers don't overflow.
        assert_eq!(retry_backoff(1000), RETRY_BACKOFF_CAP);
    }

    #[test]
    fn builders() {
        let c = SiteConfig::default()
            .with_crash_tolerance()
            .with_password("pw");
        assert!(c.crash_tolerance);
        assert_eq!(c.password.as_deref(), Some("pw"));
        assert!(
            c.suspect_timeout < c.crash_timeout,
            "suspicion must precede the verdict"
        );
    }
}
