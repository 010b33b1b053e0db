//! Lock-free metric primitives and the per-site metrics registry.
//!
//! Counters and gauges are single atomics; histograms are log2-bucketed
//! (power-of-two boundaries over microseconds) arrays of atomics, so the
//! hot paths record with a handful of relaxed atomic ops and never take a
//! lock. The only locked structure is the career-mark map, touched once
//! per career *transition* (four times per frame lifetime), not per
//! message.

use crate::trace::TraceEvent;
use parking_lot::Mutex;
use sdvm_types::{GlobalAddress, ManagerId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log2 histogram buckets: bucket `i` (for `i < LAST`) counts
/// values `v` with `v < 2^i` and `v >= 2^(i-1)` (bucket 0: `v == 0`);
/// the last bucket is the overflow (+Inf) bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that goes up and down (e.g. a queue depth).
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed latency histogram over microseconds. The observation
/// count is *derived* (the sum of the buckets) rather than stored, so
/// the hot-path record is two relaxed RMWs, not three.
pub struct Histogram {
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Bucket index for a microsecond value: 0 for 0, else
    /// `floor(log2(v)) + 1`, clamped into the overflow bucket.
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Record one observation (microseconds).
    pub fn observe(&self, micros: u64) {
        self.sum.fetch_add(micros, Ordering::Relaxed);
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one observation from a [`Duration`], converting with u64
    /// arithmetic (`Duration::as_micros` divides in u128, which is
    /// measurable on per-message paths).
    ///
    /// [`Duration`]: std::time::Duration
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs() * 1_000_000 + d.subsec_micros() as u64);
    }

    /// Point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum_us: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observed values (µs).
    pub sum_us: u64,
    /// Per-bucket counts; bucket `i > 0` holds values in
    /// `[2^(i-1), 2^i)` µs, bucket 0 holds zeros, the last bucket is
    /// the overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The upper bound (`le` label) of bucket `i`: `2^i - 1` µs written
    /// as a number, or `+Inf` for the overflow bucket.
    pub fn le_label(i: usize) -> String {
        if i + 1 == HISTOGRAM_BUCKETS {
            "+Inf".to_string()
        } else {
            format!("{}", (1u64 << i) - 1)
        }
    }

    /// Estimate the `p`-quantile (`p` in `[0, 1]`) in microseconds.
    ///
    /// The target rank `p · count` is located in the cumulative bucket
    /// counts; inside the hit bucket `[2^(i-1), 2^i)` the estimate
    /// interpolates **log-linearly** — `2^(i-1) · 2^frac` where `frac`
    /// is the rank's fractional position in the bucket — matching the
    /// bucket boundaries' own geometric spacing. Bucket 0 (zeros)
    /// yields 0; the overflow bucket yields its lower bound (there is
    /// no upper edge to interpolate toward). Returns 0 when empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).max(f64::MIN_POSITIVE);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let prev = cum as f64;
            cum += c;
            if cum as f64 >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                if i + 1 == self.buckets.len() {
                    return lo;
                }
                let frac = ((rank - prev) / c as f64).clamp(0.0, 1.0);
                return lo * frac.exp2();
            }
        }
        // Unreachable when count equals the bucket sum; be conservative.
        0.0
    }
}

/// Career timestamps of one frame still in flight (µs since the
/// registry epoch).
#[derive(Default, Clone, Copy)]
struct CareerMarks {
    created: Option<u64>,
    executable: Option<u64>,
    ready: Option<u64>,
}

/// Bound on in-flight career marks; beyond it the oldest-inserted entries
/// are not pruned individually (no ordering kept) — the map is cleared,
/// trading a window of lost career samples for bounded memory.
const CAREER_MAP_CAP: usize = 100_000;

/// Managers whose inbound dispatch time is tracked, in
/// [`Metrics::dispatch_us`] index order.
pub const DISPATCH_MANAGERS: [ManagerId; 7] = [
    ManagerId::Scheduling,
    ManagerId::Memory,
    ManagerId::Code,
    ManagerId::Cluster,
    ManagerId::Program,
    ManagerId::Io,
    ManagerId::Site,
];

/// Index of `m` in [`DISPATCH_MANAGERS`]/[`Metrics::dispatch_us`]
/// (`None` for managers without a dispatch handler).
pub fn manager_index(m: ManagerId) -> Option<usize> {
    DISPATCH_MANAGERS.iter().position(|d| *d == m)
}

/// Prometheus `TYPE` of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Value that goes up and down.
    Gauge,
    /// Log2-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The kind as a `# TYPE` line spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One scalar (unlabelled per site) family of the metric table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricFamily {
    /// Prometheus family name.
    pub name: &'static str,
    /// Prometheus `TYPE`.
    pub kind: MetricKind,
    /// `# HELP` text; also the rustdoc of the registry and snapshot
    /// fields.
    pub help: &'static str,
}

/// One scalar family's value in a [`SiteMetrics`] snapshot.
#[derive(Clone, Copy)]
pub(crate) enum Sample<'a> {
    /// A counter or gauge reading.
    Value(u64),
    /// A histogram snapshot.
    Histogram(&'a HistogramSnapshot),
}

/// A registry cell behind one table row, for tests that drive every row.
#[cfg(test)]
pub(crate) enum Cell<'a> {
    Counter(&'a Counter),
    Gauge(&'a Gauge),
    Histogram(&'a Histogram),
    /// Filled in by `SiteManager::status`, not held by the registry.
    Status,
}

/// Generates the registry, its snapshot and the scalar family list from
/// the metric table below. A row is `kind field "family" "help";`, where
/// kind is `counter`, `gauge`, `histogram`, or `status` (a `u64` that
/// `SiteManager::status` fills into the snapshot, exported as a
/// counter). A `{ field: Type = init }` item declares a registry field
/// outside the table at that position, so the registry's field order is
/// the table's order.
macro_rules! site_metrics {
    (@ty counter) => { Counter };
    (@ty gauge) => { Gauge };
    (@ty histogram) => { Histogram };
    (@snap_ty histogram) => { HistogramSnapshot };
    (@snap_ty $kind:ident) => { u64 };
    (@kind histogram) => { MetricKind::Histogram };
    (@kind gauge) => { MetricKind::Gauge };
    (@kind $kind:ident) => { MetricKind::Counter };
    (@snap status $f:expr) => { 0 };
    (@snap histogram $f:expr) => { $f.snapshot() };
    (@snap $kind:ident $f:expr) => { $f.get() };
    (@sample histogram $f:expr) => { Sample::Histogram(&$f) };
    (@sample $kind:ident $f:expr) => { Sample::Value($f) };
    (@cell counter $f:expr) => { Cell::Counter(&$f) };
    (@cell gauge $f:expr) => { Cell::Gauge(&$f) };
    (@cell histogram $f:expr) => { Cell::Histogram(&$f) };
    (@cell status $f:expr) => { Cell::Status };

    // All items consumed: emit.
    (@munch [$($decl:tt)*] [$($init:tt)*]
        [$($kind:ident $f:ident $family:literal $help:literal;)*]) => {
        /// Per-site metrics registry. One instance hangs off every
        /// `SiteInner`; event-derived metrics update through
        /// [`Metrics::observe`] (called on every trace-point, whether or
        /// not a `TraceLog` is attached), and hot paths with real timing
        /// data (seal, open, dispatch, help RTT, compile) record directly
        /// into the histograms.
        pub struct Metrics {
            $($decl)*
        }

        impl Default for Metrics {
            fn default() -> Self {
                Metrics { $($init)* }
            }
        }

        /// Every scalar per-site family in table order. `prometheus_text`
        /// emits these plus the two labelled families `sdvm_dispatch_us`
        /// (per manager) and `sdvm_mem_shard_contention` (per shard).
        pub const SCALAR_FAMILIES: &[MetricFamily] = &[$(MetricFamily {
            name: $family,
            kind: site_metrics!(@kind $kind),
            help: $help,
        },)*];

        /// A typed point-in-time snapshot of one site's metrics (the
        /// metrics half of `SiteStatus`).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct SiteMetrics {
            $(#[doc = $help] pub $f: site_metrics!(@snap_ty $kind),)*
            /// Per-manager inbound dispatch time (µs), labeled by manager
            /// name.
            pub dispatch_us: Vec<(String, HistogramSnapshot)>,
            /// Per-shard attraction-memory lock contention counts (filled
            /// in from the memory manager at snapshot time).
            pub mem_shard_contention: Vec<u64>,
        }

        impl Metrics {
            /// Typed point-in-time snapshot of every metric. `status`
            /// rows and the shard contention are left for
            /// `SiteManager::status` to fill in.
            pub fn snapshot(&self) -> SiteMetrics {
                SiteMetrics {
                    $($f: site_metrics!(@snap $kind self.$f),)*
                    dispatch_us: DISPATCH_MANAGERS
                        .iter()
                        .zip(self.dispatch_us.iter())
                        .map(|(m, h)| (format!("{m:?}"), h.snapshot()))
                        .collect(),
                    mem_shard_contention: Vec::new(),
                }
            }

            /// The registry cell of each scalar family, in
            /// [`SCALAR_FAMILIES`] order.
            #[cfg(test)]
            pub(crate) fn cells(&self) -> [Cell<'_>; SCALAR_FAMILIES.len()] {
                [$(site_metrics!(@cell $kind self.$f)),*]
            }
        }

        impl SiteMetrics {
            /// The sample of each scalar family, in [`SCALAR_FAMILIES`]
            /// order.
            pub(crate) fn samples(&self) -> [Sample<'_>; SCALAR_FAMILIES.len()] {
                [$(site_metrics!(@sample $kind self.$f)),*]
            }
        }
    };
    (@munch [$($decl:tt)*] [$($init:tt)*] [$($row:tt)*]
        status $f:ident $family:literal $help:literal; $($rest:tt)*) => {
        site_metrics!(@munch [$($decl)*] [$($init)*]
            [$($row)* status $f $family $help;] $($rest)*);
    };
    (@munch [$($decl:tt)*] [$($init:tt)*] [$($row:tt)*]
        $kind:ident $f:ident $family:literal $help:literal; $($rest:tt)*) => {
        site_metrics!(@munch
            [$($decl)* #[doc = $help] pub $f: site_metrics!(@ty $kind),]
            [$($init)* $f: Default::default(),]
            [$($row)* $kind $f $family $help;] $($rest)*);
    };
    (@munch [$($decl:tt)*] [$($init:tt)*] [$($row:tt)*]
        { $(#[$attr:meta])* $vis:vis $f:ident: $ty:ty = $val:expr } $($rest:tt)*) => {
        site_metrics!(@munch [$($decl)* $(#[$attr])* $vis $f: $ty,] [$($init)* $f: $val,]
            [$($row)*] $($rest)*);
    };
    ($($table:tt)*) => {
        site_metrics!(@munch [] [] [] $($table)*);
    };
}

site_metrics! {
    { epoch: Instant = Instant::now() }

    // ---- counters (event-derived) ----
    counter messages_sent "sdvm_messages_sent_total"
        "Messages leaving the site's message manager.";
    counter messages_received "sdvm_messages_received_total"
        "Messages dispatched on the site.";
    counter help_requests "sdvm_help_requests_total"
        "Help requests sent.";
    counter help_granted "sdvm_help_granted_total"
        "Help requests answered with a frame.";
    counter help_denied "sdvm_help_denied_total"
        "Help requests answered with can't-help.";
    counter suspicions_raised "sdvm_detector_suspicions_raised_total"
        "Failure-detector suspicions raised.";
    counter suspicions_refuted "sdvm_detector_suspicions_refuted_total"
        "Failure-detector suspicions withdrawn after fresh liveness evidence.";
    counter zombies_fenced "sdvm_detector_zombies_fenced_total"
        "Messages fenced for carrying a declared-dead incarnation.";
    counter crashes_declared "sdvm_detector_crashes_declared_total"
        "Peers declared crashed.";
    counter frames_executed "sdvm_frames_executed_total"
        "Microframes executed.";

    // ---- gauges (sampled at status time) ----
    gauge outbound_queue_depth "sdvm_outbound_queue_depth"
        "Frames waiting in the transport's outbound queues.";
    gauge net_peers_connected "sdvm_net_peers_connected"
        "Peers the transport holds a live connection to.";
    gauge net_driver_threads "sdvm_net_driver_threads"
        "Transport driver threads (pollers + listener), constant for an \
         event-driven transport however many peers connect.";
    gauge coord_error_ms "sdvm_coord_error_ms"
        "Vivaldi coordinate fit error (EWMA of absolute RTT prediction error, ms).";

    // ---- filled in by `SiteManager::status` (no registry field) ----
    status backpressure_stalls "sdvm_outbound_backpressure_stalls_total"
        "Sends that hit a full outbound queue and had to wait.";
    status bus_dropped "sdvm_bus_dropped_total"
        "Trace-bus events overwritten unread in the bounded ring; non-zero \
         means the flight recorder's last-N window is lossy.";
    status bus_tap_dropped "sdvm_bus_tap_dropped_total"
        "Trace-bus events dropped at full live-tap subscriber channels.";

    // ---- histograms (µs) ----
    histogram career_total_us "sdvm_frame_career_us"
        "Whole microframe career, created to executed (microseconds).";
    histogram career_wait_us "sdvm_frame_career_wait_us"
        "Dataflow wait, created to executable (microseconds).";
    histogram career_fetch_us "sdvm_frame_career_fetch_us"
        "Code fetch, executable to ready (microseconds).";
    histogram career_exec_us "sdvm_frame_career_exec_us"
        "Queue plus run, ready to executed (microseconds).";
    histogram seal_us "sdvm_seal_us"
        "Security-manager seal (encode + encrypt + frame) time (microseconds).";
    histogram open_us "sdvm_open_us"
        "Security-manager open (decrypt + verify) time (microseconds).";
    {
        /// Per-manager inbound dispatch (handler) time, indexed by
        /// [`manager_index`]; exported by hand as the labelled
        /// `sdvm_dispatch_us` family.
        pub dispatch_us: Vec<Histogram> =
            (0..DISPATCH_MANAGERS.len()).map(|_| Histogram::default()).collect()
    }
    histogram help_rtt_us "sdvm_help_rtt_us"
        "Help-request round trip, request sent to reply or timeout (microseconds).";
    histogram compile_us "sdvm_compile_us"
        "Simulated on-the-fly compile duration (microseconds).";
    histogram detection_latency_us "sdvm_detector_detection_latency_us"
        "Failure-detector detection latency, last-heard to declared (microseconds).";
    histogram retry_delay_us "sdvm_retry_delay_us"
        "Backoff delay applied before each frame retry (microseconds).";

    // ---- engine counters (cold: poison/repair events only) ----
    // Declared after the hot histograms so the seed's field offsets —
    // and with them the message-path cache lines — stay unchanged.
    counter frames_retried "sdvm_frames_retried_total"
        "Microframes re-enqueued with backoff after an infrastructure error.";
    counter frames_quarantined "sdvm_frames_quarantined_total"
        "Microframes moved to the dead-letter store (retry budget exhausted, \
         handler panic, or application error).";
    counter handler_panics "sdvm_handler_panics_total"
        "Handler panics caught by the execution engine.";
    counter workers_respawned "sdvm_workers_respawned_total"
        "Worker slot threads respawned by the supervisor.";
    counter programs_stuck "sdvm_programs_stuck_total"
        "Programs the watchdog declared stuck.";

    // ---- attraction-memory coherence (cold: replica protocol only) ----
    counter mem_replica_hits "sdvm_mem_replica_hits_total"
        "Non-migrating reads served from a fresh local replica.";
    counter mem_replica_misses "sdvm_mem_replica_misses_total"
        "Non-migrating reads that found no usable local copy and went remote.";
    counter mem_invalidations "sdvm_mem_invalidations_total"
        "Cached replicas dropped on an owner's invalidation (counted at the \
         holder, on actual drop).";
    histogram mem_chase_hops "sdvm_mem_chase_hops"
        "Owner hops chased per remote read/write (count, log2 buckets).";

    // ---- replicated / hedged execution (cold: coordinator only) ----
    // Incremented directly by the replication manager (like
    // `handler_panics`), not event-derived — the emitting site is
    // always the coordinator itself.
    counter replicas_dispatched "sdvm_replicas_dispatched_total"
        "Replica copies dispatched by the site's replication coordinator \
         (all rounds, vote and hedge).";
    counter result_divergence "sdvm_result_divergence_total"
        "Frames whose replicas returned divergent results (once per frame, \
         however many ballots disagree).";
    counter hedges_fired "sdvm_hedges_fired_total"
        "Hedge duplicates fired after a frame's delay elapsed unanswered.";
    counter hedge_wins "sdvm_hedge_wins_total"
        "Hedged frames settled by a fired duplicate, not the primary.";
    histogram hedge_delay_us "sdvm_hedge_delay_us"
        "Pending time of hedged frames when their duplicate fired (microseconds).";

    // ---- planned departure & online checkpoint (cold: ops only) ----
    counter drain_started "sdvm_drain_started_total"
        "Graceful drains started on the site (counted when the SiteDraining \
         gossip goes out, before any relocation work).";
    counter drain_completed "sdvm_drain_completed_total"
        "Graceful drains that ran to completion (objects relocated, duties \
         handed off, outbound queues flushed).";
    counter drain_objects_relocated "sdvm_drain_objects_relocated_total"
        "Memory objects relocated to peers during drains.";
    counter drain_frames_relocated "sdvm_drain_frames_relocated_total"
        "Waiting microframes relocated to peers during drains.";
    counter drain_dead_letters_swept "sdvm_drain_dead_letters_swept_total"
        "Dead letters swept to the successor during drains.";
    histogram drain_duration_us "sdvm_drain_duration_us"
        "Wall-clock duration of completed drains (microseconds).";
    counter checkpoint_incremental_cuts "sdvm_checkpoint_incremental_cuts_total"
        "Incremental (pause-free) checkpoint cuts taken.";
    counter checkpoint_incremental_shards_captured
        "sdvm_checkpoint_incremental_shards_captured_total"
        "Shards re-captured because dirty (or never cut) since the previous \
         incremental cut.";
    counter checkpoint_incremental_shards_reused
        "sdvm_checkpoint_incremental_shards_reused_total"
        "Shards whose cached incremental cut was reused unchanged.";
    histogram checkpoint_incremental_block_us "sdvm_checkpoint_incremental_block_us"
        "Longest single-shard lock hold per incremental cut, the worst-case \
         worker block (microseconds).";

    {
        /// In-flight career marks, keyed by frame address.
        careers: Mutex<HashMap<GlobalAddress, CareerMarks>> = Mutex::new(HashMap::new())
    }
}

impl Metrics {
    /// Fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Microseconds since this registry was created.
    pub fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Update event-derived metrics from one trace-point. Counter-only
    /// for the per-message events; career events additionally touch the
    /// career-mark map (a few times per frame lifetime).
    pub fn observe(&self, ev: &TraceEvent) {
        match ev {
            TraceEvent::MessageHop {
                manager, outgoing, ..
            } => {
                // Count the message-manager legs only: one outgoing hop
                // pair (Message + Network) is one sent message; an
                // incoming hop is one dispatched message.
                if *outgoing {
                    if *manager == ManagerId::Message {
                        self.messages_sent.inc();
                    }
                } else {
                    self.messages_received.inc();
                }
            }
            TraceEvent::FrameCreated { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                if careers.len() >= CAREER_MAP_CAP {
                    careers.clear();
                }
                careers.entry(*frame).or_default().created = Some(now);
            }
            TraceEvent::FrameExecutable { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                let marks = careers.entry(*frame).or_default();
                marks.executable = Some(now);
                if let Some(created) = marks.created {
                    self.career_wait_us.observe(now.saturating_sub(created));
                }
            }
            TraceEvent::FrameReady { frame, .. } => {
                let now = self.now_micros();
                let mut careers = self.careers.lock();
                let marks = careers.entry(*frame).or_default();
                marks.ready = Some(now);
                if let Some(executable) = marks.executable {
                    self.career_fetch_us.observe(now.saturating_sub(executable));
                }
            }
            TraceEvent::FrameExecuted { frame, .. } => {
                self.frames_executed.inc();
                let now = self.now_micros();
                let marks = self.careers.lock().remove(frame);
                if let Some(marks) = marks {
                    if let Some(ready) = marks.ready {
                        self.career_exec_us.observe(now.saturating_sub(ready));
                    }
                    if let Some(created) = marks.created {
                        self.career_total_us.observe(now.saturating_sub(created));
                    }
                }
            }
            TraceEvent::HelpRequested { .. } => self.help_requests.inc(),
            TraceEvent::HelpGranted { .. } => self.help_granted.inc(),
            TraceEvent::HelpDenied { .. } => self.help_denied.inc(),
            TraceEvent::SiteSuspected { .. } => self.suspicions_raised.inc(),
            TraceEvent::SuspicionRefuted { .. } => self.suspicions_refuted.inc(),
            TraceEvent::StaleIncarnation { .. } => self.zombies_fenced.inc(),
            TraceEvent::SiteGone { crashed: true, .. } => self.crashes_declared.inc(),
            TraceEvent::FrameRetried { .. } => self.frames_retried.inc(),
            TraceEvent::FrameQuarantined { .. } => self.frames_quarantined.inc(),
            TraceEvent::WorkerRespawned { .. } => self.workers_respawned.inc(),
            TraceEvent::ProgramStuck { .. } => self.programs_stuck.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{MicrothreadId, ProgramId, SiteId};

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(5);
        h.observe(5);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum_us, 10);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[3], 2); // 5 ∈ [4, 8)
        assert!((s.mean_us() - 10.0 / 3.0).abs() < 1e-9);
        assert_eq!(HistogramSnapshot::le_label(3), "7");
        assert_eq!(HistogramSnapshot::le_label(HISTOGRAM_BUCKETS - 1), "+Inf");
    }

    #[test]
    fn quantile_interpolates_log_linearly_in_the_hit_bucket() {
        // 100 observations per bucket across buckets 1..=10 (values
        // 2^0..2^9 land exactly on each bucket's lower edge).
        let h = Histogram::default();
        for i in 0..10u32 {
            for _ in 0..100 {
                h.observe(1u64 << i);
            }
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        // p50: rank 500 = the exact top of bucket 5 ([16, 32)), so the
        // fractional position is 1.0 and the estimate is the upper edge.
        assert!((s.quantile(0.50) - 32.0).abs() < 1e-9);
        // p99: rank 990 lands 90% into bucket 10 ([512, 1024)):
        // 512 · 2^0.9.
        let expect_p99 = 512.0 * (0.9f64).exp2();
        assert!((s.quantile(0.99) - expect_p99).abs() < 1e-6);
        // p0 degenerates to the first hit bucket's lower bound; p100 to
        // the top of the last populated bucket.
        assert!((s.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.quantile(1.0) - 1024.0).abs() < 1e-9);
        // Monotone in p.
        let mut last = 0.0;
        for k in 0..=20 {
            let q = s.quantile(k as f64 / 20.0);
            assert!(q >= last, "quantile not monotone at {k}");
            last = q;
        }
    }

    #[test]
    fn quantile_single_bucket_midpoint_is_geometric() {
        // Everything in bucket 7 ([64, 128)): the median interpolates to
        // the geometric midpoint 64·√2.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(100);
        }
        let s = h.snapshot();
        let expect = 64.0 * (0.5f64).exp2();
        assert!((s.quantile(0.5) - expect).abs() < 1e-6);
        // Estimates never leave the bucket.
        assert!(s.quantile(0.001) >= 64.0);
        assert!(s.quantile(0.999) <= 128.0);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histogram: 0 at every p.
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0.0);
        // All zeros: bucket 0 yields 0.
        let h = Histogram::default();
        for _ in 0..10 {
            h.observe(0);
        }
        assert_eq!(h.snapshot().quantile(0.99), 0.0);
        // Overflow bucket: clamps to its lower bound.
        let h = Histogram::default();
        h.observe(u64::MAX);
        let s = h.snapshot();
        let lo = (1u64 << (HISTOGRAM_BUCKETS - 2)) as f64;
        assert_eq!(s.quantile(0.5), lo);
    }

    #[test]
    fn career_latency_derived_from_events() {
        let m = Metrics::new();
        let site = SiteId(1);
        let frame = GlobalAddress::new(site, 1);
        let thread = MicrothreadId::new(ProgramId(1), 0);
        m.observe(&TraceEvent::FrameCreated {
            site,
            frame,
            thread,
            slots: 1,
        });
        m.observe(&TraceEvent::FrameExecutable { site, frame });
        m.observe(&TraceEvent::FrameReady { site, frame });
        m.observe(&TraceEvent::FrameExecuted {
            site,
            frame,
            thread,
        });
        let s = m.snapshot();
        assert_eq!(s.frames_executed, 1);
        assert_eq!(s.career_total_us.count, 1);
        assert_eq!(s.career_wait_us.count, 1);
        assert_eq!(s.career_fetch_us.count, 1);
        assert_eq!(s.career_exec_us.count, 1);
        // The frame's marks are cleaned up after execution.
        assert!(m.careers.lock().is_empty());
    }

    #[test]
    fn detector_counters_follow_events() {
        let m = Metrics::new();
        let site = SiteId(1);
        m.observe(&TraceEvent::SiteSuspected {
            site,
            suspect: SiteId(2),
        });
        m.observe(&TraceEvent::SuspicionRefuted {
            site,
            suspect: SiteId(2),
            incarnation: 2,
        });
        m.observe(&TraceEvent::StaleIncarnation {
            site,
            from: SiteId(3),
            incarnation: 1,
        });
        m.observe(&TraceEvent::SiteGone {
            site,
            gone: SiteId(3),
            crashed: true,
        });
        m.observe(&TraceEvent::SiteGone {
            site,
            gone: SiteId(4),
            crashed: false,
        });
        let s = m.snapshot();
        assert_eq!(s.suspicions_raised, 1);
        assert_eq!(s.suspicions_refuted, 1);
        assert_eq!(s.zombies_fenced, 1);
        assert_eq!(s.crashes_declared, 1);
    }
}
