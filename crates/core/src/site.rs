//! One SDVM site: the daemon run on every participating machine.
//!
//! A [`Site`] owns the manager stack of Fig. 3 plus the background
//! threads: a *router* (receives, decrypts and dispatches SDMessages), a
//! set of *processing workers* (the processing manager's virtual-parallel
//! microthread slots), one *helper* (blocking work the router must not do
//! itself, e.g. forwarding results whose owner has to be looked up
//! remotely), and a *maintenance* thread (heartbeats, crash detection).

use crate::config::SiteConfig;
use crate::managers::backup::BackupManager;
use crate::managers::cluster::ClusterManager;
use crate::managers::code::CodeManager;
use crate::managers::deadletter::DeadLetterManager;
use crate::managers::io::IoManager;
use crate::managers::memory::MemoryManager;
use crate::managers::processing;
use crate::managers::program::ProgramManager;
use crate::managers::replication::ReplicationManager;
use crate::managers::scheduling::SchedulingManager;
use crate::managers::security::SecurityManager;
use crate::managers::site_mgr::SiteManager;
use crate::pending::PendingMap;
use crate::telemetry::{manager_index, Metrics};
use crate::thread::AppRegistry;
use crate::trace::{Category, TraceEvent, TraceLog};
use parking_lot::RwLock;
use sdvm_net::Transport;
use sdvm_types::{ManagerId, PhysicalAddr, SdvmError, SdvmResult, SiteDescriptor, SiteId};
use sdvm_wire::{Payload, SdMessage, TraceContext};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Work the router hands to the helper thread because it might block.
pub(crate) enum Task {
    /// Forward a result to a frame whose owner must be resolved remotely.
    ForwardApply {
        /// Destination frame.
        target: sdvm_types::GlobalAddress,
        /// Slot to fill.
        slot: u32,
        /// The result value.
        value: sdvm_types::Value,
        /// Remaining forwarding attempts (migration chases).
        ttl: u8,
    },
    /// Handle a sign-on that needs a remote id allocation.
    SignOn {
        /// The original request (to reply to).
        msg: SdMessage,
        /// Where the joiner can be reached before it has an id.
        reply_addr: PhysicalAddr,
    },
    /// Revive backed-up state of a crashed site.
    Recover {
        /// The dead site.
        dead: SiteId,
    },
    /// Run a closure (used by managers for one-off background sends).
    Run(Box<dyn FnOnce(&SiteInner) + Send>),
}

/// Shared state of one site; all managers and threads hang off this.
pub struct SiteInner {
    /// Static configuration.
    pub config: SiteConfig,
    id: RwLock<SiteId>,
    /// The transport (network manager's lower half).
    pub transport: Arc<dyn Transport>,
    /// Program code registry (see [`crate::thread`]).
    pub registry: Arc<AppRegistry>,
    /// Optional event trace.
    pub trace: Option<TraceLog>,
    /// Always-on per-site metrics registry (counters, gauges, latency
    /// histograms); snapshotable via the site manager's status.
    pub metrics: Metrics,
    /// Cluster-wide metrics rollup: latest digest per peer, fed by the
    /// `MetricsSummary` payloads piggybacking on heartbeats (wire v7).
    pub rollup: crate::telemetry::ClusterRollup,
    /// Crash-triggered flight recorder; `None` (the default) unless
    /// [`SiteConfig::postmortem_dir`] is set.
    pub recorder: Option<crate::telemetry::FlightRecorder>,
    /// Where the ops-plane HTTP listener actually bound (resolves
    /// `"127.0.0.1:0"`); `None` when no listener runs.
    ops_bound: parking_lot::Mutex<Option<std::net::SocketAddr>>,
    /// Outstanding request correlation.
    pub pending: PendingMap,
    seq: AtomicU64,
    running: AtomicBool,
    draining: AtomicBool,
    /// This site's incarnation: 1 from birth, bumped (monotonically) when
    /// refuting a false death declaration. Stamped into every outgoing
    /// message so receivers can fence zombies.
    incarnation: AtomicU64,
    /// Freeze flag for the chaos harness (GC-pause emulation): while set,
    /// every site thread parks at its loop top, so the site goes silent
    /// without dying — exactly what a long GC pause looks like from
    /// outside.
    paused: AtomicBool,
    /// Whether the transport seals at writer-drain time (a
    /// [`crate::managers::security::WriterSealer`] is installed): peer
    /// traffic then skips seal-at-send and hands the transport plaintext
    /// records, which the writer coalesces into batch-sealed frames.
    drain_seal: AtomicBool,

    /// Attraction memory (execution layer).
    pub memory: MemoryManager,
    /// Scheduling manager (execution layer).
    pub scheduling: SchedulingManager,
    /// Code manager (execution layer).
    pub code: CodeManager,
    /// I/O manager (execution layer).
    pub io: IoManager,
    /// Cluster manager (maintenance layer).
    pub cluster: ClusterManager,
    /// Program manager (maintenance layer).
    pub program: ProgramManager,
    /// Site manager (maintenance layer).
    pub site_mgr: SiteManager,
    /// Security manager (between message and network managers).
    pub security: SecurityManager,
    /// Crash-management backup store.
    pub backup: BackupManager,
    /// Dead-letter store: quarantined poison frames.
    pub deadletter: DeadLetterManager,
    /// Replicated/hedged execution: escrow ledger and ballot voting.
    pub replication: ReplicationManager,
    /// Chaos harness: silent result corruption armed on this site
    /// (`(nth, bit, seen)` — the `nth` outgoing result send gets `bit`
    /// flipped). Deterministic and seed-free: the count is the trigger.
    corrupt_plan: parking_lot::Mutex<Option<(u32, u8, u32)>>,

    /// Pending deterministic worker-exit requests (chaos harness): each
    /// unit makes exactly one worker slot leave its loop, exercising the
    /// supervisor's respawn path.
    worker_exit: AtomicU32,
    /// The processing slot threads, supervised by the maintenance
    /// thread: a slot that died (despite panic isolation) is respawned.
    worker_slots: parking_lot::Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,

    tasks_tx: crossbeam::channel::Sender<Task>,
    tasks_rx: crossbeam::channel::Receiver<Task>,
    recovery_tx: crossbeam::channel::Sender<Task>,
    recovery_rx: crossbeam::channel::Receiver<Task>,
}

impl SiteInner {
    /// This site's logical id (`SiteId::NONE` before sign-on).
    pub fn my_id(&self) -> SiteId {
        *self.id.read()
    }

    pub(crate) fn set_id(&self, id: SiteId) {
        *self.id.write() = id;
        self.security.rekey(id);
    }

    /// Fresh message sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// True until shutdown/sign-off.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// True while the site is giving away its work to leave the cluster.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flip the draining flag (the ops plane's `POST /drain` and the
    /// abort path of a failed drain).
    pub(crate) fn set_draining(&self, on: bool) {
        self.draining.store(on, Ordering::SeqCst);
    }

    /// Stop the site from one of its *own* threads (the ops-plane
    /// `POST /drain` finishes this way): flags shutdown and wakes
    /// everything but joins nothing — a site thread cannot join itself.
    /// The owning [`Site`](crate::site::Site) handle joins the exited
    /// threads on `stop`/drop as usual.
    pub(crate) fn soft_stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.scheduling.wake_all();
        self.transport.shutdown();
    }

    /// This site's current incarnation number.
    pub fn my_incarnation(&self) -> u64 {
        self.incarnation.load(Ordering::SeqCst)
    }

    /// Raise the incarnation to at least `at_least` (never lowers it).
    /// Returns the incarnation now in effect.
    pub fn bump_incarnation_to(&self, at_least: u64) -> u64 {
        self.incarnation.fetch_max(at_least, Ordering::SeqCst);
        self.incarnation.load(Ordering::SeqCst)
    }

    /// Consume one pending worker-exit request, if any. Checked by
    /// `next_work` so an idle or between-frames worker notices within
    /// its 20 ms wakeup and exits its loop deterministically.
    pub(crate) fn take_worker_exit(&self) -> bool {
        self.worker_exit
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Ask one worker slot to exit its loop (chaos/testing). The
    /// maintenance thread's supervisor respawns the slot on its next
    /// tick, so this exercises the full die-and-respawn path.
    pub fn kill_worker(&self) {
        self.worker_exit.fetch_add(1, Ordering::SeqCst);
        self.scheduling.wake_all();
    }

    /// True while the chaos harness holds this site frozen.
    pub fn is_paused(&self) -> bool {
        self.paused.load(Ordering::SeqCst)
    }

    pub(crate) fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::SeqCst);
    }

    /// Park the calling site thread while the site is paused. Called at
    /// the top of every site loop so a pause freezes the whole daemon.
    pub(crate) fn pause_gate(&self) {
        while self.is_paused() && self.is_running() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Record a trace-point: updates the event-derived metrics, hands
    /// the event to the trace bus if one is attached, and — when the
    /// flight recorder is armed — checks it against the black-box
    /// triggers. All four trigger events (crash verdicts, frame
    /// quarantines, result divergence, stuck programs) flow through
    /// this plain `emit`, never the batched hot-path variants, so this
    /// is the single chokepoint; without a recorder the extra cost is
    /// one `Option` branch.
    pub fn emit(&self, ev: TraceEvent) {
        self.metrics.observe(&ev);
        if self.recorder.is_some() {
            self.maybe_flight_record(&ev);
        }
        if let Some(t) = &self.trace {
            t.emit(ev);
        }
    }

    /// Flight-recorder trigger check: classify the event and, if it is
    /// an incident and a dump slot is free (rate limit + file cap),
    /// defer the actual dump to a helper thread. The emitting thread —
    /// which may hold manager locks — never touches the filesystem or
    /// takes status snapshots itself.
    fn maybe_flight_record(&self, ev: &TraceEvent) {
        let Some(rec) = &self.recorder else { return };
        let Some((trigger, detail)) = crate::telemetry::postmortem::trigger_of(ev) else {
            return;
        };
        if !rec.try_claim() {
            return;
        }
        self.spawn_task(Task::Run(Box::new(move |site: &SiteInner| {
            if let Some(r) = &site.recorder {
                if let Some(path) = r.record(site, trigger, &detail) {
                    site.emit(TraceEvent::PostmortemWritten {
                        site: site.my_id(),
                        trigger,
                        path: std::sync::Arc::new(path.display().to_string()),
                    });
                }
            }
        })));
    }

    /// Number of processing-slot threads currently alive.
    pub fn live_workers(&self) -> usize {
        self.worker_slots
            .lock()
            .iter()
            .filter(|h| h.as_ref().map(|h| !h.is_finished()).unwrap_or(false))
            .count()
    }

    /// The socket address the ops-plane HTTP listener bound, once it
    /// is up (`None` when `ops_addr` is unset or binding failed).
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        *self.ops_bound.lock()
    }

    pub(crate) fn set_ops_bound(&self, addr: std::net::SocketAddr) {
        *self.ops_bound.lock() = Some(addr);
    }

    /// [`SiteInner::emit`] with a caller-supplied clock read, for hot
    /// paths that already timed their work (seal/open): sharing the
    /// `Instant` keeps telemetry to one clock read per event.
    pub fn emit_at(&self, ev: TraceEvent, now: std::time::Instant) {
        self.metrics.observe(&ev);
        if let Some(t) = &self.trace {
            t.emit_at(ev, now);
        }
    }

    /// True when a trace bus is attached *and* its filter keeps `cat`
    /// events. Hot paths check this before reading clocks or building
    /// events the bus would discard anyway — with no bus (the
    /// production default) the cost is one branch.
    pub fn trace_wants(&self, cat: Category) -> bool {
        self.trace.as_ref().is_some_and(|t| t.wants(cat))
    }

    /// Record two trace-points with caller-supplied clock reads, pushed
    /// to the bus under a single ring-lock acquisition (the outbound
    /// message path emits exactly two hops per message).
    pub fn emit_pair_at(
        &self,
        ev0: TraceEvent,
        t0: std::time::Instant,
        ev1: TraceEvent,
        t1: std::time::Instant,
    ) {
        self.metrics.observe(&ev0);
        self.metrics.observe(&ev1);
        if let Some(t) = &self.trace {
            t.emit_pair_at(ev0, t0, ev1, t1);
        }
    }

    /// Queue background work for the helper threads. Crash recovery gets
    /// its own lane: it must not wait behind result forwards that may be
    /// blocked on (dead-site) request timeouts.
    pub(crate) fn spawn_task(&self, task: Task) {
        match task {
            Task::Recover { .. } => {
                let _ = self.recovery_tx.send(task);
            }
            other => {
                let _ = self.tasks_tx.send(other);
            }
        }
    }

    /// Arm deterministic result corruption (chaos harness): the `nth`
    /// outgoing result send from this site gets `bit` flipped. Models
    /// silent data corruption — the site keeps heartbeating and the
    /// wire-level MACs still pass, because the value was corrupted
    /// *before* it was sealed.
    pub fn arm_corrupt_results(&self, nth: u32, bit: u8) {
        *self.corrupt_plan.lock() = Some((nth, bit, 0));
    }

    /// Chaos hook on the result-send path: count this send and flip the
    /// armed bit when the trigger count is reached. A no-op unless
    /// [`SiteInner::arm_corrupt_results`] armed this site.
    pub(crate) fn maybe_corrupt_result(&self, value: sdvm_types::Value) -> sdvm_types::Value {
        let mut plan = self.corrupt_plan.lock();
        let Some((nth, bit, seen)) = plan.as_mut() else {
            return value;
        };
        *seen += 1;
        if *seen != *nth {
            return value;
        }
        let mut bytes = value.bytes().to_vec();
        if bytes.is_empty() {
            bytes.push(0);
        }
        let idx = (*bit as usize / 8) % bytes.len();
        bytes[idx] ^= 1 << (*bit % 8);
        sdvm_types::Value::from_bytes(bytes)
    }

    // ---- the message manager (paper §4, Fig. 6) ----

    /// Send a payload to a manager on another (or this) site. Returns the
    /// sequence number used, so callers may have registered a waiter.
    pub fn send_payload(
        &self,
        dst_site: SiteId,
        dst_manager: ManagerId,
        src_manager: ManagerId,
        seq: u64,
        payload: Payload,
    ) -> SdvmResult<()> {
        self.send_payload_traced(
            dst_site,
            dst_manager,
            src_manager,
            seq,
            payload,
            TraceContext::NONE,
        )
    }

    /// [`SiteInner::send_payload`] with an explicit causal trace context
    /// stamped onto the message (wire v3), so telemetry on the receiving
    /// site can stitch the message to the operation it belongs to.
    pub fn send_payload_traced(
        &self,
        dst_site: SiteId,
        dst_manager: ManagerId,
        src_manager: ManagerId,
        seq: u64,
        payload: Payload,
        trace: TraceContext,
    ) -> SdvmResult<()> {
        let mut msg = SdMessage::new(
            self.my_id(),
            src_manager,
            dst_site,
            dst_manager,
            seq,
            payload,
        );
        msg.trace = trace;
        self.send_msg(msg)
    }

    /// Send a fully built message: loopback locally or resolve the
    /// logical id to a physical address (via the cluster manager), seal
    /// (security manager) and hand to the network manager.
    pub fn send_msg(&self, mut msg: SdMessage) -> SdvmResult<()> {
        if msg.dst_site == self.my_id() {
            msg.src_incarnation = self.my_incarnation();
            self.dispatch(msg);
            return Ok(());
        }
        let addr = self
            .cluster
            .addr_of(msg.dst_site)
            .ok_or(SdvmError::UnknownSite(msg.dst_site))?;
        self.send_msg_to_addr(&addr, msg)
    }

    /// Send to an explicit physical address (used during sign-on, before
    /// the peer's logical id is known).
    pub fn send_msg_to_addr(&self, addr: &PhysicalAddr, mut msg: SdMessage) -> SdvmResult<()> {
        // A paused (frozen) site emits nothing: threads parked deep in
        // blocking loops (idle workers begging for help, waiters) would
        // otherwise keep leaking liveness proof to the cluster. Gating
        // the one outbound choke point makes the freeze airtight.
        self.pause_gate();
        msg.src_incarnation = self.my_incarnation();
        // Drain-time sealing: for established peer traffic, hand the
        // transport the serialized message and let its writer thread
        // seal — coalescing bursts into batch-sealed records. Join
        // traffic (either id still unknown) keeps the per-frame path,
        // as does everything when the transport declined the sealer.
        if self.drain_seal.load(Ordering::Relaxed)
            && msg.dst_site.is_valid()
            && self.my_id().is_valid()
        {
            let hop = |manager| TraceEvent::MessageHop {
                site: self.my_id(),
                manager,
                payload: msg.payload.name(),
                outgoing: true,
                trace: msg.trace.id,
            };
            // Seal timing lives at the writer's drain now (one
            // histogram sample per batch), so per message the only
            // unconditional telemetry is the two hop counters; clock
            // reads happen just when a trace consumer wants the stamps.
            if self.trace_wants(Category::Hops) {
                let t0 = std::time::Instant::now();
                let body = self.security.encode_plain(&msg);
                let t1 = std::time::Instant::now();
                self.emit_pair_at(hop(ManagerId::Message), t0, hop(ManagerId::Network), t1);
                return self.transport.send_plain(addr, msg.dst_site.0, body);
            }
            let body = self.security.encode_plain(&msg);
            self.metrics.observe(&hop(ManagerId::Message));
            self.metrics.observe(&hop(ManagerId::Network));
            return self.transport.send_plain(addr, msg.dst_site.0, body);
        }
        // Two clock reads serve four consumers: `t0` stamps the
        // message-manager hop and starts the seal timer, `t1` stops it
        // and stamps the network-manager hop.
        let t0 = std::time::Instant::now();
        // Encode + seal + frame in one buffer (the zero-copy send path).
        let frame = self.security.seal_frame(self, msg.dst_site, &msg)?;
        let t1 = std::time::Instant::now();
        self.metrics
            .seal_us
            .observe_duration(t1.saturating_duration_since(t0));
        self.emit_pair_at(
            TraceEvent::MessageHop {
                site: self.my_id(),
                manager: ManagerId::Message,
                payload: msg.payload.name(),
                outgoing: true,
                trace: msg.trace.id,
            },
            t0,
            TraceEvent::MessageHop {
                site: self.my_id(),
                manager: ManagerId::Network,
                payload: msg.payload.name(),
                outgoing: true,
                trace: msg.trace.id,
            },
            t1,
        );
        self.transport.send(addr, frame)
    }

    /// Blocking request/response with timeout.
    pub fn request(
        &self,
        dst_site: SiteId,
        dst_manager: ManagerId,
        src_manager: ManagerId,
        payload: Payload,
        timeout: Duration,
    ) -> SdvmResult<SdMessage> {
        let seq = self.next_seq();
        let rx = self.pending.register(seq);
        if let Err(e) = self.send_payload(dst_site, dst_manager, src_manager, seq, payload) {
            self.pending.cancel(seq);
            return Err(e);
        }
        self.pending.await_reply(seq, &rx, timeout)
    }

    /// Request sent to an explicit address (sign-on).
    pub fn request_addr(
        &self,
        addr: &PhysicalAddr,
        dst_manager: ManagerId,
        src_manager: ManagerId,
        payload: Payload,
        timeout: Duration,
    ) -> SdvmResult<SdMessage> {
        let seq = self.next_seq();
        let rx = self.pending.register(seq);
        let msg = SdMessage::new(
            self.my_id(),
            src_manager,
            SiteId::NONE,
            dst_manager,
            seq,
            payload,
        );
        if let Err(e) = self.send_msg_to_addr(addr, msg) {
            self.pending.cancel(seq);
            return Err(e);
        }
        self.pending.await_reply(seq, &rx, timeout)
    }

    /// Reply to a received message.
    pub fn reply_to(&self, orig: &SdMessage, src_manager: ManagerId, payload: Payload) {
        let reply = orig.reply(self.next_seq(), src_manager, payload);
        // Replying to a joining site (id NONE) needs its physical address,
        // which the cluster manager records during sign-on.
        let _ = self.send_msg(reply);
    }

    /// Route an incoming (already decrypted/decoded) message to its
    /// target manager. Replies wake their waiters instead.
    pub fn dispatch(&self, msg: SdMessage) {
        self.emit(TraceEvent::MessageHop {
            site: self.my_id(),
            manager: msg.dst_manager,
            payload: msg.payload.name(),
            outgoing: false,
            trace: msg.trace.id,
        });
        // Zombie fencing + liveness bookkeeping: messages from declared-
        // dead incarnations are dropped here, before any manager (or
        // pending waiter) can act on them.
        if msg.src_site.is_valid()
            && msg.src_site != self.my_id()
            && !self
                .cluster
                .observe_inbound(self, msg.src_site, msg.src_incarnation)
        {
            return;
        }
        if let Some(r) = msg.in_reply_to {
            if self.pending.complete(r, msg.clone()) {
                return;
            }
            // Unclaimed replies can still carry state that must not be
            // lost: a HelpReply's microframe, or a migrating MemValue's
            // object (its owner already gave it up). Fall through to the
            // manager so the state is adopted instead of dropped.
            match &msg.payload {
                Payload::HelpReply { .. } => {}
                Payload::MemValue { migrated: true, .. } => {}
                _ => return,
            }
        }
        let handler = manager_index(msg.dst_manager);
        let handle_started = std::time::Instant::now();
        match msg.dst_manager {
            ManagerId::Scheduling => self.scheduling.handle(self, msg),
            ManagerId::Memory => self.memory.handle(self, msg),
            ManagerId::Code => self.code.handle(self, msg),
            ManagerId::Cluster => self.cluster.handle(self, msg),
            ManagerId::Program => self.program.handle(self, msg),
            ManagerId::Io => self.io.handle(self, msg),
            ManagerId::Site => self.site_mgr.handle(self, msg),
            other => {
                self.emit(TraceEvent::MessageHop {
                    site: self.my_id(),
                    manager: other,
                    payload: "undeliverable",
                    outgoing: false,
                    trace: 0,
                });
            }
        }
        if let Some(idx) = handler {
            self.metrics.dispatch_us[idx].observe_duration(handle_started.elapsed());
        }
    }
}

/// A running SDVM site.
pub struct Site {
    inner: Arc<SiteInner>,
    threads: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Site {
    /// Build a site on the given transport. The site is inert until
    /// [`Site::start_first`] or [`Site::sign_on`] is called.
    pub fn new(
        config: SiteConfig,
        transport: Arc<dyn Transport>,
        registry: Arc<AppRegistry>,
        trace: Option<TraceLog>,
    ) -> Self {
        assert!(
            config.slots >= 1,
            "a site needs at least one processing slot (the paper suggests ~5)"
        );
        let (tasks_tx, tasks_rx) = crossbeam::channel::unbounded();
        let (recovery_tx, recovery_rx) = crossbeam::channel::unbounded();
        let security = SecurityManager::new(&config);
        let inner = Arc::new(SiteInner {
            scheduling: SchedulingManager::new(&config),
            memory: MemoryManager::new(),
            code: CodeManager::new(&config),
            io: IoManager::new(),
            cluster: ClusterManager::new(&config),
            program: ProgramManager::new(),
            site_mgr: SiteManager::new(),
            security,
            backup: BackupManager::new(),
            deadletter: DeadLetterManager::new(),
            replication: ReplicationManager::new(),
            corrupt_plan: parking_lot::Mutex::new(None),
            worker_exit: AtomicU32::new(0),
            worker_slots: parking_lot::Mutex::new(Vec::new()),
            recorder: config
                .postmortem_dir
                .clone()
                .map(crate::telemetry::FlightRecorder::new),
            config,
            id: RwLock::new(SiteId::NONE),
            transport,
            registry,
            trace,
            metrics: Metrics::new(),
            rollup: crate::telemetry::ClusterRollup::new(),
            ops_bound: parking_lot::Mutex::new(None),
            pending: PendingMap::new(),
            seq: AtomicU64::new(1),
            running: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            incarnation: AtomicU64::new(1),
            paused: AtomicBool::new(false),
            drain_seal: AtomicBool::new(false),
            tasks_tx,
            tasks_rx,
            recovery_tx,
            recovery_rx,
        });
        // With encryption on, move sealing onto the transport's writer
        // threads so coalesced bursts are sealed as single batch records
        // (transports without a writer stage decline and the per-frame
        // seal-at-send path stays in effect).
        if inner.security.enabled() {
            let sealer = crate::managers::security::WriterSealer::new(&inner);
            inner.drain_seal.store(
                inner.transport.install_drain_sealer(sealer),
                Ordering::SeqCst,
            );
        }
        Site {
            inner,
            threads: parking_lot::Mutex::new(Vec::new()),
        }
    }

    /// Access to the shared state (managers, message sending).
    pub fn inner(&self) -> &Arc<SiteInner> {
        &self.inner
    }

    /// This site's logical id.
    pub fn id(&self) -> SiteId {
        self.inner.my_id()
    }

    /// This site's physical address (give it to joining sites).
    pub fn addr(&self) -> PhysicalAddr {
        self.inner.transport.local_addr()
    }

    /// Start as the *first* site of a new cluster: takes `SiteId::FIRST`,
    /// becomes the initial id server and a code distribution site.
    pub fn start_first(&self) {
        self.inner.set_id(SiteId::FIRST);
        self.inner.cluster.init_first(&self.inner);
        self.spawn_threads();
    }

    /// Join an existing cluster through a site at `contact`. Blocks until
    /// the sign-on handshake completes.
    pub fn sign_on(&self, contact: &PhysicalAddr) -> SdvmResult<()> {
        // The router must run to receive the SignOnAck.
        self.spawn_threads();
        self.inner.cluster.sign_on(&self.inner, contact)
    }

    /// Graceful drain: announce `Draining` cluster-wide (peers stop
    /// granting this site help, stop targeting it as a backup buddy and
    /// drop it from code distribution), quiesce local execution, sweep
    /// dead letters and code-source duty to the successor, relocate all
    /// owned frames, objects and the homesite directory, flush the
    /// outbound queues, then announce departure and stop.
    ///
    /// On failure the site re-adopts its work and re-announces its
    /// descriptor (withdrawing the `Draining` state on peers), so a
    /// failed drain leaves a fully working member.
    pub fn drain(&self) -> SdvmResult<()> {
        self.inner.draining.store(true, Ordering::SeqCst);
        let res = self.inner.cluster.sign_off(&self.inner);
        if res.is_err() {
            // Drain aborted: resume normal duty.
            self.inner.draining.store(false, Ordering::SeqCst);
            return res;
        }
        self.stop();
        res
    }

    /// Orderly sign-off: [`Site::drain`] under its historical name.
    pub fn sign_off(&self) -> SdvmResult<()> {
        self.drain()
    }

    /// Abrupt stop, *without* relocation — simulates a crash (tests and
    /// the crash-recovery experiments).
    pub fn crash(&self) {
        self.stop();
    }

    /// Freeze the whole site (GC-pause emulation, chaos harness): every
    /// site thread parks, the site goes silent but does not die. From
    /// the cluster's perspective this is indistinguishable from a crash
    /// — which is exactly what the suspicion machinery must cope with.
    pub fn pause(&self) {
        self.inner.set_paused(true);
    }

    /// Chaos hook: arm silent result corruption on this site — the
    /// `nth` outgoing result send has `bit` flipped in its value (see
    /// [`crate::ChaosAction::CorruptResult`]).
    pub fn corrupt_results(&self, nth: u32, bit: u8) {
        self.inner.arm_corrupt_results(nth, bit);
    }

    /// Unfreeze after [`Site::pause`]. Liveness clocks for every known
    /// peer are reset *before* the threads wake, so the freshly resumed
    /// site doesn't instantly declare the whole (silent-to-it) cluster
    /// dead out of its own stale timestamps.
    pub fn resume(&self) {
        self.inner.cluster.refresh_liveness();
        self.inner.set_paused(false);
    }

    fn stop(&self) {
        self.inner.running.store(false, Ordering::SeqCst);
        self.inner.scheduling.wake_all();
        self.inner.transport.shutdown();
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let workers: Vec<_> = self.inner.worker_slots.lock().drain(..).collect();
        for h in workers.into_iter().flatten() {
            let _ = h.join();
        }
    }

    fn spawn_threads(&self) {
        if self.inner.running.swap(true, Ordering::SeqCst) {
            return; // already running
        }
        let mut threads = self.threads.lock();

        // Router: network manager's upper half + message manager receive.
        {
            let inner = self.inner.clone();
            let rx = inner.transport.incoming();
            let name = format!("sdvm-router-{}", inner.my_id());
            threads.extend(spawn_named(name, move || {
                while inner.is_running() {
                    inner.pause_gate();
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(raw) => {
                            let open_started = std::time::Instant::now();
                            let opened = inner.security.open_traffic(raw);
                            inner
                                .metrics
                                .open_us
                                .observe_duration(open_started.elapsed());
                            let Ok(opened) = opened else {
                                continue; // forged/corrupt: drop
                            };
                            for rec in opened.records() {
                                let Ok(rec) = rec else {
                                    break; // malformed batch interior: drop rest
                                };
                                let Ok(msg) = SdMessage::from_bytes(rec) else {
                                    continue; // undecodable record: drop
                                };
                                inner.dispatch(msg);
                            }
                        }
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(_) => break,
                    }
                }
            }));
        }

        // Helpers: blocking background tasks (two, so one dead-site
        // timeout does not stall all forwarding), plus a dedicated
        // recovery lane.
        for (n, rx) in [
            (0, self.inner.tasks_rx.clone()),
            (1, self.inner.tasks_rx.clone()),
            (2, self.inner.recovery_rx.clone()),
        ] {
            let inner = self.inner.clone();
            let name = format!("sdvm-helper-{}-{}", inner.my_id(), n);
            threads.extend(spawn_named(name, move || {
                while inner.is_running() {
                    inner.pause_gate();
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(task) => crate::managers::run_task(&inner, task),
                        Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                        Err(_) => break,
                    }
                }
            }));
        }

        // Processing manager: `slots` microthreads in (virtual)
        // parallel, tracked per slot so the supervisor can respawn one
        // that died.
        *self.inner.worker_slots.lock() = (0..self.inner.config.slots)
            .map(|slot| spawn_worker(self.inner.clone(), slot))
            .collect();

        // Ops plane: the HTTP introspection listener, when configured.
        // Bound synchronously (inside start/sign-on), so callers can
        // resolve a `"127.0.0.1:0"` bind right after start.
        threads.extend(crate::telemetry::http::spawn_ops_listener(&self.inner));

        // Maintenance: heartbeats, crash detection, worker supervision,
        // stuck-program watchdog.
        {
            let inner = self.inner.clone();
            let name = format!("sdvm-maint-{}", inner.my_id());
            threads.extend(spawn_named(name, move || {
                while inner.is_running() {
                    std::thread::sleep(inner.config.heartbeat_interval);
                    inner.pause_gate();
                    if !inner.is_running() {
                        break;
                    }
                    inner.cluster.heartbeat_tick(&inner);
                    supervise_workers(&inner);
                    inner.program.watchdog_tick(&inner);
                    inner.replication.tick(&inner);
                }
            }));
        }
    }

    /// Ask one worker slot to exit (the supervisor respawns it).
    pub fn kill_worker(&self) {
        self.inner.kill_worker();
    }

    /// Number of worker slot threads currently alive.
    pub fn live_workers(&self) -> usize {
        self.inner.live_workers()
    }

    /// The address the ops-plane HTTP listener bound (`None` when
    /// `ops_addr` is unset or the bind failed).
    pub fn ops_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.ops_addr()
    }

    /// The descriptor this site announces about itself.
    pub fn descriptor(&self) -> SiteDescriptor {
        SiteDescriptor {
            site: self.id(),
            addr: self.addr(),
            platform: self.inner.config.platform,
            speed: self.inner.config.speed,
            code_distribution: self.inner.config.code_distribution,
            incarnation: self.inner.my_incarnation(),
        }
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        if self.inner.is_running() {
            self.stop();
        }
    }
}

/// Spawn a named thread; a spawn failure (fd/thread exhaustion) is
/// reported, not fatal — the caller gets `None` and the site runs
/// degraded rather than aborting the daemon.
pub(crate) fn spawn_named(
    name: String,
    f: impl FnOnce() + Send + 'static,
) -> Option<std::thread::JoinHandle<()>> {
    match std::thread::Builder::new().name(name.clone()).spawn(f) {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("sdvm: failed to spawn thread {name}: {e}");
            None
        }
    }
}

/// Spawn one processing slot thread.
fn spawn_worker(inner: Arc<SiteInner>, slot: usize) -> Option<std::thread::JoinHandle<()>> {
    let name = format!("sdvm-worker-{}-{}", inner.my_id(), slot);
    spawn_named(name, move || processing::worker_loop(&inner))
}

/// Worker supervision (maintenance tick): respawn any slot thread that
/// exited — a chaos-injected exit, a thread the OS killed, or a panic
/// that somehow escaped the engine's isolation.
fn supervise_workers(inner: &Arc<SiteInner>) {
    if !inner.is_running() {
        return;
    }
    let mut slots = inner.worker_slots.lock();
    for (i, slot) in slots.iter_mut().enumerate() {
        let dead = slot.as_ref().map(|h| h.is_finished()).unwrap_or(true);
        if dead {
            if let Some(h) = slot.take() {
                let _ = h.join();
            }
            *slot = spawn_worker(inner.clone(), i);
            inner.emit(TraceEvent::WorkerRespawned {
                site: inner.my_id(),
                slot: i as u32,
            });
        }
    }
}
