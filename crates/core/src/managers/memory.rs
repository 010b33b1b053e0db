//! The attraction memory (paper §4): the local part of the global
//! memory, a COMA-style owner/directory protocol.
//!
//! Every global object (and every microframe, which is a special kind of
//! global object) has a *homesite* encoded in its address. The homesite
//! keeps the directory entry tracking the object's current owner; the
//! object itself migrates ("is attracted") to the sites that use it.
//! Results applied to waiting microframes go through
//! [`MemoryManager::apply_or_forward`]; when the last missing parameter arrives the
//! frame becomes executable and is handed to the scheduling manager —
//! exactly Fig. 4's execution cycle.
//!
//! v2 of the store (this file) splits the state into N address-hashed
//! *shards* so concurrent workers touching unrelated objects stop
//! serializing on one mutex; all state for one address (object, frame,
//! directory entry, replica, copyset, forwarding hint) lives in the same
//! shard, and no operation ever holds two shard locks at once. On top of
//! the shards sit three protocol upgrades (wire v4):
//!
//! - **Versioned read replicas**: objects carry a monotonic version
//!   bumped on every write. A non-migrating read enters the reader into
//!   the owner's per-object *copyset* and caches the value locally;
//!   repeat reads are served from the replica without crossing the wire
//!   until the owner writes (it then sends `ReplicaInvalidate` to the
//!   copyset) or the replica's TTL lease expires — the lease bounds
//!   staleness when an invalidation is lost, e.g. during a partition.
//! - **Forwarding hints**: when an object migrates away, the old owner
//!   remembers where it went; `MemMissing` replies carry that hint so
//!   chasers jump straight to the new owner instead of re-querying the
//!   homesite after a blind backoff.
//! - **Locality scoring** for help granting lives in
//!   [`MemoryManager::help_score`].

use crate::frame::Microframe;
use crate::managers::backup;
use crate::site::{SiteInner, Task};
use crate::telemetry::trace_id_of;
use crate::trace::TraceEvent;
use parking_lot::{Mutex, MutexGuard};
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SdvmError, SdvmResult, SiteId, Value};
use sdvm_wire::{Payload, SdMessage, TraceContext, WireFrame, WireMemObject};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Forwarding hints kept per shard; cleared wholesale on overflow (same
/// bounded-map discipline as the telemetry career map).
const HINT_CAP: usize = 1024;

/// Upper bound on owner hops a read/write chase follows before giving up.
const CHASE_HOPS: u32 = 8;

/// Number of address-hashed shards the attraction memory is split into:
/// workers touching unrelated objects rarely share a lock.
pub const MEM_SHARDS: usize = 8;

/// A plain global memory object.
#[derive(Clone, Debug, PartialEq)]
pub struct MemObject {
    /// Owning program (objects are purged with their program).
    pub program: ProgramId,
    /// Contents.
    pub data: Value,
    /// Monotonic write version (bumped by the owner on every write).
    pub version: u64,
}

/// A cached copy of a remote object (replica read mode).
struct Replica {
    program: ProgramId,
    data: Value,
    version: u64,
    /// When the copy was cut; replicas older than the configured TTL
    /// lease are ignored (bounds staleness under lost invalidations).
    fetched: Instant,
}

/// Named counts for load reports / status (replaces the old bare tuple).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MemStats {
    /// Objects currently owned by this site.
    pub objects: usize,
    /// Incomplete microframes owned by this site.
    pub frames: usize,
    /// Total payload bytes of the owned objects.
    pub memory_bytes: u64,
    /// Cached read replicas of remote objects.
    pub replicas: usize,
    /// Per-shard lock-contention counts (a `try_lock` that had to block).
    pub shard_contention: Vec<u64>,
}

#[derive(Default)]
struct Shard {
    /// Objects currently owned by this site (homed here or migrated in).
    objects: HashMap<GlobalAddress, MemObject>,
    /// Incomplete microframes owned by this site.
    frames: HashMap<GlobalAddress, Microframe>,
    /// Homesite directory: current owner of every *live* object/frame
    /// homed here (or whose directory this site inherited). An absent
    /// entry for a locally-homed address means consumed/freed.
    directory: HashMap<GlobalAddress, SiteId>,
    /// Cached copies of remote objects (never mirrored, never owned).
    replicas: HashMap<GlobalAddress, Replica>,
    /// Owner-side copysets: which sites cached a replica of an object
    /// owned here, to be invalidated on write/migration.
    copysets: HashMap<GlobalAddress, Vec<SiteId>>,
    /// Where an object that migrated away went (last known owner);
    /// served as the `MemMissing` forwarding hint.
    hints: HashMap<GlobalAddress, SiteId>,
    /// Programs whose objects/frames in this shard changed since their
    /// last incremental checkpoint cut (wire v8). Set under the shard
    /// lock the mutation already holds, so marking is free of extra
    /// synchronization; cleared per program when a cut re-captures the
    /// shard.
    dirty: HashSet<ProgramId>,
}

struct ShardSlot {
    state: Mutex<Shard>,
    /// Times a locker found the shard held and had to block.
    contention: AtomicU64,
}

impl ShardSlot {
    fn lock(&self) -> MutexGuard<'_, Shard> {
        if let Some(g) = self.state.try_lock() {
            return g;
        }
        self.contention.fetch_add(1, Ordering::Relaxed);
        self.state.lock()
    }
}

/// One shard's contribution to a program's incremental checkpoint cut,
/// cached between cuts so clean shards are answered without touching
/// (or locking) the live shard again.
#[derive(Clone, Default)]
struct ShardCut {
    objects: Vec<WireMemObject>,
    frames: Vec<WireFrame>,
}

/// Result of one incremental (copy-on-write style) checkpoint cut.
pub struct IncrementalCut {
    /// This site's owned objects of the program, per-shard consistent.
    pub objects: Vec<WireMemObject>,
    /// This site's incomplete frames of the program, per-shard consistent.
    pub frames: Vec<WireFrame>,
    /// Shards that were dirty (or never cut) and had to be re-captured.
    pub shards_captured: usize,
    /// Clean shards answered from the previous cut without locking work.
    pub shards_reused: usize,
    /// Longest time any single shard lock was held during the cut — the
    /// worst case a concurrent worker could have been blocked.
    pub max_block: std::time::Duration,
}

/// The attraction memory of one site.
pub struct MemoryManager {
    shards: Vec<ShardSlot>,
    counter: AtomicU64,
    /// Previous incremental cut per program: one optional entry per
    /// shard (`None` = that shard was never captured). Only the
    /// checkpoint path locks this — workers never touch it.
    cuts: Mutex<HashMap<ProgramId, Vec<Option<ShardCut>>>>,
}

impl Default for MemoryManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryManager {
    /// Fresh, empty memory split into [`MEM_SHARDS`] address-hashed shards.
    pub fn new() -> Self {
        MemoryManager {
            shards: (0..MEM_SHARDS)
                .map(|_| ShardSlot {
                    state: Mutex::new(Shard::default()),
                    contention: AtomicU64::new(0),
                })
                .collect(),
            counter: AtomicU64::new(1),
            cuts: Mutex::new(HashMap::new()),
        }
    }

    /// Number of shards (diagnostics/benches).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, addr: GlobalAddress) -> usize {
        // Fibonacci-hash the address; home in the high bits so objects
        // homed on different sites spread even with clashing locals.
        let h = (addr.local ^ ((addr.home.0 as u64) << 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len()
    }

    /// Lock the shard holding all state for `addr`.
    fn shard(&self, addr: GlobalAddress) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(addr)].lock()
    }

    /// Allocate a fresh global address homed on this site.
    pub fn fresh_address(&self, site: &SiteInner) -> GlobalAddress {
        GlobalAddress::new(site.my_id(), self.counter.fetch_add(1, Ordering::Relaxed))
    }

    /// An address homed on this site arrived from outside (checkpoint
    /// restore, relocation): make sure we never hand its local id out
    /// again.
    fn note_foreign_address(&self, site: &SiteInner, addr: GlobalAddress) {
        if addr.home == site.my_id() {
            self.counter.fetch_max(addr.local + 1, Ordering::Relaxed);
        }
    }

    /// Clone (do not drain) this site's share of a program's state: the
    /// owned objects and incomplete frames. Queued executable frames are
    /// contributed by the scheduling manager. Replicas are cache, not
    /// state — they are never snapshotted.
    pub fn snapshot_program(&self, program: ProgramId) -> (Vec<WireMemObject>, Vec<Microframe>) {
        let mut objects = Vec::new();
        let mut frames = Vec::new();
        for slot in &self.shards {
            let st = slot.lock();
            objects.extend(st.objects.iter().filter(|(_, o)| o.program == program).map(
                |(addr, o)| WireMemObject {
                    addr: *addr,
                    program: o.program,
                    data: o.data.clone(),
                    version: o.version,
                },
            ));
            frames.extend(
                st.frames
                    .values()
                    .filter(|f| f.program() == program)
                    .cloned(),
            );
        }
        (objects, frames)
    }

    /// Incremental, non-blocking checkpoint cut (wire v8): capture this
    /// site's share of a program's state as per-shard consistent cuts.
    /// Dirty shards (mutated since the last cut, or never cut) are
    /// re-captured under their own shard lock — held only for the copy
    /// of that one shard's entries, never globally — and clean shards
    /// are answered from the previous cut without blocking anyone. The
    /// first cut of a program captures every shard (full cut).
    ///
    /// Consistency: each shard's contribution is internally consistent
    /// (cut under its lock), but different shards are cut at slightly
    /// different instants and the execution engine keeps running — a
    /// restore from an incremental cut may re-execute frames that were
    /// in flight at cut time (at-least-once from the cut; duplicate
    /// results are rejected by the slot-fill check). The stop-the-world
    /// `SnapshotCollect` path remains for fully quiesced cuts.
    pub fn snapshot_program_incremental(&self, program: ProgramId) -> IncrementalCut {
        let mut cuts = self.cuts.lock();
        let cache = cuts
            .entry(program)
            .or_insert_with(|| vec![None; self.shards.len()]);
        let mut out = IncrementalCut {
            objects: Vec::new(),
            frames: Vec::new(),
            shards_captured: 0,
            shards_reused: 0,
            max_block: std::time::Duration::ZERO,
        };
        for (i, slot) in self.shards.iter().enumerate() {
            let held = Instant::now();
            let mut st = slot.lock();
            let dirty = st.dirty.remove(&program);
            if dirty || cache[i].is_none() {
                let cut = ShardCut {
                    objects: st
                        .objects
                        .iter()
                        .filter(|(_, o)| o.program == program)
                        .map(|(addr, o)| WireMemObject {
                            addr: *addr,
                            program: o.program,
                            data: o.data.clone(),
                            version: o.version,
                        })
                        .collect(),
                    frames: st
                        .frames
                        .values()
                        .filter(|f| f.program() == program)
                        .map(|f| f.to_wire())
                        .collect(),
                };
                drop(st);
                out.max_block = out.max_block.max(held.elapsed());
                cache[i] = Some(cut);
                out.shards_captured += 1;
            } else {
                drop(st);
                out.max_block = out.max_block.max(held.elapsed());
                out.shards_reused += 1;
            }
        }
        for cut in cache.iter().flatten() {
            out.objects.extend(cut.objects.iter().cloned());
            out.frames.extend(cut.frames.iter().cloned());
        }
        out
    }

    /// Allocate a global object with initial contents.
    pub fn alloc(&self, site: &SiteInner, program: ProgramId, data: Value) -> GlobalAddress {
        let addr = self.fresh_address(site);
        {
            let mut st = self.shard(addr);
            st.objects.insert(
                addr,
                MemObject {
                    program,
                    data: data.clone(),
                    version: 1,
                },
            );
            st.dirty.insert(program);
            st.directory.insert(addr, site.my_id());
        }
        backup::mirror_object(site, addr, program, data, 1);
        addr
    }

    /// Register a freshly created microframe (allocation, paper §3.2:
    /// "every microframe should be allocated as soon as possible, because
    /// its global address is known not before its allocation").
    pub fn create_frame(&self, site: &SiteInner, frame: Microframe) {
        site.emit(TraceEvent::FrameCreated {
            site: site.my_id(),
            frame: frame.id,
            thread: frame.thread,
            slots: frame.slots.len(),
        });
        backup::mirror_frame(site, &frame);
        let executable = frame.is_executable();
        {
            let mut st = self.shard(frame.id);
            st.directory.insert(frame.id, site.my_id());
            if !executable {
                st.dirty.insert(frame.program());
                st.frames.insert(frame.id, frame.clone());
            }
        }
        if executable {
            self.promote(site, frame);
        }
    }

    /// Adopt a frame that migrated here (help reply, relocation,
    /// recovery). Updates the homesite directory.
    pub fn adopt_frame(&self, site: &SiteInner, frame: Microframe) {
        self.note_foreign_address(site, frame.id);
        backup::mirror_frame(site, &frame);
        let me = site.my_id();
        let home = self.resolve_home(site, frame.id.home);
        let executable = frame.is_executable();
        {
            let mut st = self.shard(frame.id);
            st.hints.remove(&frame.id);
            if home == me {
                st.directory.insert(frame.id, me);
            }
            if !executable {
                st.dirty.insert(frame.program());
                st.frames.insert(frame.id, frame.clone());
            }
        }
        if home != me {
            let _ = site.send_payload(
                home,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::OwnerUpdate {
                    addr: frame.id,
                    owner: me,
                },
            );
        }
        if executable {
            self.promote(site, frame);
        }
    }

    /// Remove an owned frame (it is about to migrate away via a help
    /// reply). Caller is responsible for the directory update.
    pub fn take_frame(&self, id: GlobalAddress) -> Option<Microframe> {
        let mut st = self.shard(id);
        let taken = st.frames.remove(&id);
        if let Some(f) = &taken {
            st.dirty.insert(f.program());
        }
        taken
    }

    /// Adopt a memory object that migrated here by relocation or crash
    /// recovery; updates the (possibly inherited) directory. The object
    /// supersedes any cached replica of itself; a newer local version
    /// (e.g. a stale backup revival racing a live migration) survives.
    pub fn adopt_object(&self, site: &SiteInner, obj: sdvm_wire::WireMemObject) {
        self.note_foreign_address(site, obj.addr);
        let me = site.my_id();
        let home = self.resolve_home(site, obj.addr.home);
        let version = {
            let mut st = self.shard(obj.addr);
            let newer_here = st
                .objects
                .get(&obj.addr)
                .is_some_and(|e| e.version > obj.version);
            let version = if newer_here {
                st.objects.get(&obj.addr).map(|e| e.version).unwrap_or(1)
            } else {
                st.objects.insert(
                    obj.addr,
                    MemObject {
                        program: obj.program,
                        data: obj.data.clone(),
                        version: obj.version,
                    },
                );
                st.dirty.insert(obj.program);
                obj.version
            };
            st.replicas.remove(&obj.addr);
            st.hints.remove(&obj.addr);
            if home == me {
                st.directory.insert(obj.addr, me);
            }
            version
        };
        if home != me {
            let _ = site.send_payload(
                home,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::OwnerUpdate {
                    addr: obj.addr,
                    owner: me,
                },
            );
        }
        backup::mirror_object(site, obj.addr, obj.program, obj.data, version);
    }

    /// Called after a frame was executed: free its directory entry and
    /// its backup ("the microframe is consumed and thus vanishes").
    pub fn consume_frame(&self, site: &SiteInner, id: GlobalAddress) {
        let me = site.my_id();
        let home = self.resolve_home(site, id.home);
        if home == me {
            self.shard(id).directory.remove(&id);
        } else {
            let _ = site.send_payload(
                home,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::OwnerUpdate {
                    addr: id,
                    owner: SiteId::NONE,
                },
            );
        }
        backup::mirror_consumed(site, id);
    }

    fn promote(&self, site: &SiteInner, frame: Microframe) {
        site.emit(TraceEvent::FrameExecutable {
            site: site.my_id(),
            frame: frame.id,
        });
        // Under a replication policy, the frame's home site dispatches
        // tagged replicas instead of enqueueing — `intercept` keeps the
        // frame in escrow and returns `None`.
        let Some(frame) = site.replication.intercept(site, frame) else {
            return;
        };
        site.scheduling.enqueue_executable(site, frame);
    }

    /// Resolve the (possibly inherited) homesite of an address: follows
    /// the succession chain past signed-off/crashed sites.
    pub fn resolve_home(&self, site: &SiteInner, home: SiteId) -> SiteId {
        site.cluster.resolve_succession(home)
    }

    /// A site crashed: its homesite directory died with it. Re-register
    /// everything *we* own that was homed on the dead site with the
    /// directory successor, so late results and reads keep resolving.
    /// (State owned by the dead site itself is rebuilt by backup
    /// revival; orderly sign-off hands the directory over explicitly.)
    ///
    /// Replica hygiene: every cached replica is dropped — its owner may
    /// have died with our copyset entry, so invalidations can no longer
    /// be trusted to arrive — and the dead site is scrubbed from local
    /// copysets and forwarding hints.
    pub fn reregister_after_crash(&self, site: &SiteInner, dead: SiteId, successor: SiteId) {
        let me = site.my_id();
        let mut owned: Vec<GlobalAddress> = Vec::new();
        for slot in &self.shards {
            let mut st = slot.lock();
            owned.extend(
                st.frames
                    .keys()
                    .chain(st.objects.keys())
                    .copied()
                    .filter(|a| a.home == dead),
            );
            st.replicas.clear();
            for members in st.copysets.values_mut() {
                members.retain(|m| *m != dead);
            }
            st.hints.retain(|_, owner| *owner != dead);
        }
        for addr in owned {
            if successor == me {
                self.shard(addr).directory.insert(addr, me);
            } else {
                let _ = site.send_payload(
                    successor,
                    ManagerId::Memory,
                    ManagerId::Memory,
                    site.next_seq(),
                    Payload::OwnerUpdate { addr, owner: me },
                );
            }
        }
    }

    /// Apply a result to a frame owned here. `Ok(true)` if applied,
    /// `Ok(false)` if the frame is not local.
    pub fn apply_local(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
    ) -> SdvmResult<bool> {
        let mut st = self.shard(target);
        let Some(frame) = st.frames.get_mut(&target) else {
            return Ok(false);
        };
        let fired = frame.apply(slot, value)?;
        let missing = frame.missing();
        let program = frame.program();
        let fired_frame = if fired {
            st.frames.remove(&target)
        } else {
            None
        };
        st.dirty.insert(program);
        drop(st);
        site.emit(TraceEvent::ParamApplied {
            site: site.my_id(),
            frame: target,
            slot,
            missing,
        });
        if let Some(f) = fired_frame {
            self.promote(site, f);
        }
        Ok(true)
    }

    /// Apply a result wherever the frame currently lives: locally, or by
    /// forwarding an `ApplyResult` to the current owner (with directory
    /// resolution and migration chasing, bounded by `ttl`). May block on
    /// remote lookups — call from worker/helper threads only.
    ///
    /// Retries around site failures: if the homesite times out (it may
    /// have just crashed) or reports the frame unknown (its directory may
    /// still be rebuilding after a crash), the resolution is retried; by
    /// then crash detection has rerouted the succession and the
    /// re-registered directory answers. A frame that is genuinely
    /// consumed stays unknown through every retry and the (duplicate)
    /// result is dropped idempotently.
    pub fn apply_or_forward(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
        ttl: u8,
    ) -> SdvmResult<()> {
        let attempts = if site.config.crash_tolerance { 5 } else { 1 };
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Growing backoff: long enough for crash detection to
                // reroute succession and for backup revival to finish.
                std::thread::sleep(std::time::Duration::from_millis(100 << attempt.min(4)));
            }
            match self.try_apply_or_forward(site, target, slot, value.clone(), ttl) {
                Ok(true) => return Ok(()),
                Ok(false) => {
                    // Unknown at the directory: consumed, or mid-crash
                    // rebuild. Retry before concluding "consumed".
                    last_err = None;
                    continue;
                }
                Err(
                    e @ (SdvmError::Timeout(_)
                    | SdvmError::UnknownSite(_)
                    | SdvmError::Transport(_)),
                ) => {
                    // The peer may have just crashed: retry after the
                    // cluster has had time to detect and recover.
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
        if crate::config::debug_enabled() {
            eprintln!(
                "[dbg site{}] apply_or_forward gave up: target={target} slot={slot} err={last_err:?}",
                site.my_id().0
            );
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(()), // consistently unknown: consumed duplicate
        }
    }

    /// One resolution attempt. `Ok(true)` = applied/forwarded,
    /// `Ok(false)` = frame unknown at its directory.
    fn try_apply_or_forward(
        &self,
        site: &SiteInner,
        target: GlobalAddress,
        slot: u32,
        value: Value,
        ttl: u8,
    ) -> SdvmResult<bool> {
        if self.apply_local(site, target, slot, value.clone())? {
            backup::mirror_apply(site, site.my_id(), target, slot, value);
            return Ok(true);
        }
        if ttl == 0 {
            return Err(SdvmError::ObjectMissing(target));
        }
        let me = site.my_id();
        let home = self.resolve_home(site, target.home);
        let owner = if home == me {
            match self.shard(target).directory.get(&target) {
                Some(&o) => o,
                None => return Ok(false),
            }
        } else {
            let reply = site.request(
                home,
                ManagerId::Memory,
                ManagerId::Memory,
                Payload::OwnerQuery { addr: target },
                site.config.request_timeout,
            )?;
            match reply.payload {
                Payload::OwnerReply { owner: Some(o), .. } => o,
                Payload::OwnerReply { owner: None, .. } => return Ok(false),
                other => {
                    return Err(SdvmError::InvalidState(format!(
                        "unexpected owner reply {}",
                        other.name()
                    )))
                }
            }
        };
        if owner == me {
            // Directory says we own it but it is not in `frames`: it sits
            // in the scheduling queue already executable, or was consumed
            // concurrently. Either way this result is stale — drop.
            if crate::config::debug_enabled() {
                eprintln!(
                    "[dbg site{}] drop owner==me target={target} slot={slot}",
                    site.my_id().0
                );
            }
            return Ok(true);
        }
        if !owner.is_valid() {
            if crate::config::debug_enabled() {
                eprintln!(
                    "[dbg site{}] drop tombstone target={target} slot={slot}",
                    site.my_id().0
                );
            }
            return Ok(true); // consumed tombstone
        }
        backup::mirror_apply(site, owner, target, slot, value.clone());
        // The forwarded result belongs to the target frame's career:
        // stamp its trace context so the owner's inbound hop stitches to
        // the same trace.
        site.send_payload_traced(
            owner,
            ManagerId::Memory,
            ManagerId::Memory,
            site.next_seq(),
            Payload::ApplyResult {
                target,
                slot,
                value,
            },
            TraceContext {
                origin: target.home,
                id: trace_id_of(target),
            },
        )?;
        Ok(true)
    }

    /// Read a global object. With `migrate`, ownership moves here
    /// (attraction); otherwise a snapshot copy is returned — served from
    /// a cached replica when one is fresh, else fetched (and cached, with
    /// this site entered into the owner's copyset). Blocks on remote
    /// objects.
    pub fn read(&self, site: &SiteInner, addr: GlobalAddress, migrate: bool) -> SdvmResult<Value> {
        {
            let st = self.shard(addr);
            if let Some(obj) = st.objects.get(&addr) {
                return Ok(obj.data.clone());
            }
            if !migrate {
                if let Some(r) = st.replicas.get(&addr) {
                    if r.fetched.elapsed() <= site.config.replica_ttl {
                        site.metrics.mem_replica_hits.inc();
                        return Ok(r.data.clone());
                    }
                }
            }
        }
        if !migrate {
            site.metrics.mem_replica_misses.inc();
        }
        let me = site.my_id();
        let mut next_owner: Option<SiteId> = None;
        let mut hops: u64 = 0;
        for attempt in 0..CHASE_HOPS {
            let owner = match next_owner.take() {
                Some(o) => o,
                None => {
                    if attempt > 0 {
                        // No forwarding hint: the directory update of an
                        // in-flight migration races us — back off briefly
                        // before asking the directory again.
                        std::thread::sleep(std::time::Duration::from_millis(2 << attempt.min(5)));
                    }
                    self.lookup_owner(site, addr)?
                }
            };
            if owner == me {
                // Migrated here concurrently, or the directory update of
                // an outbound migration is still in flight.
                if let Some(obj) = self.shard(addr).objects.get(&addr) {
                    return Ok(obj.data.clone());
                }
                continue;
            }
            hops += 1;
            let reply = site.request(
                owner,
                ManagerId::Memory,
                ManagerId::Memory,
                Payload::MemRead {
                    addr,
                    migrate,
                    replica: !migrate,
                },
                site.config.request_timeout,
            )?;
            match reply.payload {
                Payload::MemValue {
                    obj,
                    migrated,
                    replica,
                } => {
                    site.metrics.mem_chase_hops.observe(hops);
                    if migrated {
                        let program = obj.program;
                        let data = obj.data.clone();
                        let version = obj.version;
                        let home = self.resolve_home(site, addr.home);
                        {
                            // One critical section: the object and (when
                            // we are its directory) its owner entry land
                            // together, so no lookup can observe
                            // owner==me with the object still absent.
                            let mut st = self.shard(addr);
                            st.objects.insert(
                                addr,
                                MemObject {
                                    program,
                                    data: data.clone(),
                                    version,
                                },
                            );
                            st.dirty.insert(program);
                            st.replicas.remove(&addr);
                            st.hints.remove(&addr);
                            if home == me {
                                st.directory.insert(addr, me);
                            }
                        }
                        if home != me {
                            let _ = site.send_payload(
                                home,
                                ManagerId::Memory,
                                ManagerId::Memory,
                                site.next_seq(),
                                Payload::OwnerUpdate { addr, owner: me },
                            );
                        }
                        backup::mirror_object(site, addr, program, data.clone(), version);
                        return Ok(data);
                    }
                    if replica {
                        let mut st = self.shard(addr);
                        // The owner entered us into its copyset; cache
                        // the copy unless we became the owner meanwhile.
                        if !st.objects.contains_key(&addr) {
                            st.replicas.insert(
                                addr,
                                Replica {
                                    program: obj.program,
                                    data: obj.data.clone(),
                                    version: obj.version,
                                    fetched: Instant::now(),
                                },
                            );
                        }
                    }
                    return Ok(obj.data);
                }
                Payload::MemMissing { hint, .. } => {
                    // Jump straight to the hinted owner (no backoff);
                    // without a hint, fall back to the directory.
                    next_owner = hint.filter(|h| h.is_valid() && *h != owner);
                    continue;
                }
                other => {
                    return Err(SdvmError::InvalidState(format!(
                        "unexpected read reply {}",
                        other.name()
                    )))
                }
            }
        }
        Err(SdvmError::ObjectMissing(addr))
    }

    /// Write a global object in place at its current owner. Blocks on
    /// remote objects.
    pub fn write(&self, site: &SiteInner, addr: GlobalAddress, value: Value) -> SdvmResult<()> {
        if let Some((program, version, copyset)) = self.write_local(addr, &value) {
            self.send_invalidations(site, addr, version, copyset);
            backup::mirror_object(site, addr, program, value, version);
            return Ok(());
        }
        let me = site.my_id();
        let mut next_owner: Option<SiteId> = None;
        let mut hops: u64 = 0;
        for attempt in 0..CHASE_HOPS {
            let owner = match next_owner.take() {
                Some(o) => o,
                None => {
                    if attempt > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(2 << attempt.min(5)));
                    }
                    self.lookup_owner(site, addr)?
                }
            };
            if owner == me {
                // The directory says it's ours but it wasn't in `objects`
                // above: an inbound migration or its directory update is
                // still settling — re-check locally.
                if let Some((program, version, copyset)) = self.write_local(addr, &value) {
                    self.send_invalidations(site, addr, version, copyset);
                    backup::mirror_object(site, addr, program, value, version);
                    return Ok(());
                }
                continue;
            }
            hops += 1;
            let reply = site.request(
                owner,
                ManagerId::Memory,
                ManagerId::Memory,
                Payload::MemWrite {
                    addr,
                    value: value.clone(),
                },
                site.config.request_timeout,
            )?;
            match reply.payload {
                Payload::MemWriteAck { .. } => {
                    site.metrics.mem_chase_hops.observe(hops);
                    // Our own cached replica (if any) is stale now; the
                    // owner's invalidation also races this, so drop
                    // eagerly for read-your-writes freshness.
                    self.shard(addr).replicas.remove(&addr);
                    return Ok(());
                }
                Payload::MemMissing { hint, .. } => {
                    next_owner = hint.filter(|h| h.is_valid() && *h != owner);
                    continue;
                }
                other => {
                    return Err(SdvmError::InvalidState(format!(
                        "unexpected write reply {}",
                        other.name()
                    )))
                }
            }
        }
        Err(SdvmError::ObjectMissing(addr))
    }

    /// Write an object owned here: store, bump the version, take the
    /// copyset for invalidation. `None` when the object is not local.
    fn write_local(
        &self,
        addr: GlobalAddress,
        value: &Value,
    ) -> Option<(ProgramId, u64, Vec<SiteId>)> {
        let mut st = self.shard(addr);
        let obj = st.objects.get_mut(&addr)?;
        obj.data = value.clone();
        obj.version += 1;
        let program = obj.program;
        let version = obj.version;
        st.dirty.insert(program);
        let copyset = st.copysets.remove(&addr).unwrap_or_default();
        Some((program, version, copyset))
    }

    /// Notify copyset members their replica is stale. Fire-and-forget:
    /// a lost notice is bounded by the replica TTL lease.
    fn send_invalidations(
        &self,
        site: &SiteInner,
        addr: GlobalAddress,
        version: u64,
        members: Vec<SiteId>,
    ) {
        let me = site.my_id();
        for m in members {
            if m == me || !m.is_valid() {
                continue;
            }
            let _ = site.send_payload(
                m,
                ManagerId::Memory,
                ManagerId::Memory,
                site.next_seq(),
                Payload::ReplicaInvalidate { addr, version },
            );
        }
    }

    fn lookup_owner(&self, site: &SiteInner, addr: GlobalAddress) -> SdvmResult<SiteId> {
        let me = site.my_id();
        let home = self.resolve_home(site, addr.home);
        if home == me {
            return self
                .shard(addr)
                .directory
                .get(&addr)
                .copied()
                .ok_or(SdvmError::ObjectMissing(addr));
        }
        let reply = site.request(
            home,
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::OwnerQuery { addr },
            site.config.request_timeout,
        )?;
        match reply.payload {
            Payload::OwnerReply { owner: Some(o), .. } => Ok(o),
            Payload::OwnerReply { owner: None, .. } => Err(SdvmError::ObjectMissing(addr)),
            other => Err(SdvmError::InvalidState(format!(
                "unexpected owner reply {}",
                other.name()
            ))),
        }
    }

    /// Locality score of granting `frame` to `requester`, used by the
    /// scheduling manager's help-grant policy. Per argument object: an
    /// input owned *here* scores −1 (executing locally avoids a remote
    /// read), an input remote to this site scores +1 (we would fetch it
    /// anyway), plus +1 more when the requester is its homesite or our
    /// directory knows the requester owns it (the frame follows its
    /// data). Ties fall back to the queue policy.
    pub fn help_score(&self, requester: SiteId, frame: &Microframe) -> i32 {
        let mut score = 0i32;
        for value in frame.slots.iter().flatten() {
            let Ok(addr) = value.as_address() else {
                continue;
            };
            let st = self.shard(addr);
            if st.objects.contains_key(&addr) {
                score -= 1;
            } else {
                score += 1;
                let requester_has = addr.home == requester
                    || st.directory.get(&addr) == Some(&requester)
                    || st.hints.get(&addr) == Some(&requester);
                if requester_has {
                    score += 1;
                }
            }
        }
        score
    }

    /// Everything this site owns for relocation at sign-off: objects,
    /// incomplete frames, and the homesite directory entries. Cached
    /// replicas are dropped (not relocated — they are re-fetchable
    /// cache), and outstanding copysets are invalidated so no site keeps
    /// serving a replica whose owner is about to change.
    pub fn drain_for_relocation(
        &self,
        site: &SiteInner,
    ) -> (
        Vec<WireMemObject>,
        Vec<Microframe>,
        Vec<(GlobalAddress, SiteId)>,
    ) {
        let mut objects = Vec::new();
        let mut frames: Vec<Microframe> = Vec::new();
        let mut directory = Vec::new();
        let mut invals: Vec<(GlobalAddress, u64, Vec<SiteId>)> = Vec::new();
        for slot in &self.shards {
            let mut st = slot.lock();
            let copysets: Vec<(GlobalAddress, Vec<SiteId>)> = st.copysets.drain().collect();
            for (addr, members) in copysets {
                let version = st.objects.get(&addr).map(|o| o.version).unwrap_or(0);
                invals.push((addr, version, members));
            }
            objects.extend(st.objects.drain().map(|(addr, o)| WireMemObject {
                addr,
                program: o.program,
                data: o.data,
                version: o.version,
            }));
            frames.extend(st.frames.drain().map(|(_, f)| f));
            directory.extend(st.directory.drain());
            st.replicas.clear();
            st.hints.clear();
        }
        for (addr, version, members) in invals {
            self.send_invalidations(site, addr, version, members);
        }
        (objects, frames, directory)
    }

    /// Snapshot of incomplete frames: (address, microthread, missing,
    /// filled-slot indices). Diagnostic aid for stalled dataflow.
    pub fn incomplete_frames(
        &self,
    ) -> Vec<(GlobalAddress, sdvm_types::MicrothreadId, usize, Vec<u32>)> {
        let mut out = Vec::new();
        for slot in &self.shards {
            out.extend(slot.lock().frames.values().map(|f| {
                let filled = f
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_some())
                    .map(|(i, _)| i as u32)
                    .collect();
                (f.id, f.thread, f.missing(), filled)
            }));
        }
        out
    }

    /// Counts for load reports / status.
    pub fn stats(&self) -> MemStats {
        let mut s = MemStats::default();
        for slot in &self.shards {
            let st = slot.lock();
            s.objects += st.objects.len();
            s.frames += st.frames.len();
            s.memory_bytes += st
                .objects
                .values()
                .map(|o| o.data.len() as u64)
                .sum::<u64>();
            s.replicas += st.replicas.len();
            s.shard_contention
                .push(slot.contention.load(Ordering::Relaxed));
        }
        s
    }

    /// Purge everything belonging to a terminated program.
    pub fn purge_program(&self, program: ProgramId) {
        for slot in &self.shards {
            let mut st = slot.lock();
            let dead_objects: Vec<GlobalAddress> = st
                .objects
                .iter()
                .filter(|(_, o)| o.program == program)
                .map(|(a, _)| *a)
                .collect();
            for a in dead_objects {
                st.objects.remove(&a);
                st.copysets.remove(&a);
                st.hints.remove(&a);
            }
            let dead_frames: Vec<GlobalAddress> = st
                .frames
                .iter()
                .filter(|(_, f)| f.program() == program)
                .map(|(a, _)| *a)
                .collect();
            for a in dead_frames {
                st.frames.remove(&a);
                st.directory.remove(&a);
            }
            st.replicas.retain(|_, r| r.program != program);
            st.dirty.remove(&program);
        }
        self.cuts.lock().remove(&program);
    }

    /// Version of the locally cached replica of `addr`, if any
    /// (diagnostics; stale-read assertions in tests).
    pub fn replica_version(&self, addr: GlobalAddress) -> Option<u64> {
        self.shard(addr).replicas.get(&addr).map(|r| r.version)
    }

    /// Version of the locally *owned* copy of `addr`, if any.
    pub fn object_version(&self, addr: GlobalAddress) -> Option<u64> {
        self.shard(addr).objects.get(&addr).map(|o| o.version)
    }

    /// The forwarding hint recorded for `addr`, if any (diagnostics;
    /// restore-purge assertions in tests).
    pub fn recorded_hint(&self, addr: GlobalAddress) -> Option<SiteId> {
        self.shard(addr).hints.get(&addr).copied()
    }

    /// Drop every cached replica of a program's objects, and every
    /// forwarding hint. Called on program (re-)registration — a
    /// checkpoint restore rewinds object state, so copies cut from the
    /// pre-restore timeline must not survive it (a fresh program
    /// trivially has no replicas), and pre-restore migration hints
    /// would steer chasers at owners that no longer hold the restored
    /// objects. Hints carry no program id, so they are cleared
    /// wholesale — they are an optimization, losing them only costs a
    /// directory lookup.
    pub fn purge_replicas(&self, program: ProgramId) {
        for slot in &self.shards {
            let mut st = slot.lock();
            st.replicas.retain(|_, r| r.program != program);
            st.hints.clear();
        }
    }

    /// Record where an object that left this site went, for `MemMissing`
    /// forwarding hints. Bounded: the map is cleared wholesale at
    /// `HINT_CAP` (hints are an optimization, losing them only costs a
    /// directory lookup).
    fn record_hint(st: &mut Shard, addr: GlobalAddress, new_owner: SiteId) {
        if st.hints.len() >= HINT_CAP {
            st.hints.clear();
        }
        st.hints.insert(addr, new_owner);
    }

    /// Handle an incoming memory-manager message.
    pub fn handle(&self, site: &SiteInner, msg: SdMessage) {
        match msg.payload.clone() {
            Payload::ApplyResult {
                target,
                slot,
                value,
            } => {
                match self.apply_local(site, target, slot, value.clone()) {
                    Ok(true) => {
                        backup::mirror_apply(site, site.my_id(), target, slot, value);
                    }
                    Ok(false) => {
                        // Not here (frame migrated on, or consumed):
                        // resolve and forward off the router thread.
                        site.spawn_task(Task::ForwardApply {
                            target,
                            slot,
                            value,
                            ttl: 4,
                        });
                    }
                    Err(_) => { /* duplicate/stale result: drop */ }
                }
            }
            Payload::MemRead {
                addr,
                migrate,
                replica,
            } => {
                self.on_mem_read(site, &msg, addr, migrate, replica);
            }
            Payload::MemWrite { addr, value } => {
                match self.write_local(addr, &value) {
                    Some((program, version, copyset)) => {
                        site.reply_to(&msg, ManagerId::Memory, Payload::MemWriteAck { addr });
                        self.send_invalidations(site, addr, version, copyset);
                        backup::mirror_object(site, addr, program, value, version);
                    }
                    None => {
                        let hint = self.hint_for(site, addr, msg.src_site);
                        site.reply_to(&msg, ManagerId::Memory, Payload::MemMissing { addr, hint });
                    }
                };
            }
            Payload::ReplicaInvalidate { addr, version } => {
                let dropped = self.shard(addr).replicas.remove(&addr).is_some();
                if dropped {
                    site.metrics.mem_invalidations.inc();
                    site.emit(TraceEvent::ReplicaInvalidated {
                        site: site.my_id(),
                        object: addr,
                        version,
                    });
                }
            }
            Payload::OwnerQuery { addr } => {
                // Any traffic about an address homed here proves that
                // local id is in use (e.g. after a checkpoint restore
                // elsewhere): never allocate it again.
                self.note_foreign_address(site, addr);
                let owner = self.shard(addr).directory.get(&addr).copied();
                site.reply_to(&msg, ManagerId::Memory, Payload::OwnerReply { addr, owner });
            }
            Payload::OwnerUpdate { addr, owner } => {
                self.note_foreign_address(site, addr);
                let mut st = self.shard(addr);
                if owner.is_valid() {
                    st.directory.insert(addr, owner);
                } else {
                    st.directory.remove(&addr);
                }
            }
            Payload::Relocate {
                objects,
                frames,
                directory,
            } => {
                for o in &objects {
                    let mut st = self.shard(o.addr);
                    st.objects.insert(
                        o.addr,
                        MemObject {
                            program: o.program,
                            data: o.data.clone(),
                            version: o.version,
                        },
                    );
                    st.dirty.insert(o.program);
                    st.replicas.remove(&o.addr);
                    st.hints.remove(&o.addr);
                    // Ownership moved here; record it if we will act
                    // as the address's directory too.
                    st.directory.insert(o.addr, site.my_id());
                }
                for (addr, owner) in directory {
                    // Inherited directory entries keep their owner,
                    // except entries pointing at the leaver itself —
                    // those objects are in this very relocation.
                    let mut st = self.shard(addr);
                    if owner == msg.src_site {
                        st.directory.insert(addr, site.my_id());
                    } else {
                        st.directory.insert(addr, owner);
                    }
                }
                // Incomplete frames first: executable ones start running
                // on adoption and their results must find every waiting
                // frame already registered.
                let (incomplete, executable): (Vec<_>, Vec<_>) =
                    frames.into_iter().partition(|f| !f.is_executable());
                for f in incomplete.into_iter().chain(executable) {
                    self.adopt_frame(site, Microframe::from_wire(f));
                }
                site.reply_to(&msg, ManagerId::Memory, Payload::RelocateAck {});
            }
            // A migrated object whose requesting waiter timed out: the
            // old owner already removed it — adopt it here or it is lost.
            Payload::MemValue {
                obj,
                migrated: true,
                ..
            } => {
                self.adopt_object(site, obj);
            }
            Payload::MemValue {
                migrated: false, ..
            } => {}
            Payload::BackupFrame { frame } => {
                site.backup.on_frame(msg.src_site, frame);
            }
            Payload::BackupRelease { frame, owner } => {
                site.backup.on_release(owner, frame);
            }
            Payload::BackupApply {
                target,
                slot,
                value,
            } => {
                // If the frame lives *here* (it was already revived from
                // backup, or migrated to us while the sender still
                // believed the old owner), deliver the result for real —
                // recording it into the (drained) backup bucket would
                // strand it. Duplicate deliveries are rejected by the
                // slot-fill check, so this is idempotent.
                match self.apply_local(site, target, slot, value.clone()) {
                    Ok(true) => {}
                    _ => site.backup.on_apply(msg.src_site, target, slot, value),
                }
            }
            Payload::BackupConsumed { frame } => {
                site.backup.on_consumed(frame);
            }
            Payload::BackupObject { obj } => {
                site.backup.on_object(msg.src_site, obj);
            }
            Payload::RecoverSite { dead } => {
                site.spawn_task(Task::Recover { dead });
            }
            other => {
                site.reply_to(
                    &msg,
                    ManagerId::Memory,
                    Payload::Error {
                        message: format!("memory: unexpected {}", other.name()),
                    },
                );
            }
        }
    }

    /// Serve a `MemRead` request (migrate / replica / plain copy).
    fn on_mem_read(
        &self,
        site: &SiteInner,
        msg: &SdMessage,
        addr: GlobalAddress,
        migrate: bool,
        replica: bool,
    ) {
        let requester = msg.src_site;
        if migrate {
            let (reply, removed, invals) = {
                let mut st = self.shard(addr);
                match st.objects.remove(&addr) {
                    Some(o) => {
                        st.dirty.insert(o.program);
                        // The object is leaving: remember where it went
                        // (forwarding hint) and schedule invalidation of
                        // every outstanding replica — the new owner's
                        // future writes won't know this copyset.
                        Self::record_hint(&mut st, addr, requester);
                        let copyset = st.copysets.remove(&addr).unwrap_or_default();
                        let version = o.version;
                        (
                            Payload::MemValue {
                                obj: WireMemObject {
                                    addr,
                                    program: o.program,
                                    data: o.data.clone(),
                                    version,
                                },
                                migrated: true,
                                replica: false,
                            },
                            Some(o),
                            Some((version, copyset)),
                        )
                    }
                    None => {
                        let hint = st.hints.get(&addr).copied().filter(|h| *h != requester);
                        (Payload::MemMissing { addr, hint }, None, None)
                    }
                }
            };
            if let Some((version, copyset)) = invals {
                self.send_invalidations(site, addr, version, copyset);
            }
            let sent = {
                let r = msg.reply(site.next_seq(), ManagerId::Memory, reply);
                site.send_msg(r)
            };
            if sent.is_err() {
                if let Some(o) = removed {
                    // The requester became unreachable between request
                    // and reply: the migrating object must not vanish
                    // from the cluster — take it back.
                    let mut st = self.shard(addr);
                    st.dirty.insert(o.program);
                    st.objects.insert(addr, o);
                    st.hints.remove(&addr);
                }
            }
            return;
        }
        let reply = {
            let mut st = self.shard(addr);
            match st.objects.get(&addr) {
                Some(o) => {
                    let obj = WireMemObject {
                        addr,
                        program: o.program,
                        data: o.data.clone(),
                        version: o.version,
                    };
                    let grant_replica = replica && requester != site.my_id();
                    if grant_replica {
                        let members = st.copysets.entry(addr).or_default();
                        if !members.contains(&requester) {
                            members.push(requester);
                        }
                    }
                    Payload::MemValue {
                        obj,
                        migrated: false,
                        replica: grant_replica,
                    }
                }
                None => {
                    let hint = st.hints.get(&addr).copied().filter(|h| *h != requester);
                    Payload::MemMissing { addr, hint }
                }
            }
        };
        site.reply_to(msg, ManagerId::Memory, reply);
    }

    /// Last-known-owner hint for an address not owned here: a recorded
    /// migration hint, or (when this site is the directory) the current
    /// directory entry.
    fn hint_for(&self, site: &SiteInner, addr: GlobalAddress, requester: SiteId) -> Option<SiteId> {
        let me = site.my_id();
        let is_directory = self.resolve_home(site, addr.home) == me;
        let st = self.shard(addr);
        st.hints
            .get(&addr)
            .copied()
            .or_else(|| {
                if is_directory {
                    st.directory.get(&addr).copied()
                } else {
                    None
                }
            })
            .filter(|h| h.is_valid() && *h != requester && *h != me)
    }
}

/// Helper-thread entry for forwarding a result whose frame is not local
/// (migration chasing; see [`MemoryManager::apply_or_forward`]).
pub(crate) fn forward_apply(
    site: &SiteInner,
    target: GlobalAddress,
    slot: u32,
    value: Value,
    ttl: u8,
) {
    let _ = site.memory.apply_or_forward(site, target, slot, value, ttl);
}
