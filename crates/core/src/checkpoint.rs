//! Program checkpointing (paper §2.2, §4, §6): "the SDVM has an
//! automatic backup and recovery mechanism (which uses checkpointing)".
//!
//! A checkpoint is a cluster-wide snapshot of one program: every site's
//! incomplete and queued microframes plus its global memory objects.
//! Taking one quiesces the program first — it is paused cluster-wide,
//! running microthreads drain (microthreads are atomic, so draining is
//! bounded by the longest one), in-flight results settle into parked
//! frames — then every site contributes its share, the assembled
//! [`ProgramSnapshot`] is stored on the checkpoint sites recorded by the
//! program manager, and the program resumes.
//!
//! A snapshot can be restored on the same cluster (or a rebuilt cluster
//! reusing the same logical site ids — addresses embed homesites):
//! every frame and object is re-adopted and the dataflow continues from
//! the cut. Together with the continuous backup mirroring
//! ([`crate::managers::backup`]) this covers both recovery granularities
//! the paper sketches: fine-grained crash survival and coarse
//! stop-the-program/disaster restart.

use crate::api::ProgramHandle;
use crate::frame::Microframe;
use crate::site::Site;
use crate::thread::RESULT_THREAD_INDEX;
use bytes::Bytes;
use sdvm_types::{GlobalAddress, ManagerId, ProgramId, SdvmError, SdvmResult};
use sdvm_wire::{Decode, Encode, Payload, WireFrame, WireMemObject, WireReader, WireWriter};

/// A cluster-wide snapshot of one running program.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramSnapshot {
    /// The program (restore keeps the id — addresses reference it).
    pub program: ProgramId,
    /// Monotone checkpoint number.
    pub epoch: u64,
    /// Program name (sanity check at restore).
    pub name: String,
    /// Code-table size (sanity check at restore).
    pub threads: u32,
    /// All live microframes (incomplete + queued), cluster-wide.
    pub frames: Vec<WireFrame>,
    /// All global memory objects of the program, cluster-wide.
    pub objects: Vec<WireMemObject>,
}

impl ProgramSnapshot {
    /// The hidden result frame's address, if captured (absent once the
    /// program has delivered its result).
    pub fn result_addr(&self) -> Option<GlobalAddress> {
        self.frames
            .iter()
            .find(|f| f.thread.index == RESULT_THREAD_INDEX)
            .map(|f| f.id)
    }

    /// Serialize (wire codec; also used for on-disk checkpoints).
    pub fn to_bytes(&self) -> Bytes {
        let mut w = WireWriter::with_capacity(1024);
        self.program.encode(&mut w);
        w.put_varint(self.epoch);
        w.put_str(&self.name);
        self.threads.encode(&mut w);
        self.frames.encode(&mut w);
        self.objects.encode(&mut w);
        Bytes::from(w.finish())
    }

    /// Deserialize.
    pub fn from_bytes(buf: &[u8]) -> SdvmResult<Self> {
        let mut r = WireReader::new(buf);
        let snap = ProgramSnapshot {
            program: ProgramId::decode(&mut r)?,
            epoch: r.get_varint()?,
            name: r.get_str()?.to_owned(),
            threads: u32::decode(&mut r)?,
            frames: Vec::decode(&mut r)?,
            objects: Vec::decode(&mut r)?,
        };
        r.expect_end()?;
        Ok(snap)
    }

    /// Write the snapshot to a file (length-framed, so several snapshots
    /// can share a file if appended).
    pub fn save_to_file(&self, path: &std::path::Path) -> SdvmResult<()> {
        let mut f = std::fs::File::create(path)?;
        sdvm_wire::write_frame(&mut f, &self.to_bytes())
    }

    /// Read a snapshot back from a file.
    pub fn load_from_file(path: &std::path::Path) -> SdvmResult<Self> {
        let mut f = std::fs::File::open(path)?;
        let body = sdvm_wire::read_frame(&mut f)?
            .ok_or_else(|| SdvmError::Checkpoint("empty checkpoint file".into()))?;
        Self::from_bytes(&body)
    }
}

impl Site {
    /// Take a cluster-wide checkpoint of `program`: pause → quiesce →
    /// collect every site's share → resume → store on the checkpoint
    /// sites. Returns the snapshot (also retrievable later with
    /// [`Site::fetch_checkpoint`]).
    pub fn checkpoint_program(&self, program: ProgramId) -> SdvmResult<ProgramSnapshot> {
        let site = self.inner();
        site.program
            .code_home(program)
            .ok_or(SdvmError::UnknownProgram(program))?;
        let members = site.cluster.known_sites();

        // 1. Pause cluster-wide (loopback handles ourselves).
        for &m in &members {
            let _ = site.send_payload(
                m,
                ManagerId::Program,
                ManagerId::Program,
                site.next_seq(),
                Payload::ProgramPause {
                    program,
                    paused: true,
                },
            );
        }

        // 2. Collect every site's share — twice. Each site only replies
        // once it is locally quiesced, so the *end of round one* is a
        // cluster-wide quiescence barrier: every in-flight result from a
        // draining execution has been sent by then and lands during the
        // per-site settle windows. Round two's parts are therefore a
        // stable cut; round one's are discarded.
        let mut frames = Vec::new();
        let mut objects = Vec::new();
        let mut collect_err = None;
        for _ in 0..2 {
            frames.clear();
            objects.clear();
            if collect_err.is_some() {
                break;
            }
            for &m in &members {
                match site.request(
                    m,
                    ManagerId::Program,
                    ManagerId::Program,
                    Payload::SnapshotCollect { program },
                    site.config.request_timeout,
                ) {
                    Ok(reply) => match reply.payload {
                        Payload::SnapshotPart {
                            frames: f,
                            objects: o,
                            ..
                        } => {
                            frames.extend(f);
                            objects.extend(o);
                        }
                        other => {
                            collect_err = Some(SdvmError::Checkpoint(format!(
                                "unexpected snapshot reply {}",
                                other.name()
                            )));
                        }
                    },
                    Err(e) => {
                        collect_err = Some(SdvmError::Checkpoint(format!("collect from {m}: {e}")));
                    }
                }
                if collect_err.is_some() {
                    break;
                }
            }
        }

        // 3. Resume cluster-wide, whatever happened.
        for &m in &members {
            let _ = site.send_payload(
                m,
                ManagerId::Program,
                ManagerId::Program,
                site.next_seq(),
                Payload::ProgramPause {
                    program,
                    paused: false,
                },
            );
        }
        if let Some(e) = collect_err {
            return Err(e);
        }

        frames.sort_by_key(|f| f.id);
        frames.dedup_by_key(|f| f.id);
        objects.sort_by_key(|o| o.addr);
        objects.dedup_by_key(|o| o.addr);

        // 4. Store on the checkpoint sites.
        Ok(self.store_snapshot(program, frames, objects))
    }

    /// Take an **incremental, pause-free** checkpoint of `program`.
    ///
    /// Unlike [`Site::checkpoint_program`] this never pauses the program
    /// and never waits for quiescence: every site contributes a
    /// copy-on-write style cut (dirty shards re-captured under their own
    /// shard lock, clean shards answered from the previous cut), so the
    /// execution engine keeps running throughout and no worker is ever
    /// blocked longer than one shard capture.
    ///
    /// The price is a weaker cut: consistency is per-shard, not
    /// cluster-wide. A restore from an incremental snapshot is
    /// *at-least-once* — a frame captured mid-flight may re-execute and
    /// re-deliver its results, which the receiving frames' slot-fill
    /// checks reject as duplicates — rather than the exactly-from-the-cut
    /// semantics of the quiesced path. Use the quiesced path for
    /// disaster-recovery archives; use this one for frequent online
    /// checkpoints where stopping the world is unacceptable (the drain
    /// and rolling-restart flows).
    pub fn checkpoint_program_incremental(
        &self,
        program: ProgramId,
    ) -> SdvmResult<ProgramSnapshot> {
        let site = self.inner();
        site.program
            .code_home(program)
            .ok_or(SdvmError::UnknownProgram(program))?;
        let members = site.cluster.known_sites();

        // Single collect round, no pause barrier: each site cuts its
        // shards immediately and replies.
        let mut frames = Vec::new();
        let mut objects = Vec::new();
        for &m in &members {
            match site.request(
                m,
                ManagerId::Program,
                ManagerId::Program,
                Payload::SnapshotCollectIncremental { program },
                site.config.request_timeout,
            ) {
                Ok(reply) => match reply.payload {
                    Payload::SnapshotPart {
                        frames: f,
                        objects: o,
                        ..
                    } => {
                        frames.extend(f);
                        objects.extend(o);
                    }
                    other => {
                        return Err(SdvmError::Checkpoint(format!(
                            "unexpected incremental snapshot reply {}",
                            other.name()
                        )));
                    }
                },
                Err(e) => {
                    return Err(SdvmError::Checkpoint(format!(
                        "incremental collect from {m}: {e}"
                    )));
                }
            }
        }

        // Objects can legitimately appear twice (one site's fresh cut,
        // another's cached cut from before a migration): keep the
        // highest version. Frames dedup by address.
        frames.sort_by_key(|f| f.id);
        frames.dedup_by_key(|f| f.id);
        objects.sort_by(|a, b| a.addr.cmp(&b.addr).then(b.version.cmp(&a.version)));
        objects.dedup_by_key(|o| o.addr);

        Ok(self.store_snapshot(program, frames, objects))
    }

    /// Assemble the next-epoch snapshot of `program` from a collected
    /// cut and store it on the checkpoint sites (the code distribution
    /// sites, ourselves included) — "the sites where checkpoints are
    /// stored".
    fn store_snapshot(
        &self,
        program: ProgramId,
        frames: Vec<WireFrame>,
        objects: Vec<WireMemObject>,
    ) -> ProgramSnapshot {
        let site = self.inner();
        let epoch = site
            .program
            .stored_checkpoint(program)
            .map(|(e, _)| e + 1)
            .unwrap_or(1);
        let snapshot = ProgramSnapshot {
            program,
            epoch,
            name: site
                .registry
                .program_name(program)
                .or_else(|| site.program.name_of(program))
                .unwrap_or_default(),
            threads: site.registry.thread_count(program) as u32,
            frames,
            objects,
        };
        let bytes = snapshot.to_bytes();
        let mut stores = site.cluster.code_distribution_sites();
        if !stores.contains(&site.my_id()) {
            stores.push(site.my_id());
        }
        for &m in &stores {
            let _ = site.request(
                m,
                ManagerId::Program,
                ManagerId::Program,
                Payload::CheckpointStore {
                    program,
                    epoch,
                    snapshot: Bytes::copy_from_slice(&bytes),
                },
                site.config.request_timeout,
            );
        }
        snapshot
    }

    /// Fetch the latest stored checkpoint for `program` from the
    /// checkpoint sites (or the local store).
    pub fn fetch_checkpoint(&self, program: ProgramId) -> SdvmResult<ProgramSnapshot> {
        let site = self.inner();
        if let Some((_, bytes)) = site.program.stored_checkpoint(program) {
            return ProgramSnapshot::from_bytes(&bytes);
        }
        let mut candidates = site.cluster.code_distribution_sites();
        candidates.extend(site.cluster.known_sites());
        candidates.dedup();
        let mut best: Option<(u64, Bytes)> = None;
        for m in candidates {
            if m == site.my_id() {
                continue;
            }
            if let Ok(reply) = site.request(
                m,
                ManagerId::Program,
                ManagerId::Program,
                Payload::CheckpointFetch { program },
                site.config.request_timeout,
            ) {
                if let Payload::CheckpointData {
                    epoch, snapshot, ..
                } = reply.payload
                {
                    if best.as_ref().map(|(e, _)| *e < epoch).unwrap_or(true) {
                        best = Some((epoch, snapshot));
                    }
                }
            }
        }
        match best {
            Some((_, bytes)) => ProgramSnapshot::from_bytes(&bytes),
            None => Err(SdvmError::Checkpoint(format!(
                "no checkpoint stored for {program}"
            ))),
        }
    }

    /// Resume a checkpointed program on this site (the cluster must
    /// resolve the snapshot's site ids — same cluster, or a rebuilt one
    /// reusing the same logical ids). The application's code table must
    /// be provided again, exactly as at the original launch.
    pub fn restore_program(
        &self,
        app: &crate::api::AppBuilder,
        snapshot: &ProgramSnapshot,
    ) -> SdvmResult<ProgramHandle> {
        if app.thread_count() != snapshot.threads {
            return Err(SdvmError::Checkpoint(format!(
                "code table mismatch: snapshot has {} microthreads, app has {}",
                snapshot.threads,
                app.thread_count()
            )));
        }
        let result_addr = snapshot.result_addr().ok_or_else(|| {
            SdvmError::Checkpoint("snapshot has no result frame (program finished?)".into())
        })?;
        let handle = self.relaunch_registered(app, snapshot.program, result_addr)?;
        let site = self.inner();
        // The restore rewinds object state: replicas cut from the
        // pre-restore timeline must not survive it (peers drop theirs on
        // the ProgramRegister broadcast).
        site.memory.purge_replicas(snapshot.program);
        for obj in &snapshot.objects {
            site.memory.adopt_object(site, obj.clone());
        }
        // Adopt incomplete frames before executable ones: adopting an
        // executable frame starts it running, and its results must find
        // every waiting frame already registered — otherwise the
        // directory reports them unknown and the results are dropped.
        let (incomplete, executable): (Vec<_>, Vec<_>) = snapshot
            .frames
            .iter()
            .cloned()
            .partition(|f| !f.is_executable());
        for f in incomplete.into_iter().chain(executable) {
            site.memory.adopt_frame(site, Microframe::from_wire(f));
        }
        Ok(handle)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;
    use sdvm_types::{MicrothreadId, SchedulingHint, SiteId, Value};

    fn sample() -> ProgramSnapshot {
        ProgramSnapshot {
            program: ProgramId(65536),
            epoch: 3,
            name: "demo".into(),
            threads: 2,
            frames: vec![WireFrame {
                id: GlobalAddress::new(SiteId(1), 9),
                thread: MicrothreadId::new(ProgramId(65536), RESULT_THREAD_INDEX),
                slots: vec![None],
                targets: vec![],
                hint: SchedulingHint {
                    sticky: true,
                    ..Default::default()
                },
            }],
            objects: vec![WireMemObject {
                addr: GlobalAddress::new(SiteId(2), 4),
                program: ProgramId(65536),
                data: Value::from_u64(7),
                version: 2,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let s = sample();
        let back = ProgramSnapshot::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.result_addr(), Some(GlobalAddress::new(SiteId(1), 9)));
    }

    #[test]
    fn snapshot_file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sdvm-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        let s = sample();
        s.save_to_file(&path).unwrap();
        assert_eq!(ProgramSnapshot::load_from_file(&path).unwrap(), s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes.truncate(bytes.len() - 3);
        assert!(ProgramSnapshot::from_bytes(&bytes).is_err());
    }
}
