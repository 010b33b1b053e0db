//! Manager-level behaviour on live sites: cluster bookkeeping,
//! attraction-memory protocol details, succession, load gossip and the
//! security envelope.

#![allow(clippy::field_reassign_with_default)] // config structs are built by mutation by design
#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::managers::memory::MEM_SHARDS;
use sdvm_core::{InProcessCluster, SiteConfig};
use sdvm_types::{ManagerId, SiteId, Value};
use sdvm_wire::Payload;
use std::time::Duration;

#[test]
fn cluster_view_converges_after_joins() {
    let mut cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    for _ in 0..4 {
        cluster.add_site(SiteConfig::default()).unwrap();
    }
    // The contact (site 0) knows everyone instantly; the others converge
    // as the SiteAnnounce gossip lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let complete =
            (0..cluster.len()).all(|i| cluster.site(i).inner().cluster.known_sites().len() == 5);
        if complete {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "views never converged: {:?}",
            (0..cluster.len())
                .map(|i| cluster.site(i).inner().cluster.known_sites().len())
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn successor_ring_and_succession_chain() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    // Ring over ids {1,2,3}.
    assert_eq!(s0.cluster.successor_of(SiteId(1)), Some(SiteId(2)));
    assert_eq!(s0.cluster.successor_of(SiteId(2)), Some(SiteId(3)));
    assert_eq!(
        s0.cluster.successor_of(SiteId(3)),
        Some(SiteId(1)),
        "ring wraps"
    );
    // No succession registered: identity.
    assert_eq!(s0.cluster.resolve_succession(SiteId(2)), SiteId(2));
}

#[test]
fn signoff_installs_succession() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let gone = cluster.site(1).id();
    cluster.sign_off(1).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let s0 = cluster.site(0).inner();
    assert!(!s0.cluster.known_sites().contains(&gone));
    let heir = s0.cluster.resolve_succession(gone);
    assert_ne!(
        heir, gone,
        "departed site's directory role must be inherited"
    );
}

#[test]
fn first_site_is_code_distribution_site() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s1 = cluster.site(1).inner();
    assert_eq!(
        s1.cluster.code_distribution_sites(),
        vec![SiteId(1)],
        "paper: the starting site is implicitly a code distribution site"
    );
}

#[test]
fn memory_local_alloc_read_write() {
    let cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    let s = cluster.site(0).inner();
    let program = sdvm_types::ProgramId(1);
    let a = s.memory.alloc(s, program, Value::from_u64(5));
    let b = s.memory.alloc(s, program, Value::from_u64(6));
    assert_ne!(a, b, "addresses are unique");
    assert_eq!(a.home, cluster.site(0).id(), "homesite is the creator");
    assert_eq!(s.memory.read(s, a, false).unwrap().as_u64().unwrap(), 5);
    s.memory.write(s, a, Value::from_u64(50)).unwrap();
    assert_eq!(s.memory.read(s, a, true).unwrap().as_u64().unwrap(), 50);
    let stats = s.memory.stats();
    assert_eq!((stats.objects, stats.frames), (2, 0));
    assert_eq!(stats.memory_bytes, 16);
    s.memory.purge_program(program);
    assert_eq!(s.memory.stats().objects, 0);
}

#[test]
fn remote_read_copy_vs_migrate() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let program = sdvm_types::ProgramId(1);
    let addr = s0.memory.alloc(s0, program, Value::from_u64(7));
    // Snapshot copy: object stays on site 1 (id 1).
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(
        s0.memory.stats().objects,
        1,
        "copy must not move the object"
    );
    // Migrating read attracts it.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    assert_eq!(
        s0.memory.stats().objects,
        0,
        "object must have migrated away"
    );
    assert_eq!(s1.memory.stats().objects, 1);
    // Writes still reach it through the homesite directory.
    s0.memory.write(s0, addr, Value::from_u64(70)).unwrap();
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        70
    );
}

#[test]
fn ping_pong_between_sites() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let reply = s0
        .request(
            cluster.site(1).id(),
            ManagerId::Site,
            ManagerId::Site,
            Payload::Ping { token: 1234 },
            Duration::from_secs(5),
        )
        .unwrap();
    assert_eq!(reply.payload, Payload::Pong { token: 1234 });
    assert_eq!(reply.src_site, cluster.site(1).id());
}

#[test]
fn load_gossip_flows_with_heartbeats() {
    let mut cfg = SiteConfig::default();
    cfg.heartbeat_interval = Duration::from_millis(30);
    let cluster = InProcessCluster::new(2, cfg).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // Both sites have heard from each other recently (picked up via
    // note_load); pick_help_target therefore has candidates.
    let s0 = cluster.site(0).inner();
    assert_eq!(s0.cluster.pick_help_target(s0), Some(cluster.site(1).id()));
}

#[test]
fn unknown_payload_to_manager_yields_error_reply() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    // A Ping aimed at the *memory* manager is nonsense; the manager must
    // answer with an error instead of dropping the request.
    let reply = s0
        .request(
            cluster.site(1).id(),
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::Ping { token: 1 },
            Duration::from_secs(5),
        )
        .unwrap();
    assert!(matches!(reply.payload, Payload::Error { .. }));
}

#[test]
fn program_manager_registers_and_terminates() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let mut app = sdvm_core::AppBuilder::new("meta");
    let t = app.thread("t", |ctx| {
        let tgt = ctx.target(0)?;
        ctx.send(tgt, 0, Value::from_u64(1))
    });
    let handle = cluster
        .site(0)
        .launch(&app, |ctx, result| {
            let f = ctx.create_frame(t, 1, vec![result], Default::default());
            ctx.send(f, 0, Value::empty())
        })
        .unwrap();
    let s1 = cluster.site(1).inner();
    // The launch broadcast registered the program cluster-wide.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.program.code_home(handle.program).is_none() {
        assert!(
            std::time::Instant::now() < deadline,
            "program never registered remotely"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        s1.program.code_home(handle.program),
        Some(cluster.site(0).id())
    );
    handle.wait(Duration::from_secs(30)).unwrap();
    // Termination propagates; the remote site marks it inactive.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.program.is_active(handle.program) {
        assert!(
            std::time::Instant::now() < deadline,
            "termination never propagated"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
#[should_panic(expected = "at least one processing slot")]
fn zero_slots_rejected() {
    let mut cfg = SiteConfig::default();
    cfg.slots = 0;
    let _ = InProcessCluster::new(1, cfg);
}

#[test]
fn plaintext_site_cannot_join_encrypted_cluster() {
    let mut cluster =
        InProcessCluster::new(1, SiteConfig::default().with_password("secret")).unwrap();
    // A site with NO password at all: its plaintext sign-on is rejected
    // by the contact's security manager.
    let mut cfg = SiteConfig::default();
    cfg.request_timeout = Duration::from_millis(400);
    assert!(cluster.add_site(cfg).is_err());
}

#[test]
fn message_hops_follow_figure6_order() {
    use sdvm_core::{TraceEvent, TraceLog};
    let trace = TraceLog::new();
    let cluster =
        InProcessCluster::with_configs(vec![SiteConfig::default(); 2], Some(trace.clone()))
            .unwrap();
    let s0 = cluster.site(0).inner();
    s0.request(
        cluster.site(1).id(),
        ManagerId::Site,
        ManagerId::Site,
        Payload::Ping { token: 5 },
        Duration::from_secs(5),
    )
    .unwrap();
    // Outgoing: the Ping passes the message manager, then the network
    // manager — in that order (Fig. 6).
    let hops: Vec<(SiteId, ManagerId, bool)> = trace
        .filter(|e| {
            matches!(
                e,
                TraceEvent::MessageHop {
                    payload: "Ping",
                    ..
                }
            )
        })
        .into_iter()
        .map(|e| match e {
            TraceEvent::MessageHop {
                site,
                manager,
                outgoing,
                ..
            } => (site, manager, outgoing),
            _ => unreachable!(),
        })
        .collect();
    let me = cluster.site(0).id();
    let peer = cluster.site(1).id();
    assert!(hops.len() >= 3, "{hops:?}");
    assert_eq!(hops[0], (me, ManagerId::Message, true));
    assert_eq!(hops[1], (me, ManagerId::Network, true));
    // Receiving side: delivered to the target manager.
    assert!(hops.contains(&(peer, ManagerId::Site, false)), "{hops:?}");
}

// ---- attraction memory v2: versioned read replicas ----

#[test]
fn replica_read_caches_and_serves_locally() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // First non-migrating read fetches remotely and caches a replica.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.replica_version(addr), Some(1), "replica cached");
    assert_eq!(s1.memory.stats().replicas, 1);
    let misses = s1.metrics.mem_replica_misses.get();
    assert!(misses >= 1, "first read is a miss");
    // Second read is served from the cache, no new miss.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert!(s1.metrics.mem_replica_hits.get() >= 1, "repeat read hits");
    assert_eq!(s1.metrics.mem_replica_misses.get(), misses);
    // The owner tracks the reader in its copyset; the object stayed put.
    assert_eq!(s0.memory.stats().objects, 1);
}

#[test]
fn write_invalidates_remote_replicas() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.replica_version(addr), Some(1));
    // Owner writes: the copyset gets ReplicaInvalidate, s1 drops its copy.
    s0.memory.write(s0, addr, Value::from_u64(70)).unwrap();
    assert_eq!(
        s0.memory.object_version(addr),
        Some(2),
        "write bumps version"
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while s1.memory.replica_version(addr).is_some() {
        assert!(
            std::time::Instant::now() < deadline,
            "invalidation never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(s1.metrics.mem_invalidations.get() >= 1);
    // The next read re-fetches the new value (and the new version).
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        70
    );
    assert_eq!(s1.memory.replica_version(addr), Some(2));
}

#[test]
fn replica_ttl_bounds_staleness() {
    let mut config = SiteConfig::default().with_replica_ttl(Duration::from_millis(30));
    config.crash_tolerance = false;
    let cluster = InProcessCluster::new(2, config).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    let misses = s1.metrics.mem_replica_misses.get();
    std::thread::sleep(Duration::from_millis(60));
    // The lease expired: even with the replica still cached, the read
    // goes remote again instead of trusting a possibly-stale copy.
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert!(s1.metrics.mem_replica_misses.get() > misses);
}

#[test]
fn migration_leaves_forwarding_hint() {
    let cluster = InProcessCluster::new(3, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let s2 = cluster.site(2).inner();
    let addr = s0
        .memory
        .alloc(s0, sdvm_types::ProgramId(1), Value::from_u64(7));
    // Attract the object to site 1.
    assert_eq!(s1.memory.read(s1, addr, true).unwrap().as_u64().unwrap(), 7);
    // Ask the *old* owner directly: it must answer MemMissing with a
    // forwarding hint pointing at the new owner.
    let reply = s2
        .request(
            cluster.site(0).id(),
            ManagerId::Memory,
            ManagerId::Memory,
            Payload::MemRead {
                addr,
                migrate: false,
                replica: false,
            },
            Duration::from_secs(5),
        )
        .unwrap();
    match reply.payload {
        Payload::MemMissing { hint, .. } => {
            assert_eq!(hint, Some(cluster.site(1).id()), "hint chases migration");
        }
        other => panic!("expected MemMissing with hint, got {}", other.name()),
    }
    // And a full read through the protocol still resolves.
    assert_eq!(
        s2.memory.read(s2, addr, false).unwrap().as_u64().unwrap(),
        7
    );
}

#[test]
fn shard_contention_is_reported_per_shard() {
    let cluster = InProcessCluster::new(1, SiteConfig::default()).unwrap();
    let s = cluster.site(0).inner();
    assert_eq!(s.memory.shard_count(), MEM_SHARDS);
    assert_eq!(s.memory.stats().shard_contention.len(), MEM_SHARDS);
}

#[test]
fn purge_program_drops_replicas_and_copysets() {
    let cluster = InProcessCluster::new(2, SiteConfig::default()).unwrap();
    let s0 = cluster.site(0).inner();
    let s1 = cluster.site(1).inner();
    let program = sdvm_types::ProgramId(1);
    let addr = s0.memory.alloc(s0, program, Value::from_u64(7));
    assert_eq!(
        s1.memory.read(s1, addr, false).unwrap().as_u64().unwrap(),
        7
    );
    assert_eq!(s1.memory.stats().replicas, 1);
    s1.memory.purge_program(program);
    assert_eq!(s1.memory.stats().replicas, 0, "purge drops cached replicas");
    s1.memory.purge_replicas(program); // idempotent
    assert_eq!(s1.memory.stats().replicas, 0);
}
