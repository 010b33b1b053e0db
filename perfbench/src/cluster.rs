//! Cluster construction through the public API (default `SiteConfig`)
//! and the counter deltas read through `SiteManager::status`.

use sdvm_core::managers::site_mgr::SiteStatus;
use sdvm_core::{AppRegistry, InProcessCluster, Site, SiteConfig, SiteMetrics};
use sdvm_net::{TcpTransport, Transport};
use sdvm_types::SdvmResult;
use std::sync::Arc;

/// The start password of the TCP clusters (turns on sealing).
const PASSWORD: &str = "sdvm-perfbench";

/// A running cluster: in-process on the memory transport, or one site per
/// TCP loopback listener.
pub enum Cluster {
    /// `InProcessCluster` (plain, `MemTransport`).
    InProcess(InProcessCluster),
    /// Sites on `TcpTransport`, with the start password set.
    Tcp(Vec<Site>),
}

impl Cluster {
    /// `n` plain in-process sites.
    pub fn in_process(n: usize) -> SdvmResult<Cluster> {
        Ok(Cluster::InProcess(InProcessCluster::new(
            n,
            SiteConfig::default(),
        )?))
    }

    /// `n` sites on encrypted TCP loopback; site 0 starts the cluster and
    /// the others sign on through it.
    pub fn tcp(n: usize) -> SdvmResult<Cluster> {
        let cfg = SiteConfig::default().with_password(PASSWORD);
        let registry = AppRegistry::new();
        let mut sites: Vec<Site> = Vec::with_capacity(n);
        for i in 0..n {
            let transport = TcpTransport::bind("127.0.0.1:0")?;
            let site = Site::new(
                cfg.clone(),
                transport as Arc<dyn Transport>,
                registry.clone(),
                None,
            );
            if i == 0 {
                site.start_first();
            } else {
                site.sign_on(&sites[0].addr())?;
            }
            sites.push(site);
        }
        Ok(Cluster::Tcp(sites))
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        match self {
            Cluster::InProcess(c) => c.len(),
            Cluster::Tcp(s) => s.len(),
        }
    }

    /// Site `i` (site 0 is the one programs are launched on).
    pub fn site(&self, i: usize) -> &Site {
        match self {
            Cluster::InProcess(c) => c.site(i),
            Cluster::Tcp(s) => &s[i],
        }
    }

    /// Every site's status.
    pub fn status(&self) -> Vec<SiteStatus> {
        (0..self.len())
            .map(|i| {
                let inner = self.site(i).inner();
                inner.site_mgr.status(inner)
            })
            .collect()
    }

    /// Largest outbound queue depth across the sites right now.
    pub fn outbound_depth_max(&self) -> usize {
        (0..self.len())
            .flat_map(|i| self.site(i).inner().transport.outbound_depths())
            .map(|(_, d)| d)
            .max()
            .unwrap_or(0)
    }
}

/// Sum of an exact histogram's `(count, sum)` over sites.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Hist {
    /// Observations.
    pub count: u64,
    /// Their sum (µs, or hops for the chase histogram).
    pub sum: u64,
}

impl Hist {
    /// Mean of the observations (0 when there are none).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn minus(self, before: Hist) -> Hist {
        Hist {
            count: self.count.saturating_sub(before.count),
            sum: self.sum.saturating_sub(before.sum),
        }
    }
}

/// The counters the benchmark reads, summed over the sites.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Messages sent.
    pub messages_sent: u64,
    /// Microframes executed.
    pub frames_executed: u64,
    /// Help requests sent.
    pub help_requests: u64,
    /// Help requests answered with a frame.
    pub help_granted: u64,
    /// Help round trips.
    pub help_rtt: Hist,
    /// Replica-served reads.
    pub replica_hits: u64,
    /// Reads a replica could not serve.
    pub replica_misses: u64,
    /// Replica invalidations.
    pub invalidations: u64,
    /// Ownership-chase hops per remote access.
    pub chase_hops: Hist,
    /// Seal (encode + encrypt + frame) times.
    pub seal: Hist,
    /// Open (decrypt + verify) times.
    pub open: Hist,
    /// Inbound dispatch times, per manager name.
    pub dispatch: Vec<(String, Hist)>,
    /// Transport backpressure stalls.
    pub backpressure_stalls: u64,
    /// Code fetched from a remote code site.
    pub remote_fetches: u64,
    /// Microthreads compiled on the fly.
    pub compiles: u64,
}

fn hist(h: &sdvm_core::HistogramSnapshot) -> Hist {
    Hist {
        count: h.count,
        sum: h.sum_us,
    }
}

impl Counters {
    /// Sum the counters of every site's status.
    pub fn read(cluster: &Cluster) -> Counters {
        let mut c = Counters::default();
        for st in cluster.status() {
            let m: &SiteMetrics = &st.metrics;
            c.messages_sent += m.messages_sent;
            c.frames_executed += m.frames_executed;
            c.help_requests += m.help_requests;
            c.help_granted += m.help_granted;
            c.help_rtt = add(c.help_rtt, hist(&m.help_rtt_us));
            c.replica_hits += m.mem_replica_hits;
            c.replica_misses += m.mem_replica_misses;
            c.invalidations += m.mem_invalidations;
            c.chase_hops = add(c.chase_hops, hist(&m.mem_chase_hops));
            c.seal = add(c.seal, hist(&m.seal_us));
            c.open = add(c.open, hist(&m.open_us));
            for (name, h) in &m.dispatch_us {
                match c.dispatch.iter_mut().find(|(n, _)| n == name) {
                    Some((_, acc)) => *acc = add(*acc, hist(h)),
                    None => c.dispatch.push((name.clone(), hist(h))),
                }
            }
            c.backpressure_stalls += m.backpressure_stalls;
            c.remote_fetches += st.code_stats.remote_fetches;
            c.compiles += st.code_stats.compiles;
        }
        c
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Counters {
            messages_sent: d(self.messages_sent, before.messages_sent),
            frames_executed: d(self.frames_executed, before.frames_executed),
            help_requests: d(self.help_requests, before.help_requests),
            help_granted: d(self.help_granted, before.help_granted),
            help_rtt: self.help_rtt.minus(before.help_rtt),
            replica_hits: d(self.replica_hits, before.replica_hits),
            replica_misses: d(self.replica_misses, before.replica_misses),
            invalidations: d(self.invalidations, before.invalidations),
            chase_hops: self.chase_hops.minus(before.chase_hops),
            seal: self.seal.minus(before.seal),
            open: self.open.minus(before.open),
            dispatch: self
                .dispatch
                .iter()
                .map(|(name, h)| {
                    let b = before
                        .dispatch
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(Hist::default(), |(_, h)| *h);
                    (name.clone(), h.minus(b))
                })
                .collect(),
            backpressure_stalls: d(self.backpressure_stalls, before.backpressure_stalls),
            remote_fetches: d(self.remote_fetches, before.remote_fetches),
            compiles: d(self.compiles, before.compiles),
        }
    }

    /// Mean dispatch time of manager `name` (µs).
    pub fn dispatch_mean(&self, name: &str) -> f64 {
        self.dispatch
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, h)| h.mean())
    }
}

fn add(a: Hist, b: Hist) -> Hist {
    Hist {
        count: a.count + b.count,
        sum: a.sum + b.sum,
    }
}
