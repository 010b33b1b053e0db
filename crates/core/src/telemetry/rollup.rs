//! Cluster-wide metrics rollup (ops plane, wire v7).
//!
//! Every heartbeat tick a site condenses its [`SiteMetrics`] snapshot
//! into a [`WireMetricsSummary`] digest and piggybacks it on the
//! heartbeat fan-out. Receivers store the digest latest-wins per
//! sender, so *any* site can serve cluster totals without a central
//! scrape: counters are cumulative (sums are meaningful) and the
//! histogram digests merge by element-wise bucket addition, which keeps
//! quantile estimates exact at bucket granularity.

use crate::telemetry::export::{write_header, write_histogram_series};
use crate::telemetry::metrics::{HistogramSnapshot, MetricKind, SiteMetrics, HISTOGRAM_BUCKETS};
use parking_lot::Mutex;
use sdvm_types::SiteId;
use sdvm_wire::WireMetricsSummary;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Condense a full per-site metrics snapshot into the small wire digest
/// that rides heartbeats.
pub fn digest_of(m: &SiteMetrics) -> WireMetricsSummary {
    WireMetricsSummary {
        messages_sent: m.messages_sent,
        messages_received: m.messages_received,
        frames_executed: m.frames_executed,
        frames_retried: m.frames_retried,
        frames_quarantined: m.frames_quarantined,
        crashes_declared: m.crashes_declared,
        help_requests: m.help_requests,
        help_granted: m.help_granted,
        career_sum_us: m.career_total_us.sum_us,
        career_buckets: m.career_total_us.buckets.clone(),
        help_rtt_sum_us: m.help_rtt_us.sum_us,
        help_rtt_buckets: m.help_rtt_us.buckets.clone(),
    }
}

/// Cluster totals merged from every known per-site digest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterTotals {
    /// Sites contributing a digest (the local one included).
    pub sites: usize,
    /// Summed cumulative counters, in digest field order.
    pub messages_sent: u64,
    /// Messages received across the cluster.
    pub messages_received: u64,
    /// Microframes executed across the cluster.
    pub frames_executed: u64,
    /// Microframe retries across the cluster.
    pub frames_retried: u64,
    /// Microframes quarantined as poison across the cluster.
    pub frames_quarantined: u64,
    /// Crash verdicts declared across the cluster.
    pub crashes_declared: u64,
    /// Help requests sent across the cluster.
    pub help_requests: u64,
    /// Help requests granted across the cluster.
    pub help_granted: u64,
    /// Merged frame-career histogram (element-wise bucket sums).
    pub career_us: HistogramSnapshot,
    /// Merged help round-trip histogram.
    pub help_rtt_us: HistogramSnapshot,
}

/// Fold one wire-length bucket vector into a fixed-width accumulator,
/// clamping oversized digests into the overflow bucket so a hostile or
/// future sender cannot make us index out of range.
fn merge_buckets(acc: &mut [u64; HISTOGRAM_BUCKETS], wire: &[u64]) {
    for (i, v) in wire.iter().enumerate() {
        acc[i.min(HISTOGRAM_BUCKETS - 1)] = acc[i.min(HISTOGRAM_BUCKETS - 1)].saturating_add(*v);
    }
}

/// Latest-wins store of per-site digests, keyed by sender.
#[derive(Default)]
pub struct ClusterRollup {
    digests: Mutex<HashMap<SiteId, WireMetricsSummary>>,
}

impl ClusterRollup {
    /// Fresh, empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `summary` as the latest digest from `site` (cumulative, so
    /// latest-wins is lossless).
    pub fn record(&self, site: SiteId, summary: WireMetricsSummary) {
        self.digests.lock().insert(site, summary);
    }

    /// Drop the digest of a site declared crashed — its counters stop
    /// contributing to cluster totals once the verdict lands.
    pub fn forget(&self, site: SiteId) {
        self.digests.lock().remove(&site);
    }

    /// All stored digests, sorted by site id.
    pub fn snapshot(&self) -> Vec<(SiteId, WireMetricsSummary)> {
        let mut v: Vec<_> = self
            .digests
            .lock()
            .iter()
            .map(|(s, d)| (*s, d.clone()))
            .collect();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Merge every stored digest into cluster totals.
    pub fn totals(&self) -> ClusterTotals {
        let digests = self.digests.lock();
        let mut t = ClusterTotals {
            sites: digests.len(),
            ..Default::default()
        };
        let mut career = [0u64; HISTOGRAM_BUCKETS];
        let mut help_rtt = [0u64; HISTOGRAM_BUCKETS];
        for d in digests.values() {
            t.messages_sent = t.messages_sent.saturating_add(d.messages_sent);
            t.messages_received = t.messages_received.saturating_add(d.messages_received);
            t.frames_executed = t.frames_executed.saturating_add(d.frames_executed);
            t.frames_retried = t.frames_retried.saturating_add(d.frames_retried);
            t.frames_quarantined = t.frames_quarantined.saturating_add(d.frames_quarantined);
            t.crashes_declared = t.crashes_declared.saturating_add(d.crashes_declared);
            t.help_requests = t.help_requests.saturating_add(d.help_requests);
            t.help_granted = t.help_granted.saturating_add(d.help_granted);
            t.career_us.sum_us = t.career_us.sum_us.saturating_add(d.career_sum_us);
            t.help_rtt_us.sum_us = t.help_rtt_us.sum_us.saturating_add(d.help_rtt_sum_us);
            merge_buckets(&mut career, &d.career_buckets);
            merge_buckets(&mut help_rtt, &d.help_rtt_buckets);
        }
        t.career_us.buckets = career.to_vec();
        t.career_us.count = career.iter().sum();
        t.help_rtt_us.buckets = help_rtt.to_vec();
        t.help_rtt_us.count = help_rtt.iter().sum();
        t
    }
}

/// Render the cluster rollup as Prometheus text-format families
/// (`sdvm_cluster_*`), appended after the per-site families on
/// `GET /metrics`. Quantiles are estimated from the merged buckets via
/// [`HistogramSnapshot::quantile`] and exposed as plain gauges with a
/// `q` label (summaries can't be aggregated; these are honest
/// bucket-merge estimates, labelled as such in HELP).
pub fn cluster_prometheus_text(t: &ClusterTotals) -> String {
    let mut out = String::with_capacity(4096);
    write_header(
        &mut out,
        "sdvm_cluster_sites",
        MetricKind::Gauge,
        "Sites contributing a metrics digest to this rollup.",
    );
    let _ = writeln!(out, "sdvm_cluster_sites {}", t.sites);
    let counters: [(&str, &str, u64); 8] = [
        (
            "sdvm_cluster_messages_sent_total",
            "SDMessages sent, summed across the cluster.",
            t.messages_sent,
        ),
        (
            "sdvm_cluster_messages_received_total",
            "SDMessages received, summed across the cluster.",
            t.messages_received,
        ),
        (
            "sdvm_cluster_frames_executed_total",
            "Microframes executed, summed across the cluster.",
            t.frames_executed,
        ),
        (
            "sdvm_cluster_frames_retried_total",
            "Microframe retries, summed across the cluster.",
            t.frames_retried,
        ),
        (
            "sdvm_cluster_frames_quarantined_total",
            "Microframes quarantined as poison, summed across the cluster.",
            t.frames_quarantined,
        ),
        (
            "sdvm_cluster_crashes_declared_total",
            "Crash verdicts declared, summed across the cluster.",
            t.crashes_declared,
        ),
        (
            "sdvm_cluster_help_requests_total",
            "Help requests sent, summed across the cluster.",
            t.help_requests,
        ),
        (
            "sdvm_cluster_help_granted_total",
            "Help requests granted, summed across the cluster.",
            t.help_granted,
        ),
    ];
    for (name, help, v) in counters {
        write_header(&mut out, name, MetricKind::Counter, help);
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, help, h) in [
        (
            "sdvm_cluster_frame_career_us",
            "Microframe career time (creation to execution), merged across the cluster.",
            &t.career_us,
        ),
        (
            "sdvm_cluster_help_rtt_us",
            "Help request round-trip time, merged across the cluster.",
            &t.help_rtt_us,
        ),
    ] {
        write_header(&mut out, name, MetricKind::Histogram, help);
        write_histogram_series(&mut out, name, "", h);
    }
    write_quantiles(
        &mut out,
        "sdvm_cluster_frame_career_quantile_us",
        "Frame career quantile estimate from merged log2 buckets.",
        &t.career_us,
    );
    write_quantiles(
        &mut out,
        "sdvm_cluster_help_rtt_quantile_us",
        "Help round-trip quantile estimate from merged log2 buckets.",
        &t.help_rtt_us,
    );
    out
}

/// p50/p99/p999 gauges with a `q` label, estimated from merged buckets.
fn write_quantiles(out: &mut String, name: &str, help: &str, h: &HistogramSnapshot) {
    write_header(out, name, MetricKind::Gauge, help);
    for (label, p) in [("0.5", 0.5), ("0.99", 0.99), ("0.999", 0.999)] {
        let _ = writeln!(out, "{name}{{q=\"{label}\"}} {}", h.quantile(p));
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may unwrap
mod tests {
    use super::*;

    fn digest(base: u64, buckets: Vec<u64>) -> WireMetricsSummary {
        WireMetricsSummary {
            messages_sent: base,
            messages_received: base + 1,
            frames_executed: base + 2,
            frames_retried: 0,
            frames_quarantined: 0,
            crashes_declared: 0,
            help_requests: base,
            help_granted: base,
            career_sum_us: base * 100,
            career_buckets: buckets,
            help_rtt_sum_us: 0,
            help_rtt_buckets: vec![],
        }
    }

    #[test]
    fn totals_sum_counters_and_merge_buckets() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(10, vec![0, 2, 4]));
        r.record(SiteId(2), digest(5, vec![1, 1, 1, 8]));
        let t = r.totals();
        assert_eq!(t.sites, 2);
        assert_eq!(t.messages_sent, 15);
        assert_eq!(t.frames_executed, 19, "base+2 from each of the two digests");
        assert_eq!(t.career_us.sum_us, 1500);
        assert_eq!(t.career_us.count, 17);
        assert_eq!(&t.career_us.buckets[..4], &[1, 3, 5, 8]);
        assert_eq!(t.career_us.buckets.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn latest_wins_and_forget_drops() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(10, vec![]));
        r.record(SiteId(1), digest(20, vec![]));
        assert_eq!(r.totals().messages_sent, 20, "latest digest wins");
        r.forget(SiteId(1));
        assert_eq!(r.totals().sites, 0);
    }

    #[test]
    fn oversized_wire_buckets_clamp_into_overflow() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(0, vec![1; HISTOGRAM_BUCKETS + 10]));
        let t = r.totals();
        assert_eq!(t.career_us.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(t.career_us.buckets[HISTOGRAM_BUCKETS - 1], 11);
        assert_eq!(t.career_us.count, (HISTOGRAM_BUCKETS + 10) as u64);
    }

    #[test]
    fn cluster_text_renders_all_families() {
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest(3, vec![0, 1, 2, 3]));
        let text = cluster_prometheus_text(&r.totals());
        for fam in [
            "sdvm_cluster_sites",
            "sdvm_cluster_messages_sent_total",
            "sdvm_cluster_messages_received_total",
            "sdvm_cluster_frames_executed_total",
            "sdvm_cluster_frames_retried_total",
            "sdvm_cluster_frames_quarantined_total",
            "sdvm_cluster_crashes_declared_total",
            "sdvm_cluster_help_requests_total",
            "sdvm_cluster_help_granted_total",
            "sdvm_cluster_frame_career_us",
            "sdvm_cluster_help_rtt_us",
            "sdvm_cluster_frame_career_quantile_us",
            "sdvm_cluster_help_rtt_quantile_us",
        ] {
            assert!(
                text.contains(&format!("# TYPE {fam} ")),
                "missing TYPE for {fam}"
            );
            assert!(
                text.contains(&format!("# HELP {fam} ")),
                "missing HELP for {fam}"
            );
        }
        assert!(text.contains("sdvm_cluster_frame_career_us_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("sdvm_cluster_frame_career_quantile_us{q=\"0.5\"}"));
        assert!(text.contains("sdvm_cluster_frame_career_quantile_us{q=\"0.999\"}"));
    }

    #[test]
    fn digest_of_copies_the_right_fields() {
        let m = SiteMetrics {
            messages_sent: 7,
            frames_executed: 3,
            career_total_us: HistogramSnapshot {
                count: 0,
                sum_us: 900,
                buckets: vec![0, 1, 2],
            },
            ..Default::default()
        };
        let d = digest_of(&m);
        assert_eq!(d.messages_sent, 7);
        assert_eq!(d.frames_executed, 3);
        assert_eq!(d.career_sum_us, 900);
        assert_eq!(d.career_buckets, vec![0, 1, 2]);
    }

    #[test]
    fn cluster_and_site_histograms_share_le_bounds() {
        // One 1024 µs sample lands in bucket [1024, 2048): both
        // renderings must bound it by le="2047", with 0 under le="1023".
        let h = crate::telemetry::Histogram::default();
        h.observe(1024);
        let m = SiteMetrics {
            career_total_us: h.snapshot(),
            ..Default::default()
        };
        let r = ClusterRollup::new();
        r.record(SiteId(1), digest_of(&m));
        let site_text = crate::telemetry::prometheus_text(&[(SiteId(1), m)]);
        let cluster_text = cluster_prometheus_text(&r.totals());
        let buckets = |text: &str, prefix: &str| -> Vec<(String, u64)> {
            text.lines()
                .filter_map(|l| l.strip_prefix(prefix)?.strip_prefix("le=\""))
                .map(|rest| {
                    let (le, v) = rest.split_once("\"} ").unwrap();
                    (le.to_string(), v.parse().unwrap())
                })
                .collect()
        };
        let site = buckets(&site_text, "sdvm_frame_career_us_bucket{site=\"1\",");
        let cluster = buckets(&cluster_text, "sdvm_cluster_frame_career_us_bucket{");
        assert_eq!(site.len(), HISTOGRAM_BUCKETS);
        assert_eq!(site, cluster);
        assert!(site.contains(&("1023".to_string(), 0)));
        assert!(site.contains(&("2047".to_string(), 1)));
    }
}
