//! Prometheus text-format correctness: metric-name validity, HELP/TYPE
//! pairing for every family, label syntax and escaping, and a golden
//! test pinning the full family list against DESIGN.md §5.1 — so a PR
//! that adds a counter without documenting it fails loudly.

#![allow(clippy::disallowed_methods)] // tests may unwrap

use sdvm_core::telemetry::{prom_label_escape, SCALAR_FAMILIES};
use sdvm_core::{
    cluster_prometheus_text, digest_of, prometheus_text, ClusterRollup, HistogramSnapshot,
    SiteMetrics,
};
use sdvm_types::SiteId;
use std::collections::{BTreeMap, BTreeSet};

/// A populated per-site exposition plus the cluster rollup rendering —
/// together these emit every family the ops plane can serve, except
/// `sdvm_postmortems_written` (appended by the HTTP listener only when
/// the flight recorder is armed).
fn full_exposition() -> (String, String) {
    let m = SiteMetrics {
        messages_sent: 7,
        frames_executed: 5,
        bus_dropped: 1,
        mem_shard_contention: vec![0, 3],
        career_total_us: HistogramSnapshot {
            count: 2,
            sum_us: 300,
            buckets: vec![0, 1, 1],
        },
        dispatch_us: vec![("scheduling".to_string(), HistogramSnapshot::default())],
        ..Default::default()
    };
    let per_site = prometheus_text(&[(SiteId(1), m)]);

    let rollup = ClusterRollup::new();
    rollup.record(SiteId(1), digest_of(&SiteMetrics::default()));
    rollup.record(SiteId(2), digest_of(&SiteMetrics::default()));
    let cluster = cluster_prometheus_text(&rollup.totals());
    (per_site, cluster)
}

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn is_valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Prometheus label names: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn is_valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Family name → declared TYPE, from `# TYPE` comment lines.
fn families(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|rest| {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line names a family").to_string();
            let kind = it.next().expect("TYPE line names a kind").to_string();
            (name, kind)
        })
        .collect()
}

/// Split one sample line into (metric name, label pairs, value token).
fn parse_sample(line: &str) -> (String, Vec<(String, String)>, String) {
    if let Some(brace) = line.find('{') {
        let name = line[..brace].to_string();
        let close = line
            .rfind('}')
            .unwrap_or_else(|| panic!("unclosed label set: {line}"));
        let labels_raw = &line[brace + 1..close];
        let value = line[close + 1..].trim().to_string();
        // Split on commas outside quotes (label values may contain them).
        let mut pairs = Vec::new();
        let mut depth_quote = false;
        let mut cur = String::new();
        let mut chars = labels_raw.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    depth_quote = !depth_quote;
                    cur.push(c);
                }
                '\\' if depth_quote => {
                    cur.push(c);
                    if let Some(n) = chars.next() {
                        cur.push(n);
                    }
                }
                ',' if !depth_quote => {
                    pairs.push(std::mem::take(&mut cur));
                }
                c => cur.push(c),
            }
        }
        if !cur.is_empty() {
            pairs.push(cur);
        }
        let pairs = pairs
            .into_iter()
            .map(|p| {
                let eq = p
                    .find('=')
                    .unwrap_or_else(|| panic!("label without '=': {p}"));
                let (k, v) = (p[..eq].to_string(), p[eq + 1..].to_string());
                assert!(
                    v.len() >= 2 && v.starts_with('"') && v.ends_with('"'),
                    "label value must be quoted: {p}"
                );
                (k, v[1..v.len() - 1].to_string())
            })
            .collect();
        (name, pairs, value)
    } else {
        let mut it = line.split_whitespace();
        let name = it.next().expect("sample has a name").to_string();
        let value = it.next().expect("sample has a value").to_string();
        (name, Vec::new(), value)
    }
}

/// Validate a whole exposition body: every TYPE has exactly one HELP (and
/// vice versa), every sample line names a declared family (modulo
/// histogram `_bucket`/`_sum`/`_count` suffixes), names and labels are
/// syntactically valid, and every value parses.
fn validate_exposition(text: &str) {
    let fams = families(text);
    assert!(!fams.is_empty(), "exposition declares at least one family");

    for (name, kind) in &fams {
        assert!(is_valid_metric_name(name), "invalid family name: {name}");
        assert!(
            matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
            "unexpected TYPE kind for {name}: {kind}"
        );
        let helps = text
            .lines()
            .filter(|l| {
                l.strip_prefix("# HELP ")
                    .is_some_and(|r| r.split_whitespace().next() == Some(name.as_str()))
            })
            .count();
        let types = text
            .lines()
            .filter(|l| {
                l.strip_prefix("# TYPE ")
                    .is_some_and(|r| r.split_whitespace().next() == Some(name.as_str()))
            })
            .count();
        assert_eq!(helps, 1, "{name} must have exactly one HELP line");
        assert_eq!(types, 1, "{name} must have exactly one TYPE line");
    }

    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (name, labels, value) = parse_sample(line);
        assert!(is_valid_metric_name(&name), "invalid sample name: {name}");
        // Resolve histogram series suffixes back to their family.
        let base = ["_bucket", "_sum", "_count"]
            .iter()
            .filter_map(|suf| name.strip_suffix(suf))
            .find(|base| fams.get(*base).map(String::as_str) == Some("histogram"))
            .unwrap_or(&name)
            .to_string();
        assert!(
            fams.contains_key(&base),
            "sample {name} has no HELP/TYPE declaration (family {base})"
        );
        for (k, v) in &labels {
            assert!(is_valid_label_name(k), "invalid label name {k} in {line}");
            // Raw control characters and unescaped quotes must not
            // appear inside a rendered label value.
            assert!(
                !v.contains('\n'),
                "unescaped newline in label value: {line}"
            );
            let mut chars = v.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    let n = chars.next();
                    assert!(
                        matches!(n, Some('\\') | Some('"') | Some('n')),
                        "bad escape in label value {v:?} ({line})"
                    );
                } else {
                    assert!(c != '"', "unescaped quote in label value: {line}");
                }
            }
        }
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value {value:?} in: {line}"
        );
        // Histogram bucket series must carry an `le` label.
        if name.ends_with("_bucket") && fams.get(&base).map(String::as_str) == Some("histogram") {
            assert!(
                labels.iter().any(|(k, _)| k == "le"),
                "bucket series without le label: {line}"
            );
        }
    }
}

#[test]
fn per_site_exposition_is_well_formed() {
    let (per_site, _) = full_exposition();
    validate_exposition(&per_site);
}

#[test]
fn cluster_exposition_is_well_formed() {
    let (_, cluster) = full_exposition();
    validate_exposition(&cluster);
    // Quantile gauges carry the q label with the three pinned points.
    for q in ["0.5", "0.99", "0.999"] {
        assert!(
            cluster.contains(&format!(
                "sdvm_cluster_frame_career_quantile_us{{q=\"{q}\"}}"
            )),
            "missing career quantile q={q}"
        );
    }
}

#[test]
fn label_escaping_round_trips_hostile_values() {
    assert_eq!(prom_label_escape("plain"), "plain");
    assert_eq!(prom_label_escape(r#"a"b"#), r#"a\"b"#);
    assert_eq!(prom_label_escape(r"a\b"), r"a\\b");
    assert_eq!(prom_label_escape("a\nb"), r"a\nb");
    // A hostile value rendered into a label survives the validator.
    let hostile = prom_label_escape("evil\"} 9\ninjected_metric 1");
    let line = format!("sdvm_test_metric{{name=\"{hostile}\"}} 1");
    let (name, labels, value) = parse_sample(&line);
    assert_eq!(name, "sdvm_test_metric");
    assert_eq!(labels.len(), 1, "escaped value must stay one label");
    assert_eq!(value, "1");
}

/// The metric table and the exporter cannot drift: the generated scalar
/// family list plus the two hand-written labelled families is exactly
/// the per-site family set `prometheus_text` emits, each with the
/// table's TYPE.
#[test]
fn scalar_table_matches_per_site_exposition() {
    let mut expected: BTreeMap<String, String> = SCALAR_FAMILIES
        .iter()
        .map(|f| (f.name.to_string(), f.kind.as_str().to_string()))
        .collect();
    assert_eq!(
        expected.len(),
        SCALAR_FAMILIES.len(),
        "a family name appears twice in the table"
    );
    expected.insert("sdvm_dispatch_us".to_string(), "histogram".to_string());
    expected.insert("sdvm_mem_shard_contention".to_string(), "gauge".to_string());
    let (per_site, _) = full_exposition();
    assert_eq!(families(&per_site), expected);
}

/// The golden drift-catcher: the union of families actually emitted by
/// `prometheus_text` + `cluster_prometheus_text` (plus the recorder
/// gauge the HTTP listener appends) must exactly match the canonical
/// list documented in DESIGN.md §5.1.
#[test]
fn family_list_matches_design_doc() {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"))
        .expect("DESIGN.md at the repo root");
    let block = design
        .split("<!-- prom-families:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- prom-families:end -->").next())
        .expect("DESIGN.md carries the prom-families markers");
    let documented: BTreeSet<String> = block
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("```"))
        .map(str::to_string)
        .collect();
    assert!(
        documented.len() > 40,
        "suspiciously short documented family list: {}",
        documented.len()
    );

    let (per_site, cluster) = full_exposition();
    let mut emitted: BTreeSet<String> = families(&per_site).into_keys().collect();
    emitted.extend(families(&cluster).into_keys());
    // Appended by the ops HTTP listener only when the flight recorder
    // is armed (crates/core/src/telemetry/http.rs).
    emitted.insert("sdvm_postmortems_written".to_string());

    let undocumented: Vec<_> = emitted.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty(),
        "families emitted but missing from DESIGN.md §5.1: {undocumented:?}"
    );
    assert!(
        stale.is_empty(),
        "families documented in DESIGN.md §5.1 but never emitted: {stale:?}"
    );
}
