//! Consistency guards for the Prometheus exposition.
//!
//! 1. `render_prometheus` on one fixed, fully populated [`ObsSnapshot`]
//!    is pinned byte for byte against `goldens/prometheus_snapshot.txt`
//!    (blessed before the activity and stage families were folded onto
//!    one renderer), so a renderer refactor cannot move a line.
//! 2. Every `diaspec_*` metric family named in `docs/OBSERVABILITY.md`
//!    and `docs/DEPLOYMENT.md` occurs in that rendering — the docs cannot
//!    promise a family the code does not emit.

use diaspec_runtime::obs::{
    render_prometheus, ActivitySnapshot, BucketCount, GaugeSample, HistogramSummary, ObsSnapshot,
    StageSnapshot, TransportSample,
};
use std::collections::BTreeSet;
use std::path::PathBuf;

const OBSERVABILITY_MD: &str = include_str!("../../docs/OBSERVABILITY.md");
const DEPLOYMENT_MD: &str = include_str!("../../docs/DEPLOYMENT.md");

/// The example binary's stderr lines (`parking_distributed` prints them
/// itself); they are not renderer output.
const EXEMPT_PREFIX: &str = "diaspec_session_";

fn summary(count: u64, scale: u64) -> HistogramSummary {
    HistogramSummary {
        count,
        sum: count * scale * 3,
        min: scale,
        max: scale * 9,
        mean: (scale * 3) as f64,
        p50: scale * 2,
        p90: scale * 5,
        p99: scale * 8,
        p999: scale * 9,
    }
}

fn buckets(count: u64, scale: u64) -> Vec<BucketCount> {
    vec![
        BucketCount {
            le: scale * 2,
            count: count / 2,
        },
        BucketCount {
            le: scale * 9,
            count,
        },
    ]
}

/// All five activities with labels and buckets, all nine stages, three
/// gauges, and two transports (one peer name needs escaping).
fn fixed_snapshot() -> ObsSnapshot {
    let activities = [
        ("binding", "us", "PresenceSensor"),
        ("delivering", "ms", "ParkingAvailability"),
        ("processing", "us", "ParkingAvailability/map"),
        ("actuating", "us", "ParkingEntrancePanel.update"),
        ("recovering", "ms", "weird\\label\"with\nnewline"),
    ];
    let stages = [
        ("admit", "us"),
        ("route", "us"),
        ("schedule", "ms"),
        ("dispatch", "us"),
        ("compute", "us"),
        ("actuate", "us"),
        ("retry", "ms"),
        ("recover", "ms"),
        ("ingest", "us"),
    ];
    ObsSnapshot {
        at: 86_400_000,
        activities: activities
            .iter()
            .zip(1u64..)
            .map(|(&(activity, unit, label), i)| ActivitySnapshot {
                activity: activity.to_owned(),
                unit: unit.to_owned(),
                latency: summary(10 * i, 7 * i),
                labels: [(label.to_owned(), 6 * i), (format!("Other{i}"), 4 * i)]
                    .into_iter()
                    .collect(),
                buckets: buckets(10 * i, 7 * i),
            })
            .collect(),
        stages: stages
            .iter()
            .zip(1u64..)
            .map(|(&(stage, unit), i)| StageSnapshot {
                stage: stage.to_owned(),
                unit: unit.to_owned(),
                latency: summary(4 * i, 3 * i),
                buckets: buckets(4 * i, 3 * i),
            })
            .collect(),
        gauges: [
            ("queue_depth", 7),
            ("error_buffer_fill", 0),
            ("open_spans", 2),
        ]
        .iter()
        .map(|&(name, value)| GaugeSample {
            name: name.to_owned(),
            value,
        })
        .collect(),
        transports: vec![
            TransportSample {
                peer: "edge0".to_owned(),
                backend: "tcp".to_owned(),
                bytes_sent: 1_234,
                bytes_received: 567,
                frames_sent: 21,
                frames_received: 20,
                reconnects: 0,
            },
            TransportSample {
                peer: "edge \"north\"\\1".to_owned(),
                backend: "in-process".to_owned(),
                bytes_sent: 99,
                bytes_received: 98,
                frames_sent: 3,
                frames_received: 3,
                reconnects: 2,
            },
        ],
    }
}

#[test]
fn prometheus_rendering_of_the_fixed_snapshot_is_pinned() {
    let actual = render_prometheus(&fixed_snapshot());
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join("prometheus_snapshot.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden unreadable ({e}); bless with UPDATE_GOLDENS=1"));
    assert_eq!(expected, actual, "render_prometheus moved a byte");
}

/// Every `diaspec_*` metric name a document mentions, with shell-style
/// `{a,b}` alternations expanded and a trailing `_*` kept as a prefix
/// marker. Rust paths (`diaspec_runtime::obs`) and the `diaspec_<name>`
/// placeholder are not metric names.
fn documented_families(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut rest = text;
    while let Some(start) = rest.find("diaspec_") {
        let tail = &rest[start..];
        let len = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || "_{},*".contains(c)))
            .unwrap_or(tail.len());
        let (token, after) = tail.split_at(len);
        rest = after;
        // `name{label="..."}`: the brace opens a label set, not an
        // alternation; the family is what precedes it.
        let token = match token.find('{') {
            Some(open) if !token[open..].contains('}') => &token[..open],
            _ => token,
        };
        if after.starts_with("::") || after.starts_with('<') {
            continue;
        }
        out.extend(expand_braces(token));
    }
    out
}

fn expand_braces(token: &str) -> Vec<String> {
    let Some(open) = token.find('{') else {
        return vec![token.to_owned()];
    };
    let close = open + token[open..].find('}').expect("balanced alternation");
    token[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &token[..open], &token[close + 1..])))
        .collect()
}

#[test]
fn every_documented_metric_family_is_rendered() {
    let rendered = render_prometheus(&fixed_snapshot());
    let emitted: BTreeSet<&str> = rendered
        .lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| line.split(['{', ' ']).next())
        .collect();
    let mut documented = documented_families(OBSERVABILITY_MD);
    documented.extend(documented_families(DEPLOYMENT_MD));
    assert!(
        documented.len() >= 8,
        "doc scanner found too little: {documented:?}"
    );
    let missing: Vec<&String> = documented
        .iter()
        .filter(|name| !name.starts_with(EXEMPT_PREFIX))
        .filter(|name| match name.strip_suffix('*') {
            Some(prefix) => !emitted.iter().any(|e| e.starts_with(prefix)),
            None => !emitted.contains(name.as_str()),
        })
        .collect();
    assert!(
        missing.is_empty(),
        "documented but never rendered: {missing:?}\nrendered families: {emitted:?}"
    );
}
