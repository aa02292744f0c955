//! Export to the Chrome trace-event format.
//!
//! The output loads in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! one JSON object with a `traceEvents` array of `B`/`E`/`i`/`C` phase
//! records. Simulated rational time maps to microseconds through a caller
//! -chosen scale (1 simulated time unit = `scale` µs), keeping small
//! rational gaps visible in the viewer.

use crate::event::{Event, EventKind};
use crate::json::{obj, Value};

/// The three single-port activity lanes of a node, in paper order.
pub const LANES: [&str; 3] = ["receive", "compute", "send"];

/// The track a node's lane (an index into [`LANES`]) renders on:
/// `node·3 + lane`, so each node's three lanes sit together.
#[must_use]
pub const fn track(node: u32, lane: usize) -> u32 {
    node * 3 + lane as u32
}

/// `(track id, label)` pairs for every lane of an `n`-node platform, such
/// as `(track(4, 2), "P4 send")` — feed these to [`to_chrome_trace_named`]
/// so traces open labeled.
#[must_use]
pub fn track_names(n: usize) -> Vec<(u32, String)> {
    (0..n as u32)
        .flat_map(|node| {
            LANES
                .iter()
                .enumerate()
                .map(move |(l, lane)| (track(node, l), format!("P{node} {lane}")))
        })
        .collect()
}

/// Renders events as a Chrome trace JSON document.
///
/// `scale` is the number of trace microseconds per simulated time unit
/// (1000.0 makes one time unit read as one millisecond in the viewer).
/// `M` (metadata) events come first so tracks open *labeled* in Perfetto /
/// `chrome://tracing`: a `process_name` for the single pid when `process`
/// is non-empty, and a `thread_name` per `(track id, label)` pair in
/// `tracks` (e.g. from [`track_names`]).
#[must_use]
pub fn to_chrome_trace_named(
    events: &[Event],
    scale: f64,
    process: &str,
    tracks: &[(u32, String)],
) -> String {
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + tracks.len() + 1);
    if !process.is_empty() {
        out.push(obj(vec![
            ("name", Value::Str("process_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Int(0)),
            ("args", obj(vec![("name", Value::Str(process.to_string()))])),
        ]));
    }
    for (tid, label) in tracks {
        out.push(obj(vec![
            ("name", Value::Str("thread_name".to_string())),
            ("ph", Value::Str("M".to_string())),
            ("pid", Value::Int(0)),
            ("tid", Value::Int(i128::from(*tid))),
            ("args", obj(vec![("name", Value::Str(label.clone()))])),
        ]));
    }
    out.extend(events.iter().map(|e| event_json(e, scale)));
    obj(vec![("traceEvents", Value::Array(out)), ("displayTimeUnit", Value::Str("ms".to_string()))])
        .to_string_pretty()
}

fn event_json(e: &Event, scale: f64) -> Value {
    let mut members = vec![
        ("name", Value::Str(e.name.clone())),
        ("ph", Value::Str(e.kind.phase().to_string())),
        ("ts", Value::Float(e.ts.to_f64() * scale)),
        ("pid", Value::Int(0)),
        ("tid", Value::Int(i128::from(e.track))),
    ];
    if e.kind == EventKind::Instant {
        // Thread-scoped instants render as small arrows on the track.
        members.push(("s", Value::Str("t".to_string())));
    }
    let flow = matches!(e.kind, EventKind::FlowStart | EventKind::FlowEnd);
    if flow {
        // Flow records need a category, a top-level binding id (hoisted
        // from the `id` arg), and `bp:"e"` on the arrival so the arrow
        // attaches to the enclosing slice rather than the next one.
        members.push(("cat", Value::Str("flow".to_string())));
        let id = e.args.iter().find(|(k, _)| k == "id").map_or(0, |(_, v)| v.to_f64() as i128);
        members.push(("id", Value::Int(id)));
        if e.kind == EventKind::FlowEnd {
            members.push(("bp", Value::Str("e".to_string())));
        }
    }
    let visible: Vec<&(String, crate::event::Arg)> =
        e.args.iter().filter(|(k, _)| !(flow && k == "id")).collect();
    if !visible.is_empty() {
        members.push((
            "args",
            match e.kind {
                // Counter tracks chart each numeric arg as a series.
                EventKind::Counter => Value::Object(
                    visible.iter().map(|(k, v)| (k.clone(), Value::Float(v.to_f64()))).collect(),
                ),
                _ => Value::Object(visible.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
            },
        ));
    }
    obj(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Arg, Ts};
    use crate::json;

    #[test]
    fn chrome_trace_is_valid_json_with_paired_spans() {
        let events = [
            Event::new(Ts::ZERO, 1, "compute", EventKind::Begin),
            Event::new(Ts::new(3, 2), 1, "compute", EventKind::End),
            Event::new(Ts::new(3, 2), 1, "buffer", EventKind::Counter).arg("tasks", Arg::Int(4)),
        ];
        let trace = to_chrome_trace_named(&events, 1000.0, "", &[]);
        let v = json::parse(&trace).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0]["ph"].as_str(), Some("B"));
        assert_eq!(evs[1]["ph"].as_str(), Some("E"));
        assert_eq!(evs[1]["ts"].as_f64(), Some(1500.0));
        assert_eq!(evs[2]["args"]["tasks"].as_f64(), Some(4.0));
        assert_eq!(v["displayTimeUnit"].as_str(), Some("ms"));
    }

    /// One task's full journey on a two-node tree: inject at the root,
    /// stride-dispatch to the child, hop the edge, compute. Small enough
    /// that the rendered Chrome JSON is reviewable by eye in the golden
    /// file.
    fn flow_fixture() -> crate::causal::Trace {
        use crate::causal::{Action, Dispatch, TraceHeader, TraceRecord};
        crate::causal::Trace {
            header: TraceHeader {
                protocol: "event".to_string(),
                seed: 0,
                horizon: Ts::new(36, 1),
                tasks: Some(1),
                nodes: 2,
                root: 0,
                throughput: Some(Ts::new(10, 9)),
                bunch: Some(10),
                t_omega: Some(9),
                parent: vec![None, Some(0)],
                edge_time: vec![None, Some(Ts::new(1, 1))],
                weight: vec![Some(Ts::new(9, 1)), Some(Ts::new(6, 1))],
            },
            records: vec![
                TraceRecord::Enter { task: 0, node: 0, t: Ts::ZERO, stock: false },
                TraceRecord::Dispatch(Dispatch {
                    task: 0,
                    node: 0,
                    t: Ts::ZERO,
                    action: Action::Send(1),
                    slot: Some(0),
                    psi: Some(1),
                    period: Some(0),
                }),
                TraceRecord::Deliver { task: 0, node: 1, from: 0, t: Ts::new(1, 1) },
                TraceRecord::Compute { task: 0, node: 1, start: Ts::new(1, 1), end: Ts::new(7, 1) },
            ],
        }
    }

    /// Golden-file pin of the provenance flow export: the `s`/`f` flow
    /// pair, the hoisted top-level binding id, `bp:"e"` on the arrival,
    /// and the per-lane track-name metadata must not drift — Perfetto
    /// silently drops malformed flow events instead of erroring. Set
    /// `BLESS=1` to regenerate after an intentional format change.
    #[test]
    fn provenance_flow_export_matches_the_golden_file() {
        let events = flow_fixture().to_events();
        let got = to_chrome_trace_named(&events, 1000.0, "bwfirst", &track_names(2));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/chrome_flow_golden.json");
        if std::env::var_os("BLESS").is_some() {
            std::fs::write(path, &got).expect("regenerate golden file");
        }
        let golden = std::fs::read_to_string(path).expect("golden file present");
        assert_eq!(got, golden, "flow export drifted from the committed golden file");
    }

    #[test]
    fn named_trace_prefixes_metadata_events() {
        let events = [
            Event::new(Ts::ZERO, 5, "send", EventKind::Begin),
            Event::new(Ts::new(1, 1), 5, "send", EventKind::End),
        ];
        let tracks = vec![(5u32, "P1 send".to_string())];
        let trace = to_chrome_trace_named(&events, 1000.0, "bwfirst sim", &tracks);
        let v = json::parse(&trace).unwrap();
        let evs = v["traceEvents"].as_array().unwrap();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0]["ph"].as_str(), Some("M"));
        assert_eq!(evs[0]["name"].as_str(), Some("process_name"));
        assert_eq!(evs[0]["args"]["name"].as_str(), Some("bwfirst sim"));
        assert_eq!(evs[1]["ph"].as_str(), Some("M"));
        assert_eq!(evs[1]["name"].as_str(), Some("thread_name"));
        assert_eq!(evs[1]["tid"].as_i128(), Some(5));
        assert_eq!(evs[1]["args"]["name"].as_str(), Some("P1 send"));
        assert_eq!(evs[2]["ph"].as_str(), Some("B"));
        assert_eq!(evs[3]["ph"].as_str(), Some("E"));
    }
}
