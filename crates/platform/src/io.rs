//! Platform interchange: a JSON format and Graphviz DOT export.
//!
//! The JSON format is a flat node list — stable under hand edits and easy to
//! produce from network measurement tools (the paper suggests the Network
//! Weather Service as the source of link estimates):
//!
//! ```json
//! { "nodes": [
//!   { "id": 0, "w": "9" },
//!   { "id": 1, "parent": 0, "w": "6", "c": "1" },
//!   { "id": 2, "parent": 0, "w": null, "c": "1/2" }
//! ] }
//! ```
//!
//! `"w": null` denotes a switch (`w = +∞`).

use crate::builder::PlatformBuilder;
use crate::error::PlatformError;
use crate::node::{NodeId, Weight};
use crate::platform::Platform;
use bwfirst_obs::json::{self, obj, Value};
use bwfirst_rational::Rat;

/// Serializes a platform to pretty JSON.
#[must_use]
pub fn to_json(p: &Platform) -> String {
    let node = |id: NodeId| {
        let mut members = vec![("id", Value::Int(i128::from(id.0)))];
        if let Some(parent) = p.parent(id) {
            members.push(("parent", Value::Int(i128::from(parent.0))));
        }
        members.push(("w", p.weight(id).time().as_ref().map_or(Value::Null, Rat::to_json)));
        if let Some(c) = p.link_time(id) {
            members.push(("c", c.to_json()));
        }
        obj(members)
    };
    obj(vec![("nodes", Value::Array(p.node_ids().map(node).collect()))]).to_string_pretty()
}

/// Parses a platform from JSON produced by [`to_json`] (or hand-written):
/// ids dense and in order from the root's 0, every parent before its
/// children. Nodes are checked in order; the first fault is reported.
pub fn from_json(s: &str) -> Result<Platform, PlatformError> {
    let v = json::parse(s).map_err(|e| PlatformError::MalformedSpec(e.to_string()))?;
    let nodes = v["nodes"]
        .as_array()
        .ok_or_else(|| PlatformError::MalformedSpec("missing `nodes` array".to_string()))?;
    let mut b = PlatformBuilder::new();
    for (i, node) in nodes.iter().enumerate() {
        add_node(&mut b, i, node).map_err(PlatformError::MalformedSpec)?;
    }
    b.build()
}

/// Reads the `i`-th entry of the node list into `b`.
fn add_node(b: &mut PlatformBuilder, i: usize, v: &Value) -> Result<(), String> {
    let id = v["id"].as_i128().ok_or("node is missing an integer `id`")?;
    let id = u32::try_from(id).map_err(|_| format!("node id {id} out of range"))?;
    let parent = match &v["parent"] {
        Value::Null => None,
        p => Some(
            p.as_i128()
                .and_then(|p| u32::try_from(p).ok())
                .ok_or(format!("node {id} has a malformed `parent`"))?,
        ),
    };
    let w = match &v["w"] {
        Value::Null => Weight::Infinite,
        w => Weight::Time(Rat::from_json(w)?),
    };
    let c = match &v["c"] {
        Value::Null => None,
        c => Some(Rat::from_json(c)?),
    };
    if id as usize != i {
        return Err(format!("node at position {i} has id {id} (ids must be dense and ordered)"));
    }
    match (parent, c) {
        (None, None) if i == 0 => {
            b.root(w);
        }
        (Some(p), Some(c)) if (p as usize) < i => {
            b.child(NodeId(p), w, c);
        }
        (Some(p), Some(_)) => {
            return Err(format!("node {id} references parent {p} that does not precede it"));
        }
        _ => {
            return Err(format!(
                "node {id} must have both parent and c (or neither, for the root only)"
            ));
        }
    }
    Ok(())
}

/// Graphviz DOT rendering: nodes labelled `P_i (w)`, edges labelled `c`.
#[must_use]
pub fn to_dot(p: &Platform) -> String {
    use std::fmt::Write;
    let mut s = String::from("digraph platform {\n  rankdir=TB;\n  node [shape=circle];\n");
    for id in p.node_ids() {
        writeln!(s, "  n{} [label=\"{}\\nw={}\"];", id.0, id, p.weight(id)).unwrap();
    }
    for id in p.node_ids() {
        if let (Some(parent), Some(c)) = (p.parent(id), p.link_time(id)) {
            writeln!(s, "  n{} -> n{} [label=\"{}\"];", parent.0, id.0, c).unwrap();
        }
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::example_tree;
    use bwfirst_rational::rat;

    #[test]
    fn json_roundtrip_preserves_everything() {
        let p = example_tree();
        let json = to_json(&p);
        let back = from_json(&json).unwrap();
        assert_eq!(p.len(), back.len());
        for id in p.node_ids() {
            assert_eq!(p.parent(id), back.parent(id));
            assert_eq!(p.weight(id), back.weight(id));
            assert_eq!(p.link_time(id), back.link_time(id));
        }
    }

    #[test]
    fn json_roundtrip_with_switch() {
        let mut b = PlatformBuilder::new();
        let r = b.root(Weight::Infinite);
        b.child(r, Weight::Time(rat(3, 2)), rat(1, 2));
        let p = b.build().unwrap();
        let back = from_json(&to_json(&p)).unwrap();
        assert!(back.weight(NodeId(0)).is_infinite());
        assert_eq!(back.weight(NodeId(1)).time(), Some(rat(3, 2)));
    }

    #[test]
    fn each_fault_reports_its_error() {
        let spec = "malformed platform spec: ";
        let both = "node 1 must have both parent and c (or neither, for the root only)";
        let cases = [
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":2,"parent":0,"w":"1","c":"1"}]}"#,
                "node at position 1 has id 2 (ids must be dense and ordered)"),
            (r#"{"nodes":[{"id":1,"w":"1"}]}"#,
                "node at position 0 has id 1 (ids must be dense and ordered)"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":0,"w":"1"}]}"#, both),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"w":"1","c":"1"}]}"#, both),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"w":"1"}]}"#, both),
            (r#"{"nodes":[{"id":0,"parent":0,"w":"1","c":"1"}]}"#,
                "node 0 references parent 0 that does not precede it"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":2,"w":"1","c":"1"},
                {"id":2,"parent":0,"w":"1","c":"1"}]}"#,
                "node 1 references parent 2 that does not precede it"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":"0","w":"1","c":"1"}]}"#,
                "node 1 has a malformed `parent`"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":-1,"w":"1","c":"1"}]}"#,
                "node 1 has a malformed `parent`"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":0,"w":"a/b","c":"1"}]}"#,
                "invalid rational \"a/b\": cannot parse `a/b` as a rational (expected `p` or `p/q`)"),
            (r#"{"nodes":[{"id":0,"w":true}]}"#,
                "expected a rational as `p/q`, `p`, or an integer, got Bool(true)"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":0,"w":"1","c":"1/0"}]}"#,
                "invalid rational \"1/0\": cannot parse `1/0` as a rational (expected `p` or `p/q`)"),
            (r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":0,"w":"1","c":[1]}]}"#,
                "expected a rational as `p/q`, `p`, or an integer, got Array([Int(1)])"),
            (r#"{"nodes":[{"w":"1"}]}"#, "node is missing an integer `id`"),
            (r#"{"nodes":[{"id":-1,"w":"1"}]}"#, "node id -1 out of range"),
            (r#"{"node":[{"id":0,"w":"1"}]}"#, "missing `nodes` array"),
            (r#"[{"id":0,"w":"1"}]"#, "missing `nodes` array"),
            ("42", "missing `nodes` array"),
            ("{", "JSON error at byte 1: expected '\"'"),
        ];
        for (json, message) in cases {
            let err = from_json(json).expect_err(json).to_string();
            assert_eq!(err, format!("{spec}{message}"), "{json}");
        }
        // Faults the builder finds once every node is read.
        let built = [
            (r#"{"nodes":[]}"#, "platform has no root node"),
            (
                r#"{"nodes":[{"id":0,"w":"-1"}]}"#,
                "node P0 has non-positive processing time (use Weight::Infinite for w = +inf)",
            ),
            (
                r#"{"nodes":[{"id":0,"w":"1"},{"id":1,"parent":0,"w":"1","c":"0"}]}"#,
                "edge into P1 has non-positive communication time",
            ),
        ];
        for (json, message) in built {
            assert_eq!(from_json(json).expect_err(json).to_string(), message, "{json}");
        }
    }

    #[test]
    fn dot_contains_all_nodes_and_edges() {
        let p = example_tree();
        let dot = to_dot(&p);
        assert!(dot.contains("n0 [label=\"P0\\nw=9\"]"));
        assert!(dot.contains("n0 -> n1 [label=\"1\"]"));
        assert!(dot.contains("n7 -> n10 [label=\"6\"]"));
        assert_eq!(dot.matches(" -> ").count(), p.len() - 1);
    }
}
