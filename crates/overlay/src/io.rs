//! Graph interchange: a JSON format for physical networks.
//!
//! ```json
//! {
//!   "nodes": [ { "id": 0, "w": "2" }, { "id": 1, "w": null } ],
//!   "edges": [ { "a": 0, "b": 1, "c": "1/2" } ]
//! }
//! ```
//!
//! `"w": null` denotes a pure forwarder (`w = +∞`).

use crate::graph::{Graph, GraphBuilder, GraphError, NodeIx};
use bwfirst_obs::json::{self, obj, Value};
use bwfirst_platform::Weight;
use bwfirst_rational::Rat;

/// Serializes a graph to pretty JSON.
#[must_use]
pub fn to_json(g: &Graph) -> String {
    let nodes = g
        .nodes()
        .map(|n| {
            obj(vec![
                ("id", Value::Int(i128::from(n.0))),
                ("w", g.weight(n).time().as_ref().map_or(Value::Null, Rat::to_json)),
            ])
        })
        .collect();
    let mut edges = Vec::with_capacity(g.edge_count());
    for a in g.nodes() {
        for &(b, c) in g.neighbors(a) {
            if a < b {
                edges.push(obj(vec![
                    ("a", Value::Int(i128::from(a.0))),
                    ("b", Value::Int(i128::from(b.0))),
                    ("c", c.to_json()),
                ]));
            }
        }
    }
    obj(vec![("nodes", Value::Array(nodes)), ("edges", Value::Array(edges))]).to_string_pretty()
}

/// Parses a graph from JSON, validating dense ids, endpoints, link times
/// and connectivity.
pub fn from_json(s: &str) -> Result<Graph, GraphError> {
    let v = json::parse(s).map_err(|e| GraphError::ParseJson(e.to_string()))?;
    let array = |key: &str| {
        v[key].as_array().ok_or_else(|| GraphError::ParseJson(format!("missing `{key}` array")))
    };
    let index = |v: &Value, key: &str| {
        v[key]
            .as_i128()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| GraphError::ParseJson(format!("missing or malformed `{key}`")))
    };
    let rat = |v: &Value| Rat::from_json(v).map_err(GraphError::ParseJson);
    let mut b = GraphBuilder::new();
    for (i, n) in array("nodes")?.iter().enumerate() {
        let w = match &n["w"] {
            Value::Null => Weight::Infinite,
            w => Weight::Time(rat(w)?),
        };
        let id = index(n, "id")?;
        if id as usize != i {
            return Err(GraphError::UnknownNode(NodeIx(id)));
        }
        b.node(w);
    }
    for e in array("edges")? {
        let (a, z) = (index(e, "a")?, index(e, "b")?);
        b.edge(NodeIx(a), NodeIx(z), rat(&e["c"])?);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{random_graph, RandomGraphConfig};
    use bwfirst_rational::rat;

    #[test]
    fn json_roundtrip() {
        let g = random_graph(&RandomGraphConfig { size: 12, ..Default::default() });
        let back = from_json(&to_json(&g)).unwrap();
        assert_eq!(g.len(), back.len());
        assert_eq!(g.edge_count(), back.edge_count());
        for n in g.nodes() {
            assert_eq!(g.weight(n), back.weight(n));
            for &(k, c) in g.neighbors(n) {
                assert_eq!(back.link(n, k), Some(c));
            }
        }
    }

    #[test]
    fn roundtrip_with_switch() {
        let mut b = GraphBuilder::new();
        let a = b.node(bwfirst_platform::Weight::Infinite);
        let z = b.node(bwfirst_platform::Weight::Time(rat(3, 2)));
        b.edge(a, z, rat(1, 4));
        let g = b.build().unwrap();
        let back = from_json(&to_json(&g)).unwrap();
        assert!(back.weight(a).is_infinite());
        assert_eq!(back.link(a, z), Some(rat(1, 4)));
    }

    #[test]
    fn each_fault_reports_its_own_error() {
        let two = r#""nodes":[{"id":0,"w":"1"},{"id":1,"w":"1"}]"#;
        let cases = [
            (
                r#"{"nodes":[{"id":0,"w":"1"},{"id":2,"w":"1"}],"edges":[{"a":0,"b":1,"c":"1"}]}"#
                    .to_string(),
                "unknown node N2",
            ),
            (r#"{"edges":[]}"#.to_string(), "cannot parse graph JSON: missing `nodes` array"),
            (
                r#"{"nodes":[{"id":0,"w":"1"}]}"#.to_string(),
                "cannot parse graph JSON: missing `edges` array",
            ),
            (
                r#"{"nodes":[{"id":"x","w":"1"}],"edges":[]}"#.to_string(),
                "cannot parse graph JSON: missing or malformed `id`",
            ),
            (
                r#"{"nodes":[{"id":0,"w":"1/0"}],"edges":[]}"#.to_string(),
                "cannot parse graph JSON: invalid rational \"1/0\": cannot parse `1/0` as a \
                 rational (expected `p` or `p/q`)",
            ),
            (
                format!(r#"{{{two},"edges":[{{"a":-1,"b":1,"c":"1"}}]}}"#),
                "cannot parse graph JSON: missing or malformed `a`",
            ),
            (
                format!(r#"{{{two},"edges":[{{"a":0,"c":"1"}}]}}"#),
                "cannot parse graph JSON: missing or malformed `b`",
            ),
            (
                format!(r#"{{{two},"edges":[{{"a":0,"b":1,"c":"fast"}}]}}"#),
                "cannot parse graph JSON: invalid rational \"fast\": cannot parse `fast` as a \
                 rational (expected `p` or `p/q`)",
            ),
            (format!(r#"{{{two},"edges":[{{"a":0,"b":7,"c":"1"}}]}}"#), "unknown node N7"),
            (
                format!(r#"{{{two},"edges":[{{"a":0,"b":1,"c":"0"}}]}}"#),
                "edge N0-N1 has non-positive link time",
            ),
            (format!(r#"{{{two},"edges":[]}}"#), "graph is not connected"),
            (
                r#"{"nodes":["#.to_string(),
                "cannot parse graph JSON: JSON error at byte 10: unexpected end of input",
            ),
        ];
        for (input, expected) in cases {
            let err = from_json(&input).expect_err(&input);
            assert_eq!(err.to_string(), expected, "{input}");
        }
    }
}
