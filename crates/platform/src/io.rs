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
//!
//! [`from_json`] reads through one of two lanes:
//!
//! * the **canonical lane** takes the member order [`to_json`] writes —
//!   `{"nodes":[{"id":…,"parent":…,"w":…,"c":…},…]}`, the root without
//!   `parent` and `c`, JSON whitespace between tokens (so both the pretty
//!   output and the compact one-line form) — in one pass over the bytes,
//!   straight into a [`PlatformBuilder`], with no [`Value`] tree and no
//!   per-node key lookups. Ids and parents are plain digits, `w` a string or
//!   `null`, `c` a string; rationals go through the same `str::parse` as
//!   [`Rat::from_json`]. It never reports an error: on anything else
//!   (another member order, a duplicate or unknown key, an escape, a number
//!   where a string belongs, ids that are not dense, a parent that does not
//!   precede its child, trailing bytes, …) it declines;
//! * the **general lane** then parses the whole text with [`json::parse`]
//!   and reads each node by key. It is the only source of decode errors,
//!   so a document decodes to the same platform, or fails with the same
//!   message, whichever lane takes it.

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
/// The canonical lane reads [`to_json`]'s layout; anything else goes to
/// the general lane (see the module docs).
pub fn from_json(s: &str) -> Result<Platform, PlatformError> {
    match canonical(s) {
        Some(b) => b.build(),
        None => general(s),
    }
}

/// The unread rest of the text in [`canonical`]'s one pass.
struct Canonical<'a>(&'a str);

impl Canonical<'_> {
    /// Skips JSON whitespace (the four bytes [`json::parse`] skips).
    fn ws(&mut self) {
        let n = self.0.bytes().take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r')).count();
        self.0 = &self.0[n..];
    }

    /// Skips whitespace, then consumes `tok` if it comes next.
    fn eat(&mut self, tok: &str) -> bool {
        self.ws();
        match self.0.strip_prefix(tok) {
            Some(rest) => {
                self.0 = rest;
                true
            }
            None => false,
        }
    }

    /// Consumes `tok`, or declines the text.
    fn tok(&mut self, tok: &str) -> Option<()> {
        self.eat(tok).then_some(())
    }

    /// Consumes the member name `key` and its `:`.
    fn key(&mut self, key: &str) -> Option<()> {
        self.tok(key)?;
        self.tok(":")
    }

    /// An `id` or `parent`: ASCII digits that fit a `u32`.
    fn index(&mut self) -> Option<u32> {
        self.ws();
        let len = self.0.bytes().take_while(u8::is_ascii_digit).count();
        let (digits, rest) = self.0.split_at(len);
        self.0 = rest;
        digits.parse().ok()
    }

    /// A string without escapes, read as [`Rat::from_json`] reads it.
    fn rat(&mut self) -> Option<Rat> {
        self.tok("\"")?;
        let len = self.0.bytes().position(|b| b == b'"' || b == b'\\')?;
        let (text, rest) = self.0.split_at(len);
        self.0 = rest.strip_prefix('"')?;
        text.parse().ok()
    }
}

/// The canonical lane: decodes [`to_json`]'s member order in one pass into
/// the builder the general lane would fill; `None` on any other input.
fn canonical(s: &str) -> Option<PlatformBuilder> {
    let mut c = Canonical(s);
    c.tok("{")?;
    c.key("\"nodes\"")?;
    c.tok("[")?;
    let mut b = PlatformBuilder::new();
    if !c.eat("]") {
        // A node past the last `u32` id leaves the loop unclosed: declined.
        for i in 0..u32::MAX {
            c.tok("{")?;
            c.key("\"id\"")?;
            (c.index()? == i).then_some(())?;
            let parent = if i == 0 {
                None
            } else {
                c.tok(",")?;
                c.key("\"parent\"")?;
                Some(c.index().filter(|&p| p < i)?)
            };
            c.tok(",")?;
            c.key("\"w\"")?;
            let w = if c.eat("null") { Weight::Infinite } else { Weight::Time(c.rat()?) };
            match parent {
                None => {
                    b.root(w);
                }
                Some(p) => {
                    c.tok(",")?;
                    c.key("\"c\"")?;
                    b.child(NodeId(p), w, c.rat()?);
                }
            }
            c.tok("}")?;
            if !c.eat(",") {
                c.tok("]")?;
                break;
            }
        }
    }
    c.tok("}")?;
    c.ws();
    c.0.is_empty().then_some(b)
}

/// The general lane: [`json::parse`], then each node read by key. The only
/// source of decode errors.
fn general(s: &str) -> Result<Platform, PlatformError> {
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
    use crate::generators::{self, RandomTreeConfig};
    use bwfirst_rational::rat;
    use proptest::prelude::*;

    /// A decode's outcome in a form both lanes can be compared by: the
    /// platform's own rendering, or the error text.
    fn outcome(r: Result<Platform, PlatformError>) -> Result<String, String> {
        r.map(|p| to_json(&p)).map_err(|e| e.to_string())
    }

    /// `from_json` (whichever lane takes `text`) against the general lane.
    fn assert_lanes_agree(text: &str) {
        assert_eq!(outcome(from_json(text)), outcome(general(text)), "{text}");
    }

    /// The one-line layout, as e2ebench's generators write it:
    /// `{"nodes":[{"id":0,"w":"…"},{"id":1,"parent":0,"w":"…","c":"…"},…]}`.
    fn compact(p: &Platform) -> String {
        json::parse(&to_json(p)).unwrap().to_string_compact()
    }

    /// Both layouts of `p` decode through the canonical lane, to `p` and to
    /// what the general lane reads.
    fn assert_canonical(p: &Platform) {
        for text in [to_json(p), compact(p)] {
            let b = canonical(&text).unwrap_or_else(|| panic!("the lane declined {text}"));
            assert_eq!(outcome(b.build()), Ok(to_json(p)), "{text}");
            assert_eq!(outcome(general(&text)), Ok(to_json(p)), "{text}");
        }
    }

    /// A guard: a silent fallback to the general lane would keep every
    /// other test green and lose the one-pass parse.
    #[test]
    fn the_canonical_lane_reads_every_generated_tree() {
        // The families of `bwfirst generate`, with its `w` and `c`.
        let (w, c) = (Weight::Time(rat(4, 1)), rat(1, 1));
        let mut switches = PlatformBuilder::new();
        let r = switches.root(Weight::Infinite);
        let s = switches.child(r, Weight::Infinite, rat(1, 2));
        switches.child(s, Weight::Time(rat(3, 2)), rat(7, 3));
        let families = [
            example_tree(),
            generators::random_tree(&RandomTreeConfig { switch_pct: 30, ..Default::default() }),
            generators::star(w, 30, w, c),
            generators::daisy_chain(w, &[(w, c); 30]),
            generators::kary_tree(3, 2, w, c),
            generators::hetero_tree(31, 1),
            generators::wide_tree(31, 1),
            switches.build().unwrap(),
        ];
        for p in &families {
            assert_canonical(p);
        }
        // A lone root, and no nodes at all (the builder's error).
        assert!(canonical(r#"{"nodes":[{"id":0,"w":"1"}]}"#).is_some());
        assert!(canonical(r#" { "nodes" : [ ] } "#).is_some());
        assert_lanes_agree(r#"{"nodes":[]}"#);
    }

    /// Edits of a canonical document, each applied once: the lanes must
    /// agree on the platform or on the error, whichever lane reads it.
    #[test]
    fn edited_documents_decode_alike_on_both_lanes() {
        let base = r#"{"nodes":[{"id":0,"w":"9"},{"id":1,"parent":0,"w":"6","c":"1"},{"id":2,"parent":0,"w":null,"c":"1/2"},{"id":3,"parent":1,"w":"3/2","c":"2"}]}"#;
        assert!(canonical(base).is_some());
        let big = "170141183460469231731687303715884105727";
        let edits: &[(&str, &str)] = &[
            // Members reordered, duplicated or unknown.
            (r#""parent":0,"w":"6""#, r#""w":"6","parent":0"#),
            (r#"{"id":0,"w":"9"}"#, r#"{"w":"9","id":0}"#),
            (r#""w":"3/2","c":"2""#, r#""c":"2","w":"3/2""#),
            (r#""id":0,"#, r#""id":0,"id":0,"#),
            (r#""w":"6""#, r#""w":"6","w":"7""#),
            (r#""c":"1"}"#, r#""c":"1","c":"2"}"#),
            ("]}", r#"],"nodes":[]}"#),
            (r#""w":"9"}"#, r#""w":"9","x":1}"#),
            (r#"{"nodes""#, r#"{"v":1,"nodes""#),
            ("]}", r#"],"x":0}"#),
            (r#"{"id":0,"w":"9"}"#, r#"{"id":0,"w":"9","c":"1"}"#),
            (r#","c":"1"}"#, "}"),
            // Whitespace between tokens, and inside them.
            (r#",{"id":1"#, "\t,\r\n {\"id\" : 1 "),
            ("]}", " ] } \n"),
            (r#""id":3"#, r#""id" :3"#),
            (r#""id":1"#, r#""id ":1"#),
            (r#""nodes""#, r#"" nodes""#),
            (r#""w":"6""#, r#""w":" 6 ""#),
            ("3/2", "3 / 2"),
            ("null", "nu ll"),
            (r#":0,"#, "\u{c}:0,"),
            (r#""w":"6""#, "\"w\":\"6\t\""),
            // Escapes.
            (r#""id":0"#, r#""\u0069d":0"#),
            (r#""w":"9""#, r#""w":"\u0039""#),
            (r#""c":"1/2""#, r#""c":"1\/2""#),
            (r#""w":"6""#, r#""w":"6\""#),
            // Rationals as `Rat::from_json` reads them.
            (r#""w":"6""#, r#""w":"6/1""#),
            (r#""c":"1/2""#, r#""c":"2/4""#),
            (r#""w":"6""#, r#""w":"+6""#),
            (r#""w":"6""#, r#""w":"06""#),
            (r#""c":"1/2""#, r#""c":"01/02""#),
            (r#""c":"1/2""#, r#""c":"1/0""#),
            (r#""w":"6""#, r#""w":"0/0""#),
            (r#""w":"6""#, r#""w":"-6""#),
            (r#""c":"1""#, r#""c":"0""#),
            (r#""w":"6""#, "\"w\":\"６\""),
            (r#""w":"6""#, r#""w":"a/b""#),
            // Numbers where strings belong, and other values.
            (r#""w":"6""#, r#""w":6"#),
            (r#""w":"9""#, r#""w":9"#),
            (r#""c":"1""#, r#""c":1"#),
            (r#""w":"6""#, r#""w":6.0"#),
            (r#""w":"6""#, r#""w":true"#),
            (r#""c":"1/2""#, r#""c":[1]"#),
            // `null` parents and switches.
            (r#""parent":0,"w":"6""#, r#""parent":null,"w":"6""#),
            (r#"{"id":0,"w":"9"}"#, r#"{"id":0,"parent":null,"w":"9"}"#),
            (r#""w":"9""#, r#""w":null"#),
            (r#""w":"3/2""#, r#""w":null"#),
            (r#""c":"1""#, r#""c":null"#),
            // Ids: leading zeros, other number forms, range, density, order.
            (r#""id":1"#, r#""id":01"#),
            (r#""parent":0,"w":"6""#, r#""parent":00,"w":"6""#),
            (r#""id":1"#, r#""id":1.0"#),
            (r#""id":1"#, r#""id":1e0"#),
            (r#""id":0"#, r#""id":-0"#),
            (r#""id":0"#, r#""id":-1"#),
            (r#""parent":1"#, r#""parent":-1"#),
            (r#""id":1"#, r#""id":"1""#),
            (r#""parent":1"#, r#""parent":"1""#),
            (r#""id":0"#, r#""id":4294967296"#),
            (r#""id":3"#, r#""id":4294967299"#),
            (r#""parent":1"#, r#""parent":4294967297"#),
            (r#""id":1"#, r#""id":1000000000000000000000000000000000000000"#),
            (r#""id":1"#, r#""id":2"#),
            (r#""parent":1"#, r#""parent":3"#),
            (r#""parent":0,"w":"6""#, r#""parent":1,"w":"6""#),
            // Trailing and missing bytes.
            ("]}", "]}x"),
            ("]}", "]}}"),
            ("]}", "]},"),
            ("]}", "]"),
            ("}]}", "}]"),
            (r#"{"nodes""#, "\u{feff}{\"nodes\""),
        ];
        for &(from, to) in edits {
            let text = base.replacen(from, to, 1);
            assert_ne!(text, base, "{from} is not in the document");
            assert_lanes_agree(&text);
        }
        let huge = [
            format!(
                r#"{{"nodes":[{{"id":0,"w":"{big}"}},{{"id":1,"parent":0,"w":"1/{big}","c":"{big}/2"}}]}}"#
            ),
            format!(r#"{{"nodes":[{{"id":0,"w":"{big}0"}}]}}"#),
            format!(r#"{{"nodes":[{{"id":0,"w":"-{big}/3"}}]}}"#),
        ];
        for text in huge {
            assert_lanes_agree(&text);
        }
        for text in ["", " ", "{}", r#"{"nodes":[ ]}"#, r#"{"nodes":[],}"#, r#"{"nodes":{}}"#] {
            assert_lanes_agree(text);
        }
    }

    fn arb_platform() -> impl Strategy<Value = Platform> {
        (1usize..40, any::<u64>(), 1usize..6, 0u8..40, 0u8..3).prop_map(
            |(size, seed, max_children, switch_pct, family)| match family {
                0 => generators::random_tree(&RandomTreeConfig {
                    size,
                    seed,
                    max_children,
                    switch_pct,
                    ..Default::default()
                }),
                1 => generators::hetero_tree(size, seed),
                _ => generators::wide_tree(size, seed),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn generated_trees_take_the_canonical_lane(p in arb_platform()) {
            assert_canonical(&p);
        }

        /// One byte inserted, deleted or replaced anywhere in either layout:
        /// the lanes agree on whatever the result decodes to.
        #[test]
        fn one_byte_edits_decode_alike_on_both_lanes(
            p in arb_platform(),
            pretty in any::<bool>(),
            at in any::<u64>(),
            edit in 0u8..3,
            byte in 0usize..16,
        ) {
            let text = if pretty { to_json(&p) } else { compact(&p) };
            let at = (at % text.len() as u64) as usize;
            let b = char::from(b" \n\"\\:,{}[]/-019xn"[byte]);
            let mut edited = text.clone();
            match edit {
                0 => edited.insert(at, b),
                1 => {
                    edited.remove(at);
                }
                _ => edited.replace_range(at..=at, b.encode_utf8(&mut [0; 4])),
            }
            prop_assert_eq!(outcome(from_json(&edited)), outcome(general(&edited)));
        }
    }

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
