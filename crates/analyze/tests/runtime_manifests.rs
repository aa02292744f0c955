//! R4 `shim-import`: the dev-only shims (`rand`, `proptest`) stay out of the
//! exact-arithmetic and protocol runtime crates. Rust code cannot name a
//! crate that is missing from its package's dependencies, so the rule holds
//! exactly when those crates' runtime dependency tables do not list a shim.

const RUNTIME_CRATES: [&str; 3] = ["rational", "proto", "core"];
const DEV_SHIMS: [&str; 2] = ["rand", "proptest"];

/// Every word (key, path segment, `package = ...` value) in the manifest's
/// runtime dependency tables: `[dependencies]`, `[dependencies.<name>]` and
/// `[target.<cfg>.dependencies]`, but not `dev-` or `build-dependencies`.
fn runtime_dependency_words(manifest: &str) -> Vec<&str> {
    let mut in_table = false;
    let mut words = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = line.starts_with("[dependencies") || line.contains(".dependencies");
        }
        if in_table && !line.starts_with('#') {
            words.extend(line.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '-')));
        }
    }
    words.retain(|w| !w.is_empty());
    words
}

#[test]
fn runtime_crates_do_not_depend_on_dev_shims() {
    for name in RUNTIME_CRATES {
        let path = format!("{}/../{name}/Cargo.toml", env!("CARGO_MANIFEST_DIR"));
        let manifest = std::fs::read_to_string(&path).expect("read manifest");
        let words = runtime_dependency_words(&manifest);
        assert!(words.contains(&"bwfirst-obs"), "{path}: no [dependencies] table read");
        for shim in DEV_SHIMS {
            assert!(!words.contains(&shim), "{path}: runtime dependency on dev-only `{shim}`");
        }
    }
}

#[test]
fn the_manifest_reader_sees_every_runtime_table() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\nrand.workspace = true\n\n\
                    [dependencies.proptest]\npath = \"../p\"\n\n\
                    [target.'cfg(unix)'.dependencies]\nr = { package = \"rand\" }\n\n\
                    [dev-dependencies]\ndev-only.workspace = true\n";
    let words = runtime_dependency_words(manifest);
    assert_eq!(words.iter().filter(|w| **w == "rand").count(), 2, "{words:?}");
    assert!(words.contains(&"proptest"), "{words:?}");
    assert!(!words.contains(&"dev-only"), "{words:?}");
}
