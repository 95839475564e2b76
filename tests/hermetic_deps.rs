//! Every dependency of the workspace resolves in-tree.
//!
//! The root manifest and each member's `crates/*/Cargo.toml` may name a
//! dependency only through `workspace = true` or a `path`. A registry entry
//! (`rand = "0.8"`, `{ version = .. }`, `{ git = .. }`) would make an offline
//! build stop at resolution and a networked build link a different crate,
//! whose random stream fails the golden fixtures. The manifests are read as
//! plain lines: no TOML parser is a dependency here.

use std::fs;
use std::path::{Path, PathBuf};

/// The dependency tables checked, as the last segment of a section header
/// (`[dependencies]`, `[workspace.dependencies]`, `[target.'…'.dependencies]`).
const DEP_TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// One `[section]` of a manifest: its header path and its lines.
struct Section<'a> {
    header: &'a str,
    lines: Vec<&'a str>,
}

fn sections(manifest: &str) -> Vec<Section<'_>> {
    let mut out = vec![Section {
        header: "",
        lines: Vec::new(),
    }];
    for line in manifest.lines() {
        let line = line.split_once('#').map_or(line, |(code, _)| code).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            out.push(Section {
                header: header.trim(),
                lines: Vec::new(),
            });
        } else {
            out.last_mut().expect("never empty").lines.push(line);
        }
    }
    out
}

/// Whether one `key = value` pair of a dependency's table makes it local.
fn names_local_source(pair: &str) -> bool {
    let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
    let (key, value) = (key.trim(), value.trim());
    key == "path" || (key == "workspace" && value == "true")
}

/// The dependencies of `manifest` that do not resolve in-tree, as
/// `"[section] line"` strings.
fn non_local_deps(manifest: &str) -> Vec<String> {
    let mut bad = Vec::new();
    for section in sections(manifest) {
        let mut segments = section.header.rsplit('.');
        let last = segments.next().unwrap_or_default();
        let parent = segments.next();
        if DEP_TABLES.contains(&last) {
            // `[dependencies]`: one `name = …` entry per line.
            for line in &section.lines {
                let (key, value) = line.split_once('=').unwrap_or((line, ""));
                let (key, value) = (key.trim(), value.trim());
                let local = match key.strip_suffix(".workspace") {
                    Some(_) => value == "true",
                    None => value
                        .strip_prefix('{')
                        .and_then(|v| v.strip_suffix('}'))
                        .is_some_and(|table| table.split(',').any(names_local_source)),
                };
                if !local {
                    bad.push(format!("[{}] {line}", section.header));
                }
            }
        } else if parent.is_some_and(|p| DEP_TABLES.contains(&p)) {
            // `[dependencies.name]`: the whole section is one entry.
            if !section.lines.iter().any(|l| names_local_source(l)) {
                bad.push(format!("[{}]", section.header));
            }
        }
    }
    bad
}

/// The root manifest and every workspace member's (`crates/*`).
fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|entry| entry.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|path| path.is_file())
        .collect();
    members.sort();
    manifests.extend(members);
    manifests
}

#[test]
fn every_workspace_dependency_is_workspace_or_path() {
    let manifests = workspace_manifests();
    assert!(manifests.len() > 1, "no crates/*/Cargo.toml found");
    let mut bad = Vec::new();
    for path in &manifests {
        let text = fs::read_to_string(path).expect("read manifest");
        for entry in non_local_deps(&text) {
            bad.push(format!("{}: {entry}", path.display()));
        }
    }
    assert!(
        bad.is_empty(),
        "dependencies outside the tree (use `workspace = true` or a `path`):\n{}",
        bad.join("\n")
    );
}

#[test]
fn registry_and_git_entries_are_rejected() {
    let manifest = r#"
[workspace.dependencies]
local = { path = "crates/local" }
rand = "0.8"

[dependencies]
local.workspace = true
inherited = { workspace = true, features = ["x"] }
serde = { version = "1", features = ["derive"] }

[dev-dependencies.proptest]
version = "1"

[target.'cfg(unix)'.build-dependencies]
cc = { git = "https://example.invalid/cc" }

[dependencies.shim]
path = "shims/shim"
"#;
    assert_eq!(
        non_local_deps(manifest),
        [
            "[workspace.dependencies] rand = \"0.8\"",
            "[dependencies] serde = { version = \"1\", features = [\"derive\"] }",
            "[dev-dependencies.proptest]",
            "[target.'cfg(unix)'.build-dependencies] cc = { git = \"https://example.invalid/cc\" }",
        ]
    );
}
