//! Graph persistence as JSON via serde: the full [`AttributedGraph`]
//! (topology, features, labels, splits) round-trips losslessly; used to
//! checkpoint generated benchmarks so every experiment binary sees the
//! identical graph.

use crate::attributed::AttributedGraph;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Saves a graph as compact JSON.
pub fn save_json(graph: &AttributedGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let json = serde_json::to_string(graph).map_err(io::Error::other)?;
    let mut f = fs::File::create(path)?;
    f.write_all(json.as_bytes())
}

/// Maps a malformed-content error (as opposed to an OS-level I/O failure)
/// into the `InvalidData` kind so callers can distinguish "file unreadable"
/// from "file readable but not a valid graph".
fn invalid_data(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Loads a graph from JSON and validates its invariants.
///
/// Malformed input — unparseable JSON, or JSON that decodes into a graph
/// violating the structural invariants (ragged feature storage, corrupt CSR
/// row pointers, asymmetric edges, self-loops, bad splits) — returns an
/// [`io::ErrorKind::InvalidData`] error; this function never panics on bad
/// file contents.
pub fn load_json(path: impl AsRef<Path>) -> io::Result<AttributedGraph> {
    let data = fs::read_to_string(path)?;
    let graph: AttributedGraph = serde_json::from_str(&data).map_err(invalid_data)?;
    graph.validate().map_err(invalid_data)?;
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::karate::karate_club;

    #[test]
    fn json_roundtrip_preserves_everything() {
        let g = karate_club();
        let dir = std::env::temp_dir().join("aneci_io_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("karate.json");
        save_json(&g, &path).unwrap();
        let g2 = load_json(&path).unwrap();
        assert_eq!(g.edge_list(), g2.edge_list());
        assert_eq!(g.labels, g2.labels);
        assert_eq!(g.features(), g2.features());
        assert_eq!(g.name, g2.name);
        fs::remove_file(path).ok();
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        let dir = std::env::temp_dir().join("aneci_io_malformed");
        fs::create_dir_all(&dir).unwrap();

        // Unparseable JSON.
        let p = dir.join("truncated.json");
        fs::write(&p, "{\"adjacency\": {\"rows\": 3").unwrap();
        let err = load_json(&p).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // JSON that parses but decodes a corrupt CSR adjacency (indptr
        // pointing past the stored entries) — must be InvalidData, not a
        // slice panic when the graph is first used.
        let p = dir.join("bad_csr.json");
        fs::write(
            &p,
            r#"{"adjacency":{"rows":2,"cols":2,"indptr":[0,50,1],"indices":[0],"values":[1.0]},
                "features":{"rows":2,"cols":1,"data":[0.0,0.0]},
                "labels":null,"split":{"train":[],"val":[],"test":[]},"name":"bad"}"#,
        )
        .unwrap();
        match load_json(&p) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            Ok(_) => panic!("corrupt CSR accepted"),
        }

        // JSON with ragged dense feature storage.
        let p = dir.join("bad_features.json");
        fs::write(
            &p,
            r#"{"adjacency":{"rows":1,"cols":1,"indptr":[0,0],"indices":[],"values":[]},
                "features":{"rows":1,"cols":4,"data":[0.0]},
                "labels":null,"split":{"train":[],"val":[],"test":[]},"name":"bad"}"#,
        )
        .unwrap();
        match load_json(&p) {
            Err(err) => assert_eq!(err.kind(), std::io::ErrorKind::InvalidData),
            Ok(_) => panic!("ragged features accepted"),
        }

        fs::remove_dir_all(&dir).ok();
    }
}
