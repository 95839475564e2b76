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
    decode_json(&fs::read(path)?)
}

/// The parse-and-validate half of [`load_json`]: bytes that are not UTF-8,
/// not JSON or not a valid graph are [`io::ErrorKind::InvalidData`].
fn decode_json(data: &[u8]) -> io::Result<AttributedGraph> {
    let data = std::str::from_utf8(data).map_err(invalid_data)?;
    let graph: AttributedGraph = serde_json::from_str(data).map_err(invalid_data)?;
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

    /// The decoder on inputs near valid graphs: every input is refused as
    /// `InvalidData` or decodes to a graph that passes `validate`, and
    /// none panics.
    mod properties {
        use super::*;
        use crate::delta::GraphDelta;
        use crate::generators::{generate_sbm, sample_split, SbmConfig};
        use aneci_linalg::DenseMatrix;
        use proptest::prelude::*;
        use std::ops::Range;

        /// The JSON of three valid graphs: karate; a small bag-of-words
        /// SBM with a split and a missing-attribute mask; karate's
        /// topology with no attributes (zero-width features).
        fn bases() -> &'static [Vec<u8>; 3] {
            static BASES: std::sync::OnceLock<[Vec<u8>; 3]> = std::sync::OnceLock::new();
            BASES.get_or_init(build_bases)
        }

        fn build_bases() -> [Vec<u8>; 3] {
            let karate = karate_club();
            let mut sbm = generate_sbm(
                &SbmConfig {
                    num_nodes: 24,
                    num_classes: 3,
                    target_edges: 48,
                    feature_dim: 6,
                    ..SbmConfig::small()
                },
                5,
            );
            let labels = sbm.labels.clone().unwrap();
            sbm.set_split(sample_split(&labels, 2, 3, 5, 7));
            sbm.apply_delta(&GraphDelta::new().clear_attribute(3))
                .unwrap();
            let bare = AttributedGraph::from_edges(
                34,
                &karate.edge_list(),
                DenseMatrix::zeros(34, 0),
                karate.labels.clone(),
            );
            [karate, sbm, bare].map(|g| {
                g.validate().unwrap();
                serde_json::to_string(&g).unwrap().into_bytes()
            })
        }

        /// What the decoder may do with `bytes`: refuse them as
        /// `InvalidData`, or return a graph that passes `validate`.
        fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
            match decode_json(bytes) {
                Ok(g) => prop_assert!(g.validate().is_ok(), "an invalid graph decoded"),
                Err(e) => prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{}", e),
            }
            Ok(())
        }

        /// A byte range of the JSON and the number of the key it sits
        /// under: keys are counted, so that two keys of one name (the two
        /// `rows`) differ.
        type Span = (usize, Range<usize>);

        /// The numbers and the arrays of compact JSON, each with the key it
        /// sits under. Strings are skipped whole.
        fn spans(json: &[u8]) -> (Vec<Span>, Vec<Span>) {
            let (mut numbers, mut arrays, mut open) = (Vec::new(), Vec::new(), Vec::new());
            let (mut key, mut i) = (0, 0);
            while i < json.len() {
                match json[i] {
                    b'"' => {
                        let close = i + 1 + json[i + 1..].iter().position(|&b| b == b'"').unwrap();
                        key += usize::from(json.get(close + 1) == Some(&b':'));
                        i = close + 1;
                    }
                    b'[' => {
                        open.push(i);
                        i += 1;
                    }
                    b']' => {
                        arrays.push((key, open.pop().unwrap()..i + 1));
                        i += 1;
                    }
                    b'-' | b'0'..=b'9' => {
                        let start = i;
                        while i < json.len() && b"-+.eE0123456789".contains(&json[i]) {
                            i += 1;
                        }
                        numbers.push((key, start..i));
                    }
                    _ => i += 1,
                }
            }
            (numbers, arrays)
        }

        /// Replacement `kind` for the number `old`, in a graph of `n`
        /// nodes: small integers near it or near `n`, negative, fractional
        /// and huge values.
        fn replacement(old: &[u8], kind: usize, n: usize) -> String {
            let v: i64 = std::str::from_utf8(old).unwrap().parse().unwrap_or(0);
            match kind {
                0 => "0".into(),
                1 => "1".into(),
                2 => (v + 1).to_string(),
                3 => (v - 1).to_string(),
                4 => n.to_string(),
                5 => "-1".into(),
                6 => "0.5".into(),
                7 => "1.5".into(),
                8 => "1e300".into(),
                9 => i64::MAX.to_string(),
                10 => u64::MAX.to_string(),
                _ => "1e999".into(),
            }
        }

        /// The element of `items` that `(which, at)` picks: the first, the
        /// last, or the one `at` of the way along.
        fn pick<T>(items: &[T], which: usize, at: f64) -> &T {
            match which {
                0 => &items[0],
                1 => &items[items.len() - 1],
                _ => &items[((items.len() as f64 * at) as usize).min(items.len() - 1)],
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Arbitrary bytes, raw or over an alphabet of JSON tokens.
            #[test]
            fn arbitrary_bytes_are_refused_or_decode_a_valid_graph(
                raw in any::<bool>(),
                bytes in prop::collection::vec(any::<u8>(), 0..160),
            ) {
                const ALPHABET: &[u8] = b"{}[]:,\"0123456789.-eE truefalsnrowscolsindptr";
                let bytes: Vec<u8> = if raw {
                    bytes
                } else {
                    bytes.iter().map(|&b| ALPHABET[b as usize % ALPHABET.len()]).collect()
                };
                check(&bytes)?;
            }

            /// A valid graph's JSON cut short is refused.
            #[test]
            fn valid_json_cut_short_is_refused(base in 0..3usize, at in 0.0..1.0f64) {
                let json = &bases()[base];
                let cut = &json[..(json.len() as f64 * at) as usize];
                prop_assert!(decode_json(cut).is_err(), "a cut graph decoded");
                check(cut)?;
            }

            /// A valid graph's JSON with a few bytes overwritten.
            #[test]
            fn overwritten_bytes_are_refused_or_decode_a_valid_graph(
                base in 0..3usize,
                edits in prop::collection::vec((0.0..1.0f64, any::<u8>()), 1..4),
            ) {
                let mut json = bases()[base].clone();
                for (at, byte) in edits {
                    let len = json.len();
                    json[((len as f64 * at) as usize).min(len - 1)] = byte;
                }
                check(&json)?;
            }

            /// A valid graph's JSON with one to three numbers replaced by
            /// small, negative, fractional or huge values.
            #[test]
            fn replaced_numbers_are_refused_or_decode_a_valid_graph(
                base in 0..3usize,
                edits in prop::collection::vec((0..64usize, 0..3usize, 0.0..1.0f64, 0..12usize), 1..4),
            ) {
                let mut json = bases()[base].clone();
                let n = [34, 24, 34][base];
                for (key, which, at, kind) in edits {
                    let (numbers, _) = spans(&json);
                    let mut keys: Vec<usize> = numbers.iter().map(|(k, _)| *k).collect();
                    keys.dedup();
                    let key = keys[key % keys.len()];
                    let under: Vec<_> = numbers.into_iter().filter(|(k, _)| *k == key).collect();
                    let (_, range) = pick(&under, which, at).clone();
                    let with = replacement(&json[range.clone()], kind, n);
                    json.splice(range, with.bytes());
                }
                check(&json)?;
            }

            /// A valid graph's JSON with one array lengthened by copies of
            /// its last element (a `0` for an empty array).
            #[test]
            fn lengthened_arrays_are_refused_or_decode_a_valid_graph(
                base in 0..3usize,
                (array, count) in (0..64usize, 1..4usize),
            ) {
                let mut json = bases()[base].clone();
                let (_, arrays) = spans(&json);
                let (_, range) = &arrays[array % arrays.len()];
                let body = &json[range.start + 1..range.end - 1];
                let last = body.rsplit(|&b| b == b',').next().filter(|e| !e.is_empty());
                let mut extra = Vec::new();
                for k in 0..count {
                    if k > 0 || last.is_some() {
                        extra.push(b',');
                    }
                    extra.extend_from_slice(last.unwrap_or(b"0"));
                }
                let end = range.end - 1;
                json.splice(end..end, extra);
                check(&json)?;
            }
        }
    }
}
