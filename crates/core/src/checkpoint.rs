//! Binary model checkpoints — the `.aneci` format.
//!
//! A trained [`crate::AneciModel`] used to live and die inside one process;
//! the serving layer (`aneci-serve`) needs a durable artifact it can load
//! without retraining. The `.aneci` file stores everything a query engine or
//! a warm-restart needs, **bit-exactly**:
//!
//! * the embedding matrix `Z` kept by training,
//! * the soft community-membership matrix `P = softmax(Z)`,
//! * the encoder weights (so the model can be rebuilt on its graph), and
//! * the full [`AneciConfig`].
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"ANECIckp"
//! 8       4     format version (u32), currently 1
//! 12      4     section count (u32)
//! 16      …     sections, each: tag [u8;4] | payload_len (u64) | payload
//! end-4   4     CRC-32 (IEEE) of every preceding byte
//! ```
//!
//! Sections (order not significant; unknown tags are skipped so newer
//! writers can extend the format):
//!
//! | tag    | payload |
//! |--------|---------|
//! | `CFG\0` | [`AneciConfig`] as UTF-8 JSON |
//! | `EMB\0` | embedding matrix |
//! | `MEM\0` | membership matrix |
//! | `WTS\0` | weight count (u32), then per weight: name length (u16), UTF-8 name, matrix |
//!
//! A matrix is `rows (u64) | cols (u64) | rows·cols f64 values` in row-major
//! order; one with rows has at least one column. `f64`s round-trip through `to_le_bytes`/`from_le_bytes`, which is
//! exact for every bit pattern, so `load(save(m))` reproduces the matrices
//! bit-for-bit. Truncated files, wrong magic, length overruns and checksum
//! mismatches all fail loudly with [`CheckpointError::Format`].

use crate::config::AneciConfig;
use aneci_linalg::DenseMatrix;
use std::fmt;
use std::io;
use std::path::Path;

/// File magic: identifies an AnECI checkpoint regardless of extension.
pub const MAGIC: [u8; 8] = *b"ANECIckp";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_CONFIG: [u8; 4] = *b"CFG\0";
const TAG_EMBEDDING: [u8; 4] = *b"EMB\0";
const TAG_MEMBERSHIP: [u8; 4] = *b"MEM\0";
const TAG_WEIGHTS: [u8; 4] = *b"WTS\0";

/// Why a checkpoint could not be read or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// OS-level failure (file missing, permissions, disk full…).
    Io(io::Error),
    /// The bytes are not a valid checkpoint (truncated, corrupt, wrong
    /// magic/version, checksum mismatch…). The message says which.
    Format(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(e) => e,
            CheckpointError::Format(m) => io::Error::new(io::ErrorKind::InvalidData, m),
        }
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, CheckpointError> {
    Err(CheckpointError::Format(msg.into()))
}

/// A durable snapshot of a trained model: everything the serving layer needs.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Full training configuration (round-trips through JSON).
    pub config: AneciConfig,
    /// The kept embedding matrix `Z` (`N×h`).
    pub embedding: DenseMatrix,
    /// The soft membership matrix `P = softmax(Z)` (`N×h`).
    pub membership: DenseMatrix,
    /// Named encoder weights in slot order (`w1`, `w2`).
    pub weights: Vec<(String, DenseMatrix)>,
}

impl Checkpoint {
    /// Serializes to the `.aneci` byte format.
    pub fn to_bytes(&self) -> Result<Vec<u8>, CheckpointError> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&4u32.to_le_bytes());

        let cfg_json = serde_json::to_vec(&self.config)
            .map_err(|e| CheckpointError::Format(format!("config serialization: {e}")))?;
        write_section(&mut out, TAG_CONFIG, &cfg_json);
        write_section(&mut out, TAG_EMBEDDING, &encode_matrix(&self.embedding));
        write_section(&mut out, TAG_MEMBERSHIP, &encode_matrix(&self.membership));

        let mut wts = Vec::new();
        wts.extend_from_slice(&(self.weights.len() as u32).to_le_bytes());
        for (name, m) in &self.weights {
            let bytes = name.as_bytes();
            if bytes.len() > u16::MAX as usize {
                return format_err(format!("weight name too long: {} bytes", bytes.len()));
            }
            wts.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            wts.extend_from_slice(bytes);
            wts.extend_from_slice(&encode_matrix(m));
        }
        write_section(&mut out, TAG_WEIGHTS, &wts);

        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        Ok(out)
    }

    /// Parses the `.aneci` byte format, verifying magic, version, section
    /// framing and the trailing CRC-32.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < MAGIC.len() + 4 + 4 + 4 {
            return format_err(format!("file too short ({} bytes)", bytes.len()));
        }
        if bytes[..8] != MAGIC {
            return format_err("bad magic (not an .aneci checkpoint)");
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        let computed = crc32(body);
        if stored != computed {
            return format_err(format!(
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x}) — file corrupt or truncated"
            ));
        }

        let mut r = Reader::new(&body[8..]);
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return format_err(format!(
                "unsupported format version {version} (this build reads {FORMAT_VERSION})"
            ));
        }
        let sections = r.u32()?;

        let mut config: Option<AneciConfig> = None;
        let mut embedding: Option<DenseMatrix> = None;
        let mut membership: Option<DenseMatrix> = None;
        let mut weights: Option<Vec<(String, DenseMatrix)>> = None;

        for _ in 0..sections {
            let tag = r.tag()?;
            let len = r.u64()? as usize;
            let payload = r.take(len)?;
            match tag {
                TAG_CONFIG => {
                    let cfg: AneciConfig = serde_json::from_slice(payload)
                        .map_err(|e| CheckpointError::Format(format!("config section: {e}")))?;
                    cfg.validate()
                        .map_err(|e| CheckpointError::Format(e.to_string()))?;
                    config = Some(cfg);
                }
                TAG_EMBEDDING => embedding = Some(decode_matrix(payload, "embedding")?),
                TAG_MEMBERSHIP => membership = Some(decode_matrix(payload, "membership")?),
                TAG_WEIGHTS => {
                    let mut wr = Reader::new(payload);
                    let count = wr.u32()? as usize;
                    let mut ws = Vec::with_capacity(count.min(1024));
                    for _ in 0..count {
                        let name_len = wr.u16()? as usize;
                        let name = std::str::from_utf8(wr.take(name_len)?)
                            .map_err(|_| CheckpointError::Format("weight name not UTF-8".into()))?
                            .to_string();
                        let m = wr.matrix(&name)?;
                        ws.push((name, m));
                    }
                    wr.finish("weights section")?;
                    weights = Some(ws);
                }
                // Unknown tags: skip, so future writers can add sections.
                _ => {}
            }
        }
        r.finish("checkpoint body")?;

        let config = config.ok_or_else(|| CheckpointError::Format("missing CFG section".into()))?;
        let embedding =
            embedding.ok_or_else(|| CheckpointError::Format("missing EMB section".into()))?;
        let membership =
            membership.ok_or_else(|| CheckpointError::Format("missing MEM section".into()))?;
        let weights =
            weights.ok_or_else(|| CheckpointError::Format("missing WTS section".into()))?;
        if embedding.shape() != membership.shape() {
            return format_err(format!(
                "embedding {}x{} and membership {}x{} shapes disagree",
                embedding.rows(),
                embedding.cols(),
                membership.rows(),
                membership.cols()
            ));
        }
        Ok(Self {
            config,
            embedding,
            membership,
            weights,
        })
    }

    /// Writes the checkpoint to a file (conventionally `*.aneci`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let bytes = self.to_bytes()?;
        std::fs::write(path, bytes)?;
        Ok(())
    }

    /// Reads a checkpoint from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Number of nodes covered by the checkpointed embedding.
    pub fn num_nodes(&self) -> usize {
        self.embedding.rows()
    }

    /// Embedding dimensionality `h`.
    pub fn embed_dim(&self) -> usize {
        self.embedding.cols()
    }
}

fn write_section(out: &mut Vec<u8>, tag: [u8; 4], payload: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

fn encode_matrix(m: &DenseMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + m.len() * 8);
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.as_slice() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_matrix(payload: &[u8], what: &str) -> Result<DenseMatrix, CheckpointError> {
    let mut r = Reader::new(payload);
    let m = r.matrix(what)?;
    r.finish(what)?;
    Ok(m)
}

/// Bounds-checked little-endian cursor: every read that would run past the
/// end becomes a `Format` error, so truncated files cannot panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                CheckpointError::Format(format!(
                    "truncated: wanted {n} bytes at offset {}, only {} remain",
                    self.pos,
                    self.bytes.len() - self.pos
                ))
            })?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn tag(&mut self) -> Result<[u8; 4], CheckpointError> {
        Ok(self.take(4)?.try_into().unwrap())
    }

    fn matrix(&mut self, what: &str) -> Result<DenseMatrix, CheckpointError> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        // Rows without columns hold no bytes, so the file would not bound
        // their count: a few hundred bytes could declare 2^40 nodes.
        if cols == 0 && rows > 0 {
            return format_err(format!("{what}: {rows} rows of 0 columns"));
        }
        let count = rows.checked_mul(cols).ok_or_else(|| {
            CheckpointError::Format(format!("{what}: shape {rows}x{cols} overflows"))
        })?;
        let byte_len = count
            .checked_mul(8)
            .ok_or_else(|| CheckpointError::Format(format!("{what}: {count} entries overflow")))?;
        let raw = self.take(byte_len).map_err(|_| {
            CheckpointError::Format(format!(
                "{what}: declares {rows}x{cols} entries but payload is truncated"
            ))
        })?;
        let data: Vec<f64> = raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(DenseMatrix::from_vec(rows, cols, data))
    }

    fn finish(&self, what: &str) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return format_err(format!(
                "{what}: {} trailing bytes after the declared content",
                self.bytes.len() - self.pos
            ));
        }
        Ok(())
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum gzip/PNG use. Table-driven, computed once at first use.
pub fn crc32(bytes: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopStrategy;
    use crate::model::train_aneci;
    use aneci_graph::karate_club;

    fn trained_checkpoint() -> Checkpoint {
        let g = karate_club();
        let cfg = AneciConfig {
            hidden_dim: 8,
            embed_dim: 2,
            epochs: 5,
            stop: StopStrategy::FixedEpochs,
            seed: 3,
            ..Default::default()
        };
        let (model, _) = train_aneci(&g, &cfg).unwrap();
        model.checkpoint().unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let ckpt = trained_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.embedding, ckpt.embedding);
        assert_eq!(back.membership, ckpt.membership);
        assert_eq!(back.weights, ckpt.weights);
        assert_eq!(back.config, ckpt.config);
        // Byte-level determinism too: re-serializing reproduces the file.
        assert_eq!(back.to_bytes().unwrap(), bytes);
    }

    #[test]
    fn file_roundtrip() {
        let ckpt = trained_checkpoint();
        let dir = std::env::temp_dir().join("aneci_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.aneci");
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn truncation_and_corruption_fail_loudly() {
        let ckpt = trained_checkpoint();
        let bytes = ckpt.to_bytes().unwrap();

        // Every strict prefix must be rejected (checksum or framing).
        for cut in [0, 4, 12, 40, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Checkpoint::from_bytes(&bytes[..cut]).is_err(),
                "accepted a {cut}-byte truncation"
            );
        }

        // A single flipped byte anywhere must trip the CRC.
        for pos in [0, 9, 20, bytes.len() / 2, bytes.len() - 5] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&bad).is_err(),
                "accepted a flipped byte at {pos}"
            );
        }

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bad),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn empty_proximity_weights_are_a_format_error() {
        let mut ckpt = Checkpoint {
            config: AneciConfig::default(),
            embedding: DenseMatrix::zeros(2, 2),
            membership: DenseMatrix::zeros(2, 2),
            weights: Vec::new(),
        };
        ckpt.config.proximity.weights.clear();
        let bytes = ckpt.to_bytes().unwrap();
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rows_without_columns_are_a_format_error() {
        let ckpt = Checkpoint {
            config: AneciConfig::default(),
            embedding: DenseMatrix::zeros(3, 0),
            membership: DenseMatrix::zeros(3, 0),
            weights: Vec::new(),
        };
        let err = Checkpoint::from_bytes(&ckpt.to_bytes().unwrap()).unwrap_err();
        assert!(err.to_string().contains("3 rows of 0 columns"), "{err}");
    }

    #[test]
    fn error_messages_distinguish_kinds() {
        let err = Checkpoint::from_bytes(b"short").unwrap_err();
        assert!(err.to_string().contains("too short"), "{err}");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    mod properties {
        use super::*;
        use crate::config::ReconMode;
        use proptest::prelude::*;

        /// Characters of weight names: ASCII and multi-byte, so that a
        /// flipped bit in a name can break its UTF-8.
        const NAME_CHARS: [char; 6] = ['w', '1', '_', 'é', 'ж', '€'];

        /// A config from small knobs, each of which can make it invalid:
        /// zero widths or epochs, a zero learning rate, `eval_every` or
        /// `neg_ratio` of zero.
        fn config(
            (hidden_dim, embed_dim, epochs): (usize, usize, usize),
            (lr, stop, recon): (usize, usize, usize),
        ) -> AneciConfig {
            AneciConfig {
                hidden_dim,
                embed_dim,
                epochs,
                lr: [0.0, 0.01, 1.0][lr],
                stop: match stop {
                    0 => StopStrategy::FixedEpochs,
                    1 | 2 => StopStrategy::ValidationBest {
                        eval_every: stop - 1,
                    },
                    _ => StopStrategy::EarlyStopModularity { patience: 1 },
                },
                recon: match recon {
                    0 => ReconMode::Exact,
                    1 | 2 => ReconMode::Sampled {
                        neg_ratio: recon - 1,
                    },
                    _ => ReconMode::Auto,
                },
                ..AneciConfig::default()
            }
        }

        /// A matrix of the given shape holding arbitrary bit patterns.
        fn matrix((rows, cols): (usize, usize), bits: &[u64]) -> DenseMatrix {
            let data = (0..rows * cols)
                .map(|i| f64::from_bits(bits[i % bits.len()]))
                .collect();
            DenseMatrix::from_vec(rows, cols, data)
        }

        type WeightParts = Vec<(Vec<usize>, (usize, usize))>;

        fn weight_parts() -> impl Strategy<Value = WeightParts> {
            prop::collection::vec(
                (
                    prop::collection::vec(0..NAME_CHARS.len(), 0..8),
                    (0..3usize, 0..3usize),
                ),
                0..3,
            )
        }

        fn weights(parts: WeightParts, bits: &[u64]) -> Vec<(String, DenseMatrix)> {
            parts
                .into_iter()
                .map(|(name, shape)| {
                    let name = name.into_iter().map(|c| NAME_CHARS[c]).collect();
                    (name, matrix(shape, bits))
                })
                .collect()
        }

        /// Whether a matrix of this shape may be read: no rows, or at
        /// least one column, so the file's size bounds the row count.
        fn bounded((rows, cols): (usize, usize)) -> bool {
            rows == 0 || cols > 0
        }

        /// Decodes `bytes`: a format error, or a checkpoint `from_bytes`
        /// may return: a valid config, agreeing and bounded shapes, and
        /// bytes of its own that decode back to it.
        fn decode(bytes: &[u8]) -> Result<Option<Checkpoint>, TestCaseError> {
            match Checkpoint::from_bytes(bytes) {
                Ok(ckpt) => {
                    prop_assert!(ckpt.config.validate().is_ok(), "{:?}", ckpt.config);
                    prop_assert_eq!(ckpt.embedding.shape(), ckpt.membership.shape());
                    let mut shapes = ckpt.weights.iter().map(|(_, w)| w.shape());
                    prop_assert!(
                        bounded(ckpt.embedding.shape()) && shapes.all(bounded),
                        "unbounded shape decoded"
                    );
                    let own = ckpt.to_bytes().unwrap();
                    let again = Checkpoint::from_bytes(&own)
                        .map_err(|e| TestCaseError::Fail(format!("re-decode: {e}")))?;
                    prop_assert!(again.to_bytes().unwrap() == own, "re-decode differs");
                    Ok(Some(ckpt))
                }
                Err(CheckpointError::Format(_)) => Ok(None),
                Err(e) => Err(TestCaseError::Fail(format!("not a format error: {e}"))),
            }
        }

        fn u64_at(bytes: &[u8], at: usize) -> u64 {
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
        }

        /// Records the offsets of the rows and cols of the matrix at `at`
        /// and returns where the matrix ends.
        fn matrix_fields(body: &[u8], at: usize, fields: &mut Vec<usize>) -> usize {
            fields.extend([at, at + 8]);
            let count = u64_at(body, at) * u64_at(body, at + 8);
            at + 16 + 8 * count as usize
        }

        /// Offsets of every `u64` length field of a body `to_bytes` wrote:
        /// each section's payload length and each matrix's rows and cols.
        fn u64_fields(body: &[u8]) -> Vec<usize> {
            let mut fields = Vec::new();
            let mut at = 16;
            while at < body.len() {
                fields.push(at + 4);
                let payload = at + 12;
                match body[at..at + 4].try_into().unwrap() {
                    TAG_EMBEDDING | TAG_MEMBERSHIP => {
                        matrix_fields(body, payload, &mut fields);
                    }
                    TAG_WEIGHTS => {
                        let count =
                            u32::from_le_bytes(body[payload..payload + 4].try_into().unwrap());
                        let mut next = payload + 4;
                        for _ in 0..count {
                            let name_len =
                                u16::from_le_bytes(body[next..next + 2].try_into().unwrap());
                            next = matrix_fields(body, next + 2 + name_len as usize, &mut fields);
                        }
                    }
                    _ => {}
                }
                at = payload + u64_at(body, at + 4) as usize;
            }
            fields
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// Arbitrary bytes, optionally behind a valid magic or a whole
            /// valid header and optionally with a matching checksum.
            #[test]
            fn arbitrary_bytes_fail_typed_or_decode_a_valid_checkpoint(
                (header, sections) in (0..3u8, 0..6u32),
                body in prop::collection::vec(any::<u8>(), 0..96),
                checksummed in any::<bool>(),
            ) {
                let mut bytes = Vec::new();
                if header > 0 {
                    bytes.extend_from_slice(&MAGIC);
                }
                if header > 1 {
                    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                    bytes.extend_from_slice(&sections.to_le_bytes());
                }
                bytes.extend_from_slice(&body);
                if checksummed {
                    let crc = crc32(&bytes);
                    bytes.extend_from_slice(&crc.to_le_bytes());
                }
                decode(&bytes)?;
            }

            /// A checkpoint written from arbitrary parts decodes to itself
            /// exactly when its config validates, its embedding and
            /// membership shapes agree and no matrix has rows but no
            /// columns.
            #[test]
            fn written_checkpoints_decode_to_themselves_exactly_when_valid(
                knobs in ((0..3usize, 0..3usize, 0..3usize), (0..3usize, 0..4usize, 0..4usize)),
                shapes in ((0..3usize, 0..3usize), (0..3usize, 0..3usize), any::<bool>()),
                parts in weight_parts(),
                bits in prop::collection::vec(any::<u64>(), 1..8),
            ) {
                let (embedding, membership, same) = shapes;
                let membership = if same { embedding } else { membership };
                let ckpt = Checkpoint {
                    config: config(knobs.0, knobs.1),
                    embedding: matrix(embedding, &bits),
                    membership: matrix(membership, &bits),
                    weights: weights(parts, &bits),
                };
                let valid = ckpt.config.validate().is_ok()
                    && embedding == membership
                    && bounded(embedding)
                    && ckpt.weights.iter().all(|(_, w)| bounded(w.shape()));
                let bytes = ckpt.to_bytes().unwrap();
                match decode(&bytes)? {
                    Some(back) => {
                        prop_assert!(valid, "invalid checkpoint decoded: {ckpt:?}");
                        let again = back.to_bytes().unwrap();
                        prop_assert!(again == bytes, "decoded a different checkpoint");
                    }
                    None => prop_assert!(!valid, "valid checkpoint refused: {ckpt:?}"),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]

            /// A valid checkpoint cut short, with one bit flipped or with
            /// one `u64` length field overwritten, its checksum recomputed
            /// so the damage reaches the section parser. A cut is always
            /// refused. Its config is all ones, so a flipped bit can zero
            /// a field `validate` checks.
            #[test]
            fn damaged_checkpoints_fail_typed_or_decode_a_valid_one(
                (shape, parts, bits) in (
                    (0..3usize, 0..3usize),
                    weight_parts(),
                    prop::collection::vec(any::<u64>(), 1..8),
                ),
                (damage, at) in (0..3u8, any::<u64>()),
                (kind, value) in (0..4u8, any::<u64>()),
            ) {
                let ckpt = Checkpoint {
                    config: config((1, 1, 1), (2, 2, 2)),
                    embedding: matrix(shape, &bits),
                    membership: matrix(shape, &bits),
                    weights: weights(parts, &bits),
                };
                let mut body = ckpt.to_bytes().unwrap();
                body.truncate(body.len() - 4);
                match damage {
                    0 => body.truncate(at as usize % body.len()),
                    1 => {
                        let bit = at as usize % (body.len() * 8);
                        body[bit / 8] ^= 1 << (bit % 8);
                    }
                    _ => {
                        let fields = u64_fields(&body);
                        let field = fields[at as usize % fields.len()];
                        let old = u64_at(&body, field);
                        let new = match kind {
                            0 => value,
                            1 => (old + value % 9).wrapping_sub(4),
                            2 => 1 << (value % 64),
                            _ => value % 8,
                        };
                        body[field..field + 8].copy_from_slice(&new.to_le_bytes());
                    }
                }
                let crc = crc32(&body);
                body.extend_from_slice(&crc.to_le_bytes());
                let decoded = decode(&body)?;
                prop_assert!(damage != 0 || decoded.is_none(), "a cut-short checkpoint decoded");
            }
        }
    }
}
