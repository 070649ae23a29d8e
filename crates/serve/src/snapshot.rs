//! Sketch snapshot/restore: serialize a sealed RRR store with a versioned
//! provenance header, restore it in O(bytes) and skip sampling entirely.
//!
//! # Format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "RIPLSNAP"
//!      8     4  version (u32) = 1
//!     12     8  checksum (u64, FNV-1a over every byte from offset 20 to EOF)
//!     20     1  store kind (0 = flat, 1 = delta-varint blocks, read
//!                 only, 2 = flat with complement records)
//!     21     1  diffusion model (0 = ic, 1 = lt)
//!     22     1  sample engine (0 = auto, 1 = reference, 2 = fused)
//!     23     1  reserved, must be 0
//!     24     8  graph fingerprint (u64, Graph::fingerprint)
//!     32     8  master seed (u64)
//!     40     4  k (u32)
//!     44     4  k_max (u32, 0 = unset)
//!     48     8  epsilon (f64 bits)
//!     56     8  ell (f64 bits)
//!     64     8  theta (u64, sample count; must match the payload)
//!     72     …  payload (layout per store kind, below)
//! ```
//!
//! Flat payload (kind 0): `u64` offsets length, offsets as `u64` each,
//! `u64` data length, vertex ids as `u32` each — every set as its sorted
//! list whether the store holds it as a list or a bitmap; a restore
//! re-encodes each set by the store's own density rule. A store that holds
//! some sets as complements writes kind 2 instead: `u64` complement count,
//! the ascending sample index of each complement as `u64`, then the kind-0
//! layout, in which a complement's record is the sorted list of the
//! vertices it leaves out rather than the up to n it holds. A store with no
//! complement writes kind 0, byte for byte as before kind 2 existed. Every
//! store writes one of the two, whatever its kind.
//!
//! Kind 1 is read, never written: the payload the retired varint sample
//! stores (the varint backend, and the spill kind before it held its
//! samples flat) wrote. `u64` offsets length (θ + 1), the global byte offset
//! bounding each sample's block as `u64` each, `u64` counts length (θ),
//! per-sample vertex counts as `u32` each, `u64` byte-stream length, the
//! delta-varint blocks back to back (first id as an LEB128 varint, then
//! gap − 1 per further id). A restore checks every block and decodes it
//! into the flat store, which then answers as the store that wrote it.
//!
//! The provenance header pins everything that determined the sampled
//! collection: the graph (by fingerprint), the master seed, the sampling
//! kernel, the model, and the sizing parameters. A restore checks the
//! fingerprint against the live graph, re-validates the payload
//! structurally (monotone offsets, strictly-ascending samples, checked
//! varint decode), and finally verifies the whole-file checksum, so a
//! corrupt, truncated, or mismatched file is a structured
//! [`SnapshotError`] naming the offset and field — never a panic and never
//! a silently wrong sketch. The checksum runs *after* structural parsing
//! so truncation reports the exact field that ran dry; any single-byte
//! flip that survives the structural checks is caught by the checksum
//! (`crates/serve/tests/prop_snapshot.rs` asserts both properties over
//! random corruptions). Restored sketches answer queries
//! bitwise-identically to the service that wrote them.
//!
//! Every store layout snapshots; [`SnapshotError::UnsupportedStore`] is an
//! unknown kind byte on read.

use std::fs;
use std::path::Path;

use ripples_core::{ImmParams, SampleEngine};
use ripples_diffusion::compressed::decode_blocks;
use ripples_diffusion::{
    DiffusionModel, DynRrrStore, MixedRrrCollection, RrrCollection, RrrSetRef, RrrStore,
};
use ripples_graph::Graph;

use crate::SketchService;

/// The 8-byte file magic.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"RIPLSNAP";
/// The format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Why a snapshot could not be written or restored. Every decode-side
/// variant names the file offset and the field being read, so a corrupt
/// file is diagnosable without a hex dump.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Filesystem failure (open/read/write), with the OS detail.
    Io {
        /// What the snapshot code was doing.
        action: &'static str,
        /// `std::io::Error` rendering.
        detail: String,
    },
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// The version actually found.
        found: u32,
    },
    /// The file's store-kind byte is not one this build reads.
    UnsupportedStore {
        /// `"kind byte N"`.
        kind: String,
    },
    /// The file ends before `field` is complete.
    Truncated {
        /// The field being read when the bytes ran out.
        field: &'static str,
        /// File offset where the read began.
        offset: usize,
    },
    /// A field decodes but its value is inconsistent.
    Corrupt {
        /// The offending field.
        field: &'static str,
        /// File offset where the field begins.
        offset: usize,
        /// What is wrong with the value.
        detail: String,
    },
    /// The snapshot was built over a different graph.
    FingerprintMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the graph supplied at restore.
        found: u64,
    },
    /// The file parses but its bytes do not hash to the recorded checksum
    /// (bit rot or tampering that slipped past the structural checks).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes actually read.
        found: u64,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { action, detail } => {
                write!(f, "snapshot I/O failed while {action}: {detail}")
            }
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "not a sketch snapshot: magic bytes {found:02x?} at offset 0"
                )
            }
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "snapshot version {found} is not supported (this build reads v{SNAPSHOT_VERSION})"
            ),
            SnapshotError::UnsupportedStore { kind } => {
                write!(f, "snapshot store layout {kind} is not supported")
            }
            SnapshotError::Truncated { field, offset } => {
                write!(
                    f,
                    "snapshot truncated at offset {offset} while reading {field}"
                )
            }
            SnapshotError::Corrupt {
                field,
                offset,
                detail,
            } => write!(
                f,
                "snapshot corrupt: field {field} at offset {offset}: {detail}"
            ),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "graph fingerprint mismatch: snapshot was built over {expected:#018x}, \
                 the supplied graph is {found:#018x}"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot checksum mismatch: header records {expected:#018x}, \
                 file bytes hash to {found:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Everything [`read_snapshot`] recovers: the sealed store plus the build
/// provenance needed to reconstruct an equivalent [`SketchService`].
#[derive(Debug)]
pub struct RestoredSketch {
    /// The restored, sealed store.
    pub store: DynRrrStore,
    /// The build parameters (master seed, ε, ℓ, model, k, k_max).
    pub params: ImmParams,
    /// The sampling kernel the sketch was drawn with.
    pub sample: SampleEngine,
}

const fn model_byte(model: DiffusionModel) -> u8 {
    match model {
        DiffusionModel::IndependentCascade => 0,
        DiffusionModel::LinearThreshold => 1,
    }
}

const fn sample_byte(sample: SampleEngine) -> u8 {
    match sample {
        SampleEngine::Auto => 0,
        SampleEngine::Reference => 1,
        SampleEngine::Fused => 2,
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Overwrites the eight bytes at `at` with `v`.
fn put_u64(out: &mut [u8], at: usize, v: u64) {
    out[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Byte offset of the checksum field; the checksum covers everything
/// *after* it (offset [`CHECKSUM_COVERS_FROM`] to EOF).
const CHECKSUM_OFFSET: usize = 12;
/// First byte covered by the checksum.
const CHECKSUM_COVERS_FROM: usize = CHECKSUM_OFFSET + 8;

/// FNV-1a over a byte slice — the same hash family `Graph::fingerprint`
/// uses, good enough to catch bit rot (this is an integrity check, not an
/// authenticity one).
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serializes `service`'s sealed sketch to `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failure.
pub fn write_snapshot(path: &Path, service: &SketchService) -> Result<(), SnapshotError> {
    let bytes = encode_snapshot(service);
    fs::write(path, bytes).map_err(|e| SnapshotError::Io {
        action: "writing the snapshot file",
        detail: e.to_string(),
    })
}

/// The ids a payload records for `set`: a complement's missing ids (only a
/// kind-2 payload holds complements), any other set's vertices.
fn record_len(set: RrrSetRef<'_>) -> usize {
    match set {
        RrrSetRef::Complement { missing, .. } => missing.len(),
        set => set.len(),
    }
}

/// Serializes `service`'s sealed sketch into a byte buffer (the body of
/// [`write_snapshot`], separated for tests).
#[must_use]
pub fn encode_snapshot(service: &SketchService) -> Vec<u8> {
    let store = service.store();
    let params = service.params();
    let complements = store.form_counts().complement_sets;
    let kind = 2 * u8::from(complements > 0);
    let records: usize = (0..store.len()).map(|i| record_len(store.set(i))).sum();
    let complement_bytes = if complements > 0 {
        8 * (complements as usize + 1)
    } else {
        0
    };
    let payload_bytes = 8 * (store.len() + 3) + complement_bytes + 4 * records;
    let mut out = Vec::with_capacity(80 + payload_bytes);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    push_u32(&mut out, SNAPSHOT_VERSION);
    push_u64(&mut out, 0); // checksum placeholder, patched below
    out.push(kind);
    out.push(model_byte(params.model));
    out.push(sample_byte(service.sample_engine()));
    out.push(0); // reserved
    push_u64(&mut out, service.graph_fingerprint());
    push_u64(&mut out, params.seed);
    push_u32(&mut out, params.k);
    push_u32(&mut out, params.k_max.unwrap_or(0));
    push_u64(&mut out, params.epsilon.to_bits());
    push_u64(&mut out, params.ell.to_bits());
    push_u64(&mut out, service.theta() as u64);
    if complements > 0 {
        push_u64(&mut out, complements);
        for i in 0..store.len() {
            if let RrrSetRef::Complement { .. } = store.set(i) {
                push_u64(&mut out, i as u64);
            }
        }
    }
    push_u64(&mut out, store.len() as u64 + 1);
    let mut end = 0u64;
    push_u64(&mut out, end);
    for i in 0..store.len() {
        end += record_len(store.set(i)) as u64;
        push_u64(&mut out, end);
    }
    push_u64(&mut out, end);
    for i in 0..store.len() {
        match store.set(i) {
            RrrSetRef::Complement { missing, .. } => {
                missing.iter().for_each(|&v| push_u32(&mut out, v));
            }
            set => set.for_each(|v| push_u32(&mut out, v)),
        }
    }
    let checksum = fnv1a(&out[CHECKSUM_COVERS_FROM..]);
    put_u64(&mut out, CHECKSUM_OFFSET, checksum);
    out
}

/// A bounds-checked little-endian reader that tracks the file offset, so
/// every failure can name where and what it was reading.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::Truncated {
                field,
                offset: self.pos,
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, field)?[0])
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// A length field that must also fit in memory as `elem_size`-byte
    /// elements of the remaining file, preventing absurd-length
    /// allocations from corrupt headers.
    fn len(&mut self, field: &'static str, elem_size: usize) -> Result<usize, SnapshotError> {
        let offset = self.pos;
        let raw = self.u64(field)?;
        let len = usize::try_from(raw).map_err(|_| SnapshotError::Corrupt {
            field,
            offset,
            detail: format!("length {raw} does not fit in memory"),
        })?;
        let remaining = self.buf.len() - self.pos;
        if len.checked_mul(elem_size).is_none_or(|b| b > remaining) {
            return Err(SnapshotError::Corrupt {
                field,
                offset,
                detail: format!(
                    "length {len} x {elem_size} bytes exceeds the {remaining} bytes left in the file"
                ),
            });
        }
        Ok(len)
    }

    /// A length-prefixed array of `u64` offsets, each of which must fit in
    /// memory.
    fn offsets(
        &mut self,
        len_field: &'static str,
        field: &'static str,
    ) -> Result<Vec<usize>, SnapshotError> {
        let len = self.len(len_field, 8)?;
        let mut offsets = Vec::with_capacity(len);
        for _ in 0..len {
            let offset = self.pos;
            let raw = self.u64(field)?;
            offsets.push(usize::try_from(raw).map_err(|_| SnapshotError::Corrupt {
                field,
                offset,
                detail: format!("offset {raw} does not fit in memory"),
            })?);
        }
        Ok(offsets)
    }

    /// A length-prefixed array of `u32`s.
    fn u32s(
        &mut self,
        len_field: &'static str,
        field: &'static str,
    ) -> Result<Vec<u32>, SnapshotError> {
        let len = self.len(len_field, 4)?;
        let mut values = Vec::with_capacity(len);
        for _ in 0..len {
            values.push(self.u32(field)?);
        }
        Ok(values)
    }
}

/// Reads and validates a snapshot from `path`, checking its graph
/// fingerprint against `graph`.
///
/// # Errors
///
/// See [`SnapshotError`]; structural payload problems surface as
/// [`SnapshotError::Corrupt`] with the underlying validation message.
pub fn read_snapshot(path: &Path, graph: &Graph) -> Result<RestoredSketch, SnapshotError> {
    let bytes = fs::read(path).map_err(|e| SnapshotError::Io {
        action: "reading the snapshot file",
        detail: e.to_string(),
    })?;
    decode_snapshot(&bytes, graph)
}

/// Decodes a snapshot from an in-memory buffer (the body of
/// [`read_snapshot`], separated for tests and fuzzing).
///
/// # Errors
///
/// See [`read_snapshot`].
pub fn decode_snapshot(bytes: &[u8], graph: &Graph) -> Result<RestoredSketch, SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.take(8, "magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic {
            found: magic.try_into().expect("8-byte slice"),
        });
    }
    let version = r.u32("version")?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let checksum = r.u64("checksum")?;
    let kind_offset = r.pos;
    let kind_byte = r.u8("store kind")?;
    let model_offset = r.pos;
    let model_byte = r.u8("diffusion model")?;
    let sample_offset = r.pos;
    let sample_byte = r.u8("sample engine")?;
    let reserved_offset = r.pos;
    let reserved = r.u8("reserved")?;
    if reserved != 0 {
        return Err(SnapshotError::Corrupt {
            field: "reserved",
            offset: reserved_offset,
            detail: format!("expected 0, found {reserved}"),
        });
    }
    let fingerprint = r.u64("graph fingerprint")?;
    let live = graph.fingerprint();
    if fingerprint != live {
        return Err(SnapshotError::FingerprintMismatch {
            expected: fingerprint,
            found: live,
        });
    }
    let seed = r.u64("master seed")?;
    let k_offset = r.pos;
    let k = r.u32("k")?;
    let k_max = r.u32("k_max")?;
    let eps_offset = r.pos;
    let epsilon = f64::from_bits(r.u64("epsilon")?);
    let ell_offset = r.pos;
    let ell = f64::from_bits(r.u64("ell")?);
    let theta_offset = r.pos;
    let theta = r.u64("theta")?;

    let model = match model_byte {
        0 => DiffusionModel::IndependentCascade,
        1 => DiffusionModel::LinearThreshold,
        other => {
            return Err(SnapshotError::Corrupt {
                field: "diffusion model",
                offset: model_offset,
                detail: format!("unknown model byte {other}"),
            })
        }
    };
    let sample = match sample_byte {
        0 => SampleEngine::Auto,
        1 => SampleEngine::Reference,
        2 => SampleEngine::Fused,
        other => {
            return Err(SnapshotError::Corrupt {
                field: "sample engine",
                offset: sample_offset,
                detail: format!("unknown sample-engine byte {other}"),
            })
        }
    };
    if k == 0 {
        return Err(SnapshotError::Corrupt {
            field: "k",
            offset: k_offset,
            detail: "k must be positive".to_string(),
        });
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(SnapshotError::Corrupt {
            field: "epsilon",
            offset: eps_offset,
            detail: format!("epsilon {epsilon} outside (0, 1)"),
        });
    }
    // Rejects NaN and infinity as well as zero and negatives.
    if !(ell.is_finite() && ell > 0.0) {
        return Err(SnapshotError::Corrupt {
            field: "ell",
            offset: ell_offset,
            detail: format!("ell {ell} must be positive and finite"),
        });
    }

    let store = match kind_byte {
        0 => DynRrrStore::from_flat(decode_flat_payload(&mut r)?, graph.num_vertices()),
        1 => DynRrrStore::from_flat(decode_varint_payload(&mut r)?, graph.num_vertices()),
        2 => decode_complement_payload(&mut r, graph.num_vertices())?,
        other => {
            return Err(SnapshotError::UnsupportedStore {
                kind: format!("kind byte {other}"),
            })
        }
    };
    if r.pos != bytes.len() {
        return Err(SnapshotError::Corrupt {
            field: "payload",
            offset: r.pos,
            detail: format!("{} trailing bytes after the payload", bytes.len() - r.pos),
        });
    }
    if store.len() as u64 != theta {
        return Err(SnapshotError::Corrupt {
            field: "theta",
            offset: theta_offset,
            detail: format!(
                "header says {theta} samples but the payload holds {}",
                store.len()
            ),
        });
    }
    if let Some(v) = max_vertex(&store) {
        if v >= graph.num_vertices() {
            return Err(SnapshotError::Corrupt {
                field: "payload",
                offset: kind_offset,
                detail: format!(
                    "sample vertex id {v} is out of range for a {}-vertex graph",
                    graph.num_vertices()
                ),
            });
        }
    }

    // Last line of defense: a byte flip the structural checks cannot see
    // (e.g. a vertex id changed to another valid id) fails here.
    let computed = fnv1a(&bytes[CHECKSUM_COVERS_FROM..]);
    if computed != checksum {
        return Err(SnapshotError::ChecksumMismatch {
            expected: checksum,
            found: computed,
        });
    }

    let mut params = ImmParams::new(k, epsilon, model, seed).with_ell(ell);
    if k_max > 0 {
        params = params.with_k_max(k_max);
    }
    Ok(RestoredSketch {
        store,
        params,
        sample,
    })
}

/// A kind-0 payload, or the records of a kind-2 one.
fn decode_flat_payload(r: &mut Reader<'_>) -> Result<RrrCollection, SnapshotError> {
    let payload_offset = r.pos;
    let offsets = r.offsets("flat offsets length", "flat offset")?;
    let data = r.u32s("flat data length", "flat vertex id")?;
    RrrCollection::from_raw_parts(offsets, data).map_err(|detail| SnapshotError::Corrupt {
        field: "flat payload",
        offset: payload_offset,
        detail,
    })
}

/// A kind-2 payload: the complements' sample indices, then the records.
fn decode_complement_payload(
    r: &mut Reader<'_>,
    num_vertices: u32,
) -> Result<DynRrrStore, SnapshotError> {
    let payload_offset = r.pos;
    let complements = r.offsets("complement count", "complement sample")?;
    let records = decode_flat_payload(r)?;
    let corrupt = |detail: String| SnapshotError::Corrupt {
        field: "complement samples",
        offset: payload_offset,
        detail,
    };
    if let Some(i) = complements.windows(2).position(|w| w[0] >= w[1]) {
        return Err(corrupt(format!(
            "complement sample {} does not follow {}",
            complements[i + 1],
            complements[i]
        )));
    }
    if let Some(&last) = complements.last().filter(|&&last| last >= records.len()) {
        return Err(corrupt(format!(
            "complement sample {last} is past the payload's {} samples",
            records.len()
        )));
    }
    let mut sets = MixedRrrCollection::new(num_vertices);
    let mut next = complements.iter().peekable();
    for (i, record) in records.iter().enumerate() {
        if next.next_if_eq(&&i).is_some() {
            sets.push_complement(record)
                .map_err(|detail| corrupt(format!("sample {i}: {detail}")))?;
        } else {
            sets.push(record);
        }
    }
    Ok(DynRrrStore::from_mixed(sets))
}

/// A kind-1 payload, decoded into lists.
fn decode_varint_payload(r: &mut Reader<'_>) -> Result<RrrCollection, SnapshotError> {
    let payload_offset = r.pos;
    let offsets = r.offsets("varint offsets length", "varint offset")?;
    let counts = r.u32s("varint counts length", "varint count")?;
    let bytes_len = r.len("varint byte-stream length", 1)?;
    let data = r.take(bytes_len, "varint byte stream")?;
    decode_blocks(&offsets, &counts, data).map_err(|detail| SnapshotError::Corrupt {
        field: "varint payload",
        offset: payload_offset,
        detail,
    })
}

/// Largest vertex id appearing in any sample, for range validation
/// against the live graph at restore time.
fn max_vertex(store: &DynRrrStore) -> Option<u32> {
    let mut max: Option<u32> = None;
    let mut buf = Vec::new();
    for i in 0..store.len() {
        store.decode_into(i, &mut buf);
        // Samples are strictly ascending, so the last entry is the max.
        if let Some(&m) = buf.last() {
            max = Some(max.map_or(m, |cur| cur.max(m)));
        }
    }
    max
}
