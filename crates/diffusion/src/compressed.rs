//! The kind-1 snapshot reader. [`decode_blocks`] reads the sample blocks
//! of a kind-1 serve snapshot, the layout the retired varint sample stores
//! wrote: each sorted set a delta-varint block, its first id absolute and
//! every later one as its gap minus one, in the graph's LEB128
//! [`ripples_graph::varint`]s. No store holds samples in them any more.

use crate::rrr::RrrCollection;
use ripples_graph::Vertex;

/// Checked decode of one deserialized block into `out`: a well-formed
/// LEB128 stream that decodes exactly `count` strictly ascending vertex
/// ids in exactly `block.len()` bytes. Bytes that come off a disk are
/// trusted in nothing: truncated or bit-flipped blocks are reported by
/// byte offset, never by a panic.
///
/// # Errors
///
/// What is wrong with the block, as human-readable text.
fn check_block(block: &[u8], count: u32, out: &mut Vec<Vertex>) -> Result<(), String> {
    let mut pos = 0usize;
    let mut prev: Vertex = 0;
    for idx in 0..count {
        let mut x = 0u32;
        let mut shift = 0u32;
        loop {
            let Some(&byte) = block.get(pos) else {
                return Err(format!("varint truncated at block byte {pos}"));
            };
            pos += 1;
            if shift >= 32 || (shift == 28 && byte & 0x7F > 0x0F) {
                return Err(format!("varint overflows u32 at block byte {}", pos - 1));
            }
            x |= u32::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        prev = if idx == 0 {
            x
        } else {
            prev.checked_add(x)
                .and_then(|s| s.checked_add(1))
                .ok_or_else(|| format!("delta overflows vertex id at entry {idx}"))?
        };
        out.push(prev);
    }
    if pos != block.len() {
        return Err(format!(
            "block decodes in {pos} bytes but spans {}",
            block.len()
        ));
    }
    Ok(())
}

/// Decodes a stream of delta-varint sample blocks — `offsets` bounds each
/// sample's block in `data`, `counts` holds the per-sample vertex counts —
/// into the list collection, trusting nothing about them: offsets start at
/// 0, stay monotone and end at `data.len()`, and every block decodes
/// through the checked decoder. The snapshot-restore path turns the message
/// into a structured error.
///
/// # Errors
///
/// Any violated invariant, as human-readable text naming the field.
pub fn decode_blocks(
    offsets: &[usize],
    counts: &[u32],
    data: &[u8],
) -> Result<RrrCollection, String> {
    if offsets.len() != counts.len() + 1 {
        return Err(format!(
            "offsets length {} != counts length {} + 1",
            offsets.len(),
            counts.len()
        ));
    }
    if offsets[0] != 0 {
        return Err("offsets[0] must be 0".to_string());
    }
    if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(format!("offsets[{}] > offsets[{}]", i, i + 1));
    }
    if offsets[counts.len()] != data.len() {
        return Err(format!(
            "offsets[{}] = {} != data length {}",
            counts.len(),
            offsets[counts.len()],
            data.len()
        ));
    }
    let mut lists = RrrCollection::with_capacity(counts.len());
    let mut set = Vec::new();
    for (i, &count) in counts.iter().enumerate() {
        let block = &data[offsets[i]..offsets[i + 1]];
        set.clear();
        check_block(block, count, &mut set).map_err(|e| format!("sample {i}: {e}"))?;
        lists.push(&set);
    }
    Ok(lists)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_graph::varint::{push_varint, read_varint, varint_len, write_varint};

    /// Appends a strictly ascending list as one delta-varint block: the
    /// first id absolute, then gap − 1 deltas.
    fn encode_list(data: &mut Vec<u8>, list: &[Vertex]) {
        let mut next: Vertex = 0;
        for &v in list {
            push_varint(data, v - next);
            // Wraps only past `u32::MAX`, which is then the last id.
            next = v.wrapping_add(1);
        }
    }

    #[test]
    fn varint_roundtrip() {
        let mut data = Vec::new();
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, u32::MAX];
        for &v in &values {
            push_varint(&mut data, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), v);
        }
        assert_eq!(pos, data.len());
        // The sized-beforehand writer spends the same bytes.
        let total: u32 = values.iter().map(|&v| varint_len(v)).sum();
        let (mut written, mut at) = (vec![0u8; total as usize], 0usize);
        for &v in &values {
            at += write_varint(&mut written[at..], v) as usize;
        }
        assert_eq!(written, data);
    }

    /// One block per sample, back to back: `(end offset, count)` per block.
    fn encode_all(samples: &[Vec<Vertex>]) -> (Vec<u8>, Vec<(usize, u32)>) {
        let mut data = Vec::new();
        let blocks = samples
            .iter()
            .map(|s| {
                encode_list(&mut data, s);
                (data.len(), s.len() as u32)
            })
            .collect();
        (data, blocks)
    }

    #[test]
    fn push_decode_roundtrip() {
        let samples: Vec<Vec<Vertex>> = vec![
            vec![5],
            vec![0, 1, 2, 3],
            vec![],
            vec![100, 5_000, 1_000_000],
            vec![u32::MAX - 1, u32::MAX],
        ];
        let (data, blocks) = encode_all(&samples);
        let mut pos = 0usize;
        for (s, &(end, count)) in samples.iter().zip(&blocks) {
            let mut out = Vec::new();
            assert_eq!(check_block(&data[pos..end], count, &mut out), Ok(()));
            assert_eq!(&out, s);
            pos = end;
        }
    }

    #[test]
    fn check_block_rejects_what_the_unchecked_decoder_would_misread() {
        let mut good = Vec::new();
        encode_list(&mut good, &[3, 4, 900]);
        assert_eq!(check_block(&good, 3, &mut Vec::new()), Ok(()));
        // A count that lies in either direction.
        assert!(check_block(&good, 4, &mut Vec::new())
            .unwrap_err()
            .contains("truncated"));
        assert!(check_block(&good, 2, &mut Vec::new())
            .unwrap_err()
            .contains("spans"));
        // A continuation bit on the last byte runs off the block.
        let mut cut = good.clone();
        *cut.last_mut().unwrap() |= 0x80;
        assert!(check_block(&cut, 3, &mut Vec::new())
            .unwrap_err()
            .contains("truncated"));
        // Six continuation bytes cannot be a u32.
        assert!(check_block(&[0xFF; 6], 1, &mut Vec::new())
            .unwrap_err()
            .contains("overflows u32"));
        // u32::MAX followed by any gap leaves the id space.
        let mut wrap = Vec::new();
        push_varint(&mut wrap, u32::MAX);
        push_varint(&mut wrap, 0);
        assert!(check_block(&wrap, 2, &mut Vec::new())
            .unwrap_err()
            .contains("overflows vertex id"));
    }

    #[test]
    fn compression_beats_plain_on_dense_sorted_sets() {
        let samples: Vec<Vec<Vertex>> = (0..200u32)
            .map(|base| (0..64).map(|i| base + 3 * i).collect())
            .collect();
        let (data, _) = encode_all(&samples);
        let plain_bytes = 4 * 64 * samples.len();
        assert!(
            data.len() * 2 < plain_bytes,
            "compressed {} not ≪ plain {plain_bytes}",
            data.len()
        );
    }

    /// What the blocks lie about is `prop_snapshot`'s hostile-payload test.
    #[test]
    fn adopted_blocks_decode_like_the_lists_they_encode() {
        let samples: Vec<Vec<Vertex>> = (0..300u32)
            .map(|i| (0..i % 7).map(|j| i * 3 + j * (i % 5 + 1)).collect())
            .collect();
        let (data, blocks) = encode_all(&samples);
        let offsets: Vec<usize> = std::iter::once(0)
            .chain(blocks.iter().map(|&(end, _)| end))
            .collect();
        let counts: Vec<u32> = blocks.iter().map(|&(_, count)| count).collect();
        let lists = decode_blocks(&offsets, &counts, &data).unwrap();
        assert_eq!(lists, samples.into_iter().collect());
        assert_eq!(decode_blocks(&[0], &[], &[]).unwrap().len(), 0);
    }
}
