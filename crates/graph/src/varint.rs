//! LEB128 varints: the code of the graph's in-rows and of the inverted
//! index's rows in `ripples-diffusion`.
//!
//! A `u32` takes 1 to 5 bytes, seven bits a byte, low bits first; every
//! byte but the last has its high bit set. A sorted id list is coded as
//! gaps, so its ids cost about log₁₂₈ of the gap each.

/// Reads the varint at `*pos` and moves `*pos` past it. Trusts its input:
/// a varint that runs off the end of `data` panics, and one past `u32`
/// drops its high bits (or, in a debug build, panics), so bytes that were
/// not written by [`write_varint`] are checked before they are read.
#[inline]
#[must_use]
pub fn read_varint(data: &[u8], pos: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0u32;
    loop {
        let byte = data[*pos];
        *pos += 1;
        x |= u32::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Bytes [`write_varint`] spends on `x`: 1 to 5.
#[inline]
#[must_use]
pub fn varint_len(x: u32) -> u32 {
    (32 - (x | 1).leading_zeros()).div_ceil(7)
}

/// Writes `x` as a varint at the front of a buffer sized beforehand;
/// returns the bytes written.
#[inline]
pub fn write_varint(buf: &mut [u8], mut x: u32) -> u32 {
    let mut at = 0;
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        buf[at] = if x == 0 { byte } else { byte | 0x80 };
        at += 1;
        if x == 0 {
            return at as u32;
        }
    }
}

/// Appends `x` as a varint.
#[inline]
pub fn push_varint(buf: &mut Vec<u8>, mut x: u32) {
    while x >= 0x80 {
        buf.push(x as u8 | 0x80);
        x >>= 7;
    }
    buf.push(x as u8);
}

/// `to − from` on the circle of `u32`s, folded so that small distances
/// either way get small codes: 0, −1, 1, −2, … become 0, 1, 2, 3, ….
/// [`unzigzag`] undoes it for every pair of ids.
#[inline]
#[must_use]
pub fn zigzag(from: u32, to: u32) -> u32 {
    let d = to.wrapping_sub(from) as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

/// The `to` that [`zigzag`]`(from, to)` coded as `x`.
#[inline]
#[must_use]
pub fn unzigzag(from: u32, x: u32) -> u32 {
    let d = ((x >> 1) as i32) ^ -((x & 1) as i32);
    from.wrapping_add(d as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip_at_their_lengths() {
        let values = [0u32, 1, 127, 128, 300, 16383, 16384, 1 << 28, u32::MAX];
        let mut data = Vec::new();
        for &v in &values {
            push_varint(&mut data, v);
        }
        let total: u32 = values.iter().map(|&v| varint_len(v)).sum();
        assert_eq!(data.len(), total as usize);
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&data, &mut pos), v);
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn zigzag_round_trips_across_the_whole_id_space() {
        let ids = [0u32, 1, 2, 1000, 1 << 31, u32::MAX - 1, u32::MAX];
        for &from in &ids {
            for &to in &ids {
                assert_eq!(unzigzag(from, zigzag(from, to)), to, "{from} → {to}");
            }
        }
        assert_eq!(zigzag(10, 10), 0);
        assert_eq!(zigzag(10, 9), 1);
        assert_eq!(zigzag(10, 11), 2);
        assert_eq!(zigzag(0, u32::MAX), 1, "one step back across zero");
    }
}
