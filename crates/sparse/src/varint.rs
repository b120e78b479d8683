//! Variable-length integer (LEB128) and delta codecs for corpus chunks.
//!
//! §6.1.3 of the paper compresses the data that crosses the PCIe bus under
//! the streamed schedule (`WorkSchedule2`): besides the 16-bit narrowing
//! (charged as bytes by the cost models' `compress_16bit` setting), the
//! token stream itself is highly compressible once
//! it is laid out word-major — the word ids form a non-decreasing sequence
//! whose deltas are almost always zero, and CSR row pointers are strictly
//! increasing.  This module provides the byte-oriented codecs used to model
//! (and test) that compression:
//!
//! * [`encode_u32`] / [`decode_u32`] — unsigned LEB128 for a single value;
//! * [`encode_slice`] / [`decode_slice`] — LEB128 over a slice;
//! * [`encode_deltas`] / [`decode_deltas`] — delta + LEB128 over a
//!   non-decreasing sequence (word-major word ids, CSR `row_ptr`);
//! * [`encoded_len`] / [`delta_encoded_len`] — size-only accounting used by
//!   the transfer cost model without materialising the byte stream.

/// Maximum number of bytes a LEB128-encoded `u32` can occupy.
pub const MAX_VARINT_BYTES: usize = 5;

/// Error returned when decoding malformed varint data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended in the middle of a value.
    Truncated,
    /// A value did not terminate within [`MAX_VARINT_BYTES`] bytes.
    Overlong,
    /// A delta-decoded sequence would overflow `u32`.
    Overflow,
}

impl std::fmt::Display for VarintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VarintError::Truncated => write!(f, "varint input ended mid-value"),
            VarintError::Overlong => write!(f, "varint longer than 5 bytes"),
            VarintError::Overflow => write!(f, "delta sequence overflows u32"),
        }
    }
}

impl std::error::Error for VarintError {}

/// Append the LEB128 encoding of `value` to `out`.
pub fn encode_u32(mut value: u32, out: &mut Vec<u8>) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 value from the front of `input`.
///
/// Returns the value and the number of bytes consumed.
pub fn decode_u32(input: &[u8]) -> Result<(u32, usize), VarintError> {
    let mut value: u32 = 0;
    for (i, &byte) in input.iter().enumerate() {
        if i >= MAX_VARINT_BYTES {
            return Err(VarintError::Overlong);
        }
        let payload = (byte & 0x7f) as u32;
        // The fifth byte may only carry the top 4 bits of a u32.
        if i == MAX_VARINT_BYTES - 1 && payload > 0x0f {
            return Err(VarintError::Overlong);
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
    }
    Err(VarintError::Truncated)
}

/// Number of bytes [`encode_u32`] produces for `value`.
pub fn encoded_len_u32(value: u32) -> usize {
    match value {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// LEB128-encode every element of `values`.
pub fn encode_slice(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    for &v in values {
        encode_u32(v, &mut out);
    }
    out
}

/// Decode exactly `count` LEB128 values from `input`.
///
/// Trailing bytes after the last value are an error ([`VarintError::Truncated`]
/// is returned for missing data; extra data is reported as `Overlong`).
pub fn decode_slice(input: &[u8], count: usize) -> Result<Vec<u32>, VarintError> {
    let mut out = Vec::with_capacity(count);
    let mut offset = 0;
    for _ in 0..count {
        let (value, used) = decode_u32(&input[offset..])?;
        out.push(value);
        offset += used;
    }
    if offset != input.len() {
        return Err(VarintError::Overlong);
    }
    Ok(out)
}

/// Total encoded size of `values` without materialising the bytes.
pub fn encoded_len(values: &[u32]) -> usize {
    values.iter().map(|&v| encoded_len_u32(v)).sum()
}

/// Delta + LEB128 encode a non-decreasing sequence.
///
/// The first element is stored verbatim; every later element is stored as the
/// difference to its predecessor.  Word-major word ids and CSR row pointers
/// are non-decreasing, so most deltas are 0 or 1 and fit in one byte.
///
/// # Panics
/// Panics if the sequence is not non-decreasing (that would corrupt the
/// stream silently otherwise).
pub fn encode_deltas(values: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    let mut prev = 0u32;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            encode_u32(v, &mut out);
        } else {
            assert!(
                v >= prev,
                "delta encoding requires a non-decreasing sequence"
            );
            encode_u32(v - prev, &mut out);
        }
        prev = v;
    }
    out
}

/// Decode `count` values previously produced by [`encode_deltas`].
pub fn decode_deltas(input: &[u8], count: usize) -> Result<Vec<u32>, VarintError> {
    let deltas = decode_slice(input, count)?;
    let mut out = Vec::with_capacity(count);
    let mut prev = 0u32;
    for (i, &d) in deltas.iter().enumerate() {
        let v = if i == 0 {
            d
        } else {
            prev.checked_add(d).ok_or(VarintError::Overflow)?
        };
        out.push(v);
        prev = v;
    }
    Ok(out)
}

/// Encoded size of [`encode_deltas`] without materialising the bytes.
///
/// # Panics
/// Panics if the sequence is not non-decreasing.
pub fn delta_encoded_len(values: &[u32]) -> usize {
    let mut total = 0;
    let mut prev = 0u32;
    for (i, &v) in values.iter().enumerate() {
        if i == 0 {
            total += encoded_len_u32(v);
        } else {
            assert!(
                v >= prev,
                "delta encoding requires a non-decreasing sequence"
            );
            total += encoded_len_u32(v - prev);
        }
        prev = v;
    }
    total
}

/// Compression summary of one encoded stream, for transfer-model reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecStats {
    /// Bytes of the uncompressed 32-bit representation.
    pub raw_bytes: u64,
    /// Bytes after encoding.
    pub encoded_bytes: u64,
}

impl CodecStats {
    /// `encoded / raw`; 1.0 when the input is empty.
    pub fn ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            1.0
        } else {
            self.encoded_bytes as f64 / self.raw_bytes as f64
        }
    }
}

/// Size accounting for delta-encoding a non-decreasing sequence.
pub fn delta_stats(values: &[u32]) -> CodecStats {
    CodecStats {
        raw_bytes: (values.len() * 4) as u64,
        encoded_bytes: delta_encoded_len(values) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_value_round_trip_at_width_boundaries() {
        for &v in &[
            0u32,
            1,
            127,
            128,
            16_383,
            16_384,
            2_097_151,
            2_097_152,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            encode_u32(v, &mut buf);
            assert_eq!(buf.len(), encoded_len_u32(v));
            let (decoded, used) = decode_u32(&buf).unwrap();
            assert_eq!(decoded, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn slice_round_trip() {
        let values = vec![0u32, 300, 7, u32::MAX, 1, 128];
        let bytes = encode_slice(&values);
        assert_eq!(bytes.len(), encoded_len(&values));
        assert_eq!(decode_slice(&bytes, values.len()).unwrap(), values);
    }

    #[test]
    fn truncated_and_overlong_inputs_are_rejected() {
        assert_eq!(decode_u32(&[]), Err(VarintError::Truncated));
        assert_eq!(decode_u32(&[0x80, 0x80]), Err(VarintError::Truncated));
        assert_eq!(
            decode_u32(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]),
            Err(VarintError::Overlong)
        );
        // A fifth byte carrying more than 4 payload bits does not fit in u32.
        assert_eq!(
            decode_u32(&[0xff, 0xff, 0xff, 0xff, 0x7f]),
            Err(VarintError::Overlong)
        );
        // Extra trailing bytes after the requested count.
        let bytes = encode_slice(&[1, 2, 3]);
        assert_eq!(decode_slice(&bytes, 2), Err(VarintError::Overlong));
    }

    #[test]
    fn word_major_word_ids_compress_well() {
        // A word-major chunk: long runs of the same word id.
        let mut ids = Vec::new();
        for w in 0..200u32 {
            for _ in 0..50 {
                ids.push(w);
            }
        }
        let stats = delta_stats(&ids);
        assert_eq!(stats.raw_bytes, ids.len() as u64 * 4);
        // Almost every delta is zero → close to 1 byte/token.
        assert!(stats.ratio() < 0.3, "ratio {}", stats.ratio());
        let bytes = encode_deltas(&ids);
        assert_eq!(bytes.len() as u64, stats.encoded_bytes);
        assert_eq!(decode_deltas(&bytes, ids.len()).unwrap(), ids);
    }

    #[test]
    fn delta_round_trip_handles_empty_and_single() {
        assert!(encode_deltas(&[]).is_empty());
        assert_eq!(decode_deltas(&[], 0).unwrap(), Vec::<u32>::new());
        let bytes = encode_deltas(&[42]);
        assert_eq!(decode_deltas(&bytes, 1).unwrap(), vec![42]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_sequences_are_rejected() {
        let _ = encode_deltas(&[5, 3]);
    }

    #[test]
    fn empty_stats_ratio_is_one() {
        assert_eq!(delta_stats(&[]).ratio(), 1.0);
    }
}
