//! HPACK header compression (RFC 7541).
//!
//! Implements prefix-coded integers, plain string literals, indexed fields
//! against the combined static+dynamic table, and literals with/without
//! incremental indexing. String literals are never Huffman-coded: the
//! encoder writes every literal with the H bit clear, and the decoder
//! answers an H-bit literal with [`HpackError::HuffmanUnsupported`]. The
//! monitor's GET threshold is calibrated to plain-literal block sizes.
//!
//! HPACK matters to the reproduction for a subtle reason: because request
//! header blocks compress to a few dozen bytes, every GET request fits in
//! one TCP segment — which is what lets the paper's gateway count GETs by
//! watching single `application_data` records in the client→server
//! direction (§V "Adversary Setup").

mod table;

pub use table::{DynamicTable, HeaderField, IndexTable, STATIC_TABLE};

/// Errors from decoding a header block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpackError {
    /// The block ended mid-field.
    Truncated,
    /// An index pointed outside both tables.
    InvalidIndex,
    /// An integer exceeded implementation limits.
    IntegerOverflow,
    /// A string literal was not valid UTF-8 (the model keeps headers as
    /// strings; real HPACK allows arbitrary octets).
    InvalidString,
    /// A string literal had the H bit set. This stack sends and accepts
    /// plain literals only, so a Huffman-coded literal is a decoding
    /// error.
    HuffmanUnsupported,
    /// A dynamic-table size update exceeded the decoder's capacity, the
    /// `SETTINGS_HEADER_TABLE_SIZE` it advertised (RFC 7541 §6.3).
    TableSizeOverLimit,
}

impl std::fmt::Display for HpackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            HpackError::Truncated => "header block truncated",
            HpackError::InvalidIndex => "invalid table index",
            HpackError::IntegerOverflow => "integer too large",
            HpackError::InvalidString => "string literal not valid utf-8",
            HpackError::HuffmanUnsupported => "huffman-coded literal not supported",
            HpackError::TableSizeOverLimit => "table size update above the advertised limit",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for HpackError {}

/// Encodes an integer with an `n`-bit prefix (RFC 7541 §5.1). The prefix
/// byte's high bits are supplied in `first_byte_flags`.
pub fn encode_integer(out: &mut Vec<u8>, first_byte_flags: u8, prefix_bits: u8, value: usize) {
    debug_assert!((1..=8).contains(&prefix_bits));
    let max_prefix = (1usize << prefix_bits) - 1;
    if value < max_prefix {
        out.push(first_byte_flags | value as u8);
        return;
    }
    out.push(first_byte_flags | max_prefix as u8);
    let mut rest = value - max_prefix;
    while rest >= 128 {
        out.push((rest % 128 + 128) as u8);
        rest /= 128;
    }
    out.push(rest as u8);
}

/// Decodes an integer with an `n`-bit prefix. Returns the value and the
/// number of bytes consumed.
///
/// # Errors
///
/// Fails on truncation or values above `2^32`.
pub fn decode_integer(buf: &[u8], prefix_bits: u8) -> Result<(usize, usize), HpackError> {
    debug_assert!((1..=8).contains(&prefix_bits));
    let max_prefix = (1usize << prefix_bits) - 1;
    let first = *buf.first().ok_or(HpackError::Truncated)?;
    let mut value = (first as usize) & max_prefix;
    if value < max_prefix {
        return Ok((value, 1));
    }
    let mut shift = 0u32;
    for (i, &b) in buf[1..].iter().enumerate() {
        value = value
            .checked_add(((b & 0x7f) as usize) << shift)
            .ok_or(HpackError::IntegerOverflow)?;
        if value > u32::MAX as usize {
            return Err(HpackError::IntegerOverflow);
        }
        if b & 0x80 == 0 {
            return Ok((value, i + 2));
        }
        shift += 7;
        if shift > 28 {
            return Err(HpackError::IntegerOverflow);
        }
    }
    Err(HpackError::Truncated)
}

fn encode_string(out: &mut Vec<u8>, s: &str) {
    // H bit = 0 (no Huffman), 7-bit length prefix.
    encode_integer(out, 0x00, 7, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn decode_string(buf: &[u8]) -> Result<(String, usize), HpackError> {
    let first = *buf.first().ok_or(HpackError::Truncated)?;
    if first & 0x80 != 0 {
        return Err(HpackError::HuffmanUnsupported);
    }
    let (len, consumed) = decode_integer(buf, 7)?;
    let end = consumed + len;
    let bytes = buf.get(consumed..end).ok_or(HpackError::Truncated)?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| HpackError::InvalidString)?
        .to_owned();
    Ok((s, end))
}

/// HPACK encoder: one per connection direction, stateful via its dynamic
/// table.
#[derive(Debug, Clone)]
pub struct Encoder {
    table: IndexTable,
    /// Fields whose values should never enter the dynamic table (e.g.
    /// `authorization`); encoded as never-indexed literals.
    sensitive: Vec<String>,
}

impl Encoder {
    /// Creates an encoder with the default 4096-byte dynamic table.
    pub fn new() -> Self {
        Encoder::with_table_size(4096)
    }

    /// Creates an encoder with a specific dynamic-table capacity.
    pub fn with_table_size(max: usize) -> Self {
        Encoder {
            table: IndexTable::new(max),
            sensitive: vec!["authorization".to_owned(), "set-cookie".to_owned()],
        }
    }

    /// Encodes a header list into a block fragment.
    pub fn encode(&mut self, fields: &[HeaderField]) -> Vec<u8> {
        let mut out = Vec::new();
        for field in fields {
            self.encode_field(&mut out, field);
        }
        out
    }

    fn encode_field(&mut self, out: &mut Vec<u8>, field: &HeaderField) {
        if self.sensitive.iter().any(|s| s == &field.name) {
            // Never-indexed literal (0001xxxx).
            match self.table.find_name(&field.name) {
                Some(idx) => encode_integer(out, 0x10, 4, idx),
                None => {
                    encode_integer(out, 0x10, 4, 0);
                    encode_string(out, &field.name);
                }
            }
            encode_string(out, &field.value);
            return;
        }
        if let Some(idx) = self.table.find(field) {
            // Indexed field (1xxxxxxx).
            encode_integer(out, 0x80, 7, idx);
            return;
        }
        // Literal with incremental indexing (01xxxxxx).
        match self.table.find_name(&field.name) {
            Some(idx) => encode_integer(out, 0x40, 6, idx),
            None => {
                encode_integer(out, 0x40, 6, 0);
                encode_string(out, &field.name);
            }
        }
        encode_string(out, &field.value);
        self.table.insert(field.clone());
    }

    /// Dynamic-table entry count (diagnostics).
    pub fn dynamic_len(&self) -> usize {
        self.table.dynamic_len()
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// HPACK decoder: the peer of an [`Encoder`].
#[derive(Debug, Clone)]
pub struct Decoder {
    table: IndexTable,
    /// The capacity this decoder was built with, the
    /// `SETTINGS_HEADER_TABLE_SIZE` its endpoint advertises: no size
    /// update may raise the table above it.
    limit: usize,
    /// Largest dynamic-table-size update declared by any decoded block
    /// (`None` until a size-update instruction is seen). The conformance
    /// oracle uses this to verify the encoder never declares a table
    /// larger than the decoder's advertised `SETTINGS_HEADER_TABLE_SIZE`.
    max_size_update: Option<usize>,
}

impl Decoder {
    /// Creates a decoder with the default 4096-byte dynamic table.
    pub fn new() -> Self {
        Decoder::with_table_size(4096)
    }

    /// Creates a decoder with a specific dynamic-table capacity, which is
    /// also the largest size update it accepts.
    pub fn with_table_size(max: usize) -> Self {
        Decoder {
            table: IndexTable::new(max),
            limit: max,
            max_size_update: None,
        }
    }

    /// Current dynamic-table occupancy in HPACK size units.
    pub fn dynamic_size(&self) -> usize {
        self.table.dynamic_size()
    }

    /// Largest dynamic-table-size update seen across all decoded blocks.
    pub fn max_size_update(&self) -> Option<usize> {
        self.max_size_update
    }

    /// Decodes a complete header block fragment.
    ///
    /// # Errors
    ///
    /// Fails on malformed input; HPACK state is then ruined and the
    /// connection must be torn down with `COMPRESSION_ERROR` (RFC 7541 §2.2).
    pub fn decode(&mut self, mut buf: &[u8]) -> Result<Vec<HeaderField>, HpackError> {
        let mut out = Vec::new();
        while !buf.is_empty() {
            let first = buf[0];
            if first & 0x80 != 0 {
                // Indexed field.
                let (idx, used) = decode_integer(buf, 7)?;
                buf = &buf[used..];
                let field = self.table.get(idx).ok_or(HpackError::InvalidIndex)?;
                out.push(field);
            } else if first & 0xC0 == 0x40 {
                // Literal with incremental indexing.
                let (field, used) = self.decode_literal(buf, 6)?;
                buf = &buf[used..];
                self.table.insert(field.clone());
                out.push(field);
            } else if first & 0xE0 == 0x20 {
                // Dynamic table size update.
                let (size, used) = decode_integer(buf, 5)?;
                if size > self.limit {
                    return Err(HpackError::TableSizeOverLimit);
                }
                buf = &buf[used..];
                self.max_size_update = Some(self.max_size_update.map_or(size, |m| m.max(size)));
                self.table.set_max_dynamic_size(size);
            } else {
                // Literal without indexing (0000) or never indexed (0001).
                let (field, used) = self.decode_literal(buf, 4)?;
                buf = &buf[used..];
                out.push(field);
            }
        }
        Ok(out)
    }

    fn decode_literal(
        &mut self,
        buf: &[u8],
        prefix_bits: u8,
    ) -> Result<(HeaderField, usize), HpackError> {
        let (name_idx, mut used) = decode_integer(buf, prefix_bits)?;
        let name = if name_idx == 0 {
            let (name, n) = decode_string(&buf[used..])?;
            used += n;
            name
        } else {
            self.table
                .get(name_idx)
                .ok_or(HpackError::InvalidIndex)?
                .name
        };
        let (value, n) = decode_string(&buf[used..])?;
        used += n;
        Ok((HeaderField::new(name, value), used))
    }
}

impl Default for Decoder {
    fn default() -> Self {
        Decoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_headers() -> Vec<HeaderField> {
        vec![
            HeaderField::new(":method", "GET"),
            HeaderField::new(":scheme", "https"),
            HeaderField::new(":authority", "www.isidewith.com"),
            HeaderField::new(":path", "/polls/presidential"),
            HeaderField::new("user-agent", "Firefox/74.0"),
            HeaderField::new("accept", "text/html"),
        ]
    }

    #[test]
    fn integer_small_values() {
        let mut out = Vec::new();
        encode_integer(&mut out, 0x80, 7, 10);
        assert_eq!(out, vec![0x8A]);
        assert_eq!(decode_integer(&out, 7).unwrap(), (10, 1));
    }

    #[test]
    fn integer_rfc_example_1337() {
        // RFC 7541 C.1.2: 1337 with a 5-bit prefix.
        let mut out = Vec::new();
        encode_integer(&mut out, 0x00, 5, 1337);
        assert_eq!(out, vec![0x1F, 0x9A, 0x0A]);
        assert_eq!(decode_integer(&out, 5).unwrap(), (1337, 3));
    }

    #[test]
    fn integer_boundary_at_prefix_max() {
        for prefix in 1..=8u8 {
            let max = (1usize << prefix) - 1;
            for value in [0, 1, max - 1, max, max + 1, max + 127, 100_000] {
                let mut out = Vec::new();
                encode_integer(&mut out, 0, prefix, value);
                let (got, used) = decode_integer(&out, prefix).unwrap();
                assert_eq!(got, value, "prefix={prefix}");
                assert_eq!(used, out.len());
            }
        }
    }

    #[test]
    fn integer_truncated() {
        assert_eq!(decode_integer(&[], 7), Err(HpackError::Truncated));
        // Prefix saturated, continuation missing.
        assert_eq!(decode_integer(&[0x7F], 7), Err(HpackError::Truncated));
        assert_eq!(decode_integer(&[0x7F, 0x80], 7), Err(HpackError::Truncated));
    }

    #[test]
    fn integer_overflow_rejected() {
        let buf = [0x7F, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(decode_integer(&buf, 7), Err(HpackError::IntegerOverflow));
    }

    #[test]
    fn roundtrip_request_headers() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let block = enc.encode(&req_headers());
        let got = dec.decode(&block).unwrap();
        assert_eq!(got, req_headers());
    }

    #[test]
    fn second_request_is_smaller() {
        // Incremental indexing: repeated custom headers become 1-byte
        // indexed fields.
        let mut enc = Encoder::new();
        let first = enc.encode(&req_headers());
        let second = enc.encode(&req_headers());
        assert!(
            second.len() < first.len() / 2,
            "first={} second={}",
            first.len(),
            second.len()
        );
    }

    #[test]
    fn stateful_decode_across_blocks() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let b1 = enc.encode(&req_headers());
        let b2 = enc.encode(&req_headers());
        assert_eq!(dec.decode(&b1).unwrap(), req_headers());
        assert_eq!(dec.decode(&b2).unwrap(), req_headers());
    }

    #[test]
    fn sensitive_fields_never_indexed() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let fields = vec![HeaderField::new("authorization", "Bearer tok")];
        let b1 = enc.encode(&fields);
        let b2 = enc.encode(&fields);
        // No indexing: the second block is not shorter.
        assert_eq!(b1.len(), b2.len());
        assert_eq!(enc.dynamic_len(), 0);
        assert_eq!(dec.decode(&b1).unwrap(), fields);
    }

    #[test]
    fn static_only_fields_are_one_byte() {
        let mut enc = Encoder::new();
        let block = enc.encode(&[HeaderField::new(":method", "GET")]);
        assert_eq!(block, vec![0x82]); // RFC 7541 C.4.1 first byte
    }

    #[test]
    fn decoder_rejects_bad_index() {
        let mut dec = Decoder::new();
        let mut block = Vec::new();
        encode_integer(&mut block, 0x80, 7, 200); // beyond both tables
        assert_eq!(dec.decode(&block), Err(HpackError::InvalidIndex));
    }

    #[test]
    fn table_size_update_applies() {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        let block = enc.encode(&[HeaderField::new("x-a", "1")]);
        dec.decode(&block).unwrap();
        // Size update to zero evicts everything.
        let mut upd = Vec::new();
        encode_integer(&mut upd, 0x20, 5, 0);
        dec.decode(&upd).unwrap();
        // Referencing the (now evicted) entry fails.
        let mut idx_ref = Vec::new();
        encode_integer(&mut idx_ref, 0x80, 7, 62);
        assert_eq!(dec.decode(&idx_ref), Err(HpackError::InvalidIndex));
    }

    #[test]
    fn size_update_is_bounded_by_the_table_capacity() {
        let update = |size| {
            let mut block = Vec::new();
            encode_integer(&mut block, 0x20, 5, size);
            block
        };
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&update(4_096)), Ok(vec![]));
        assert_eq!(
            dec.decode(&update(4_097)),
            Err(HpackError::TableSizeOverLimit)
        );
        assert_eq!(dec.max_size_update(), Some(4_096));
    }

    #[test]
    fn typical_get_request_compresses_small() {
        // The paper's monitor relies on GETs fitting in single segments.
        let mut enc = Encoder::new();
        enc.encode(&req_headers()); // warm the table
        let block = enc.encode(&[
            HeaderField::new(":method", "GET"),
            HeaderField::new(":scheme", "https"),
            HeaderField::new(":authority", "www.isidewith.com"),
            HeaderField::new(":path", "/images/party_3.png"),
            HeaderField::new("user-agent", "Firefox/74.0"),
            HeaderField::new("accept", "text/html"),
        ]);
        assert!(block.len() < 40, "block = {} bytes", block.len());
    }
}
