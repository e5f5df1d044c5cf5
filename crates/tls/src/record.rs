//! TLS record framing.
//!
//! The eavesdropper in the paper never breaks encryption; everything it
//! learns comes from the record layer's *plaintext* metadata: the 5-byte
//! record header exposing a content type and a length. The paper's monitor
//! literally filters on `ssl.record.content_type == 23` (§IV-D), i.e.
//! application-data records. This module defines that framing.

use std::fmt;

/// Length of the plaintext record header on the wire.
pub const HEADER_LEN: usize = 5;

/// Maximum plaintext fragment length per record (RFC 5246 §6.2.1).
pub const MAX_PLAINTEXT: usize = 16_384;

/// Per-record ciphertext expansion for the modeled AEAD
/// (TLS 1.2 AES-128-GCM: 8-byte explicit nonce + 16-byte tag).
pub const AEAD_OVERHEAD: usize = 24;

/// Maximum ciphertext fragment length per record.
pub const MAX_CIPHERTEXT: usize = MAX_PLAINTEXT + AEAD_OVERHEAD;

/// The TLS 1.2 wire version bytes (0x03, 0x03).
pub const VERSION: (u8, u8) = (3, 3);

/// TLS record content types (RFC 5246 §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContentType {
    /// `change_cipher_spec` (20).
    ChangeCipherSpec,
    /// `alert` (21).
    Alert,
    /// `handshake` (22).
    Handshake,
    /// `application_data` (23) — the paper's filter target.
    ApplicationData,
}

impl ContentType {
    /// The wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(byte: u8) -> Option<ContentType> {
        match byte {
            20 => Some(ContentType::ChangeCipherSpec),
            21 => Some(ContentType::Alert),
            22 => Some(ContentType::Handshake),
            23 => Some(ContentType::ApplicationData),
            _ => None,
        }
    }
}

impl fmt::Display for ContentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ContentType::ChangeCipherSpec => "change_cipher_spec",
            ContentType::Alert => "alert",
            ContentType::Handshake => "handshake",
            ContentType::ApplicationData => "application_data",
        };
        write!(f, "{name}({})", self.as_u8())
    }
}

/// A parsed record header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordHeader {
    /// The record's content type.
    pub content_type: ContentType,
    /// Length of the (encrypted) fragment that follows the header.
    pub fragment_len: u16,
}

impl RecordHeader {
    /// Encodes the header into its 5 wire bytes.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let len = self.fragment_len.to_be_bytes();
        [
            self.content_type.as_u8(),
            VERSION.0,
            VERSION.1,
            len[0],
            len[1],
        ]
    }

    /// Decodes a header from the first [`HEADER_LEN`] bytes of `buf`.
    ///
    /// Returns `None` if `buf` is too short, the content type is unknown,
    /// or the length exceeds [`MAX_CIPHERTEXT`].
    pub fn decode(buf: &[u8]) -> Option<RecordHeader> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let content_type = ContentType::from_u8(buf[0])?;
        let fragment_len = u16::from_be_bytes([buf[3], buf[4]]);
        if fragment_len as usize > MAX_CIPHERTEXT {
            return None;
        }
        Some(RecordHeader {
            content_type,
            fragment_len,
        })
    }

    /// Total wire size of this record (header + fragment).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.fragment_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_type_roundtrip() {
        for ct in [
            ContentType::ChangeCipherSpec,
            ContentType::Alert,
            ContentType::Handshake,
            ContentType::ApplicationData,
        ] {
            assert_eq!(ContentType::from_u8(ct.as_u8()), Some(ct));
        }
        assert_eq!(ContentType::from_u8(0), None);
        assert_eq!(ContentType::from_u8(24), None);
    }

    #[test]
    fn application_data_is_23() {
        // The paper's tshark filter: ssl.record.content_type == 23.
        assert_eq!(ContentType::ApplicationData.as_u8(), 23);
    }

    #[test]
    fn header_roundtrip() {
        let hdr = RecordHeader {
            content_type: ContentType::ApplicationData,
            fragment_len: 1234,
        };
        let bytes = hdr.encode();
        assert_eq!(bytes[0], 23);
        assert_eq!(bytes[1], 3);
        assert_eq!(bytes[2], 3);
        assert_eq!(RecordHeader::decode(&bytes), Some(hdr));
        assert_eq!(hdr.wire_len(), HEADER_LEN + 1234);
    }

    #[test]
    fn decode_rejects_short_and_bogus() {
        assert_eq!(RecordHeader::decode(&[23, 3]), None);
        assert_eq!(RecordHeader::decode(&[99, 3, 3, 0, 1, 0]), None);
        // Length beyond MAX_CIPHERTEXT.
        let mut bytes = RecordHeader {
            content_type: ContentType::Handshake,
            fragment_len: 100,
        }
        .encode();
        let too_big = (MAX_CIPHERTEXT as u16) + 1;
        bytes[3..5].copy_from_slice(&too_big.to_be_bytes());
        assert_eq!(RecordHeader::decode(&bytes), None);
    }

    #[test]
    fn limits_are_consistent() {
        assert_eq!(MAX_CIPHERTEXT, MAX_PLAINTEXT + AEAD_OVERHEAD);
        assert!(MAX_CIPHERTEXT <= u16::MAX as usize);
    }
}
