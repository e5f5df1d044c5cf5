//! The modeled record cipher.
//!
//! Real cryptography is out of scope (the paper's adversary never decrypts),
//! but the simulation must still guarantee that nothing downstream can cheat
//! by peeking into "ciphertext". We therefore scramble each fragment with a
//! keystream derived from a session key and the record sequence number
//! (four splitmix64-hashed generator words per record, each advanced by a
//! Weyl increment and whitened per block — **not** cryptographically
//! secure, purely an anti-cheating seal), and append [`AEAD_OVERHEAD`]
//! filler bytes so that ciphertext lengths match what a TLS 1.2 AES-GCM
//! eavesdropper would see.
//!
//! Seal and open sit on the simulator's per-record hot path, so both the
//! keystream and the tag consume input in 8-byte blocks, and neither has a
//! serial dependency from one block to the next: the expensive hash runs
//! once per record lane (the per-block step is an add and a shift-xor),
//! and the tag folds into four independent lanes, so the CPU can keep
//! several blocks in flight.
//!
//! Tampered or reordered records fail to open, which models AEAD integrity:
//! the simulated endpoints abort on corruption just as real TLS stacks do.

use crate::record::AEAD_OVERHEAD;

/// Seals and opens record fragments for one direction of a session.
///
/// Each direction of a TLS connection has its own keys and sequence numbers;
/// create one `RecordCipher` per direction from the same session key and
/// role-distinct labels.
///
/// # Examples
///
/// ```
/// use h2priv_tls::RecordCipher;
///
/// let mut seal = RecordCipher::new(0xC0FFEE, 1);
/// let mut open = RecordCipher::new(0xC0FFEE, 1);
/// let ct = seal.seal(b"hello");
/// assert_ne!(&ct[..5], b"hello"); // scrambled on the wire
/// assert_eq!(open.open(&ct).as_deref(), Some(&b"hello"[..]));
/// ```
#[derive(Debug, Clone)]
pub struct RecordCipher {
    key: u64,
    seq: u64,
}

const PHI: u64 = 0x9E3779B97F4A7C15;

/// Running tag accumulator standing in for the AEAD tag: wrong key, wrong
/// sequence number or flipped bits make verification fail. Folds plaintext
/// in 8-byte blocks across four independent multiply-add lanes (block `i`
/// feeds lane `i % 4`), so the serial FNV multiply chain that bounds a
/// single accumulator is split four ways and the CPU can overlap the
/// multiplies; the lanes are mixed together (and avalanched) only once,
/// in [`Tag16::finish`].
#[derive(Debug, Clone, Copy)]
struct Tag16 {
    acc: [u64; 4],
}

impl Tag16 {
    fn new(key: u64, seq: u64, plaintext_len: usize) -> Self {
        let base = key ^ seq.rotate_left(17) ^ plaintext_len as u64;
        Tag16 {
            acc: [
                base,
                base.wrapping_add(PHI),
                base.wrapping_add(PHI.wrapping_mul(2)),
                base.wrapping_add(PHI.wrapping_mul(3)),
            ],
        }
    }

    #[inline]
    fn fold(&mut self, lane: usize, block: u64) {
        self.acc[lane] = self.acc[lane]
            .wrapping_mul(0x100000001b3)
            .wrapping_add(block);
    }

    fn finish(self) -> u16 {
        // Mix the lanes, then a final avalanche so every input bit reaches
        // the 16 tag bits.
        let mut acc = 0u64;
        for lane in self.acc {
            acc = (acc ^ lane).wrapping_mul(0x100000001b3);
        }
        acc ^= acc >> 33;
        acc = acc.wrapping_mul(0xFF51AFD7ED558CCD);
        acc ^= acc >> 33;
        (acc ^ (acc >> 32)) as u16
    }
}

/// Hashes one of the record's four keystream *generator words* from the
/// per-record seed — splitmix64, run exactly four times per record. The
/// expensive hash happens once per lane; within the record each lane then
/// advances by a cheap Weyl increment per 32-byte quad (see
/// [`transform_from`]), so the per-byte keystream cost is an add and a
/// shift-xor instead of three multiplies.
#[inline]
fn generator_word(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_mul(PHI));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Per-quad Weyl step for the generator words: odd, so the walk visits
/// every 64-bit state, and carries ripple into the high bits quad after
/// quad.
const WEYL: u64 = PHI.wrapping_mul(4) | 1;

/// Output whitening of a generator word into eight keystream bytes — one
/// shift-xor so neighbouring Weyl states do not differ by a constant.
#[inline]
fn whiten(word: u64) -> u64 {
    word ^ (word >> 31)
}

/// One fused pass from `src` to `out`: XORs the keystream (8 bytes per
/// block), appends the result, and folds the **plaintext** side of the
/// transform into `tag`. `src` holds plaintext when sealing and ciphertext
/// when opening, so the plaintext block is the input block when `sealing`
/// and the post-XOR block otherwise. Each byte is read once from the
/// source and written once to the destination, and neither the keystream
/// nor the tag lanes carry a serial dependency from block to block.
fn transform_from(seed: u64, tag: &mut Tag16, src: &[u8], out: &mut Vec<u8>, sealing: bool) {
    out.reserve(src.len());
    // Four generator words, splitmix-hashed once per record. Block `i`
    // draws its keystream from lane `i % 4`, whose word has advanced by
    // `WEYL * (i / 4)`.
    let mut w = [
        generator_word(seed, 0),
        generator_word(seed, 1),
        generator_word(seed, 2),
        generator_word(seed, 3),
    ];
    // Main loop: four blocks per iteration land on tag lanes `0..4` in
    // order, so the four whitenings and lane multiplies are independent
    // and pipeline. A quad is staged in one 32-byte stack row and appended
    // in a single extend, so `out` grows one cache line at a time.
    let mut quads = src.chunks_exact(32);
    for quad in &mut quads {
        let mut row = [0u8; 32];
        for (j, word) in quad.chunks_exact(8).enumerate() {
            let block = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            let xored = block ^ whiten(w[j]);
            w[j] = w[j].wrapping_add(WEYL);
            tag.fold(j, if sealing { block } else { xored });
            row[j * 8..j * 8 + 8].copy_from_slice(&xored.to_le_bytes());
        }
        out.extend_from_slice(&row);
    }
    // Tail: fewer than four blocks remain, continuing on lanes `0..` of
    // the final (partial) quad row.
    let mut lane = 0usize;
    let mut chunks = quads.remainder().chunks_exact(8);
    for chunk in &mut chunks {
        let block = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let xored = block ^ whiten(w[lane]);
        tag.fold(lane, if sealing { block } else { xored });
        out.extend_from_slice(&xored.to_le_bytes());
        lane += 1;
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let ks = whiten(w[lane]);
        let mut block = [0u8; 8];
        block[..rest.len()].copy_from_slice(rest);
        let plain = u64::from_le_bytes(block);
        let xored = plain ^ (ks & !(u64::MAX << (8 * rest.len())));
        tag.fold(lane, if sealing { plain } else { xored });
        out.extend_from_slice(&xored.to_le_bytes()[..rest.len()]);
    }
}

/// The *scatter-gather* variant of [`transform_from`]: the plaintext is
/// the logical concatenation of `parts`, read in order. Output bytes, tag,
/// and keystream schedule are byte-identical to [`transform_from`] over a
/// pre-concatenated buffer — which is the point: the caller skips building
/// that buffer (the HTTP/2 mux hands the record writer a frame header and
/// a shared body chunk as separate parts).
///
/// The keystream rule generalizes from the quad loop: block `i` draws from
/// lane `i % 4`, whose generator word has advanced by one Weyl step per
/// prior use. Within one part, blocks are read at whatever byte phase the
/// preceding parts left (unaligned `u64` reads are fine); only a block
/// that *straddles* a part boundary goes through an 8-byte staging buffer.
fn transform_parts(seed: u64, tag: &mut Tag16, parts: &[&[u8]], out: &mut Vec<u8>, sealing: bool) {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(total);
    let mut w = [
        generator_word(seed, 0),
        generator_word(seed, 1),
        generator_word(seed, 2),
        generator_word(seed, 3),
    ];
    let mut lane = 0usize;
    let mut stage = [0u8; 8];
    let mut staged = 0usize;
    let mut remaining = total;
    for part in parts {
        let mut part = *part;
        // Top up a block left straddling the previous part boundary.
        if staged > 0 {
            let take = (8 - staged).min(part.len());
            stage[staged..staged + take].copy_from_slice(&part[..take]);
            staged += take;
            part = &part[take..];
            if staged < 8 {
                continue; // part exhausted mid-block
            }
            let block = u64::from_le_bytes(stage);
            let xored = block ^ whiten(w[lane]);
            w[lane] = w[lane].wrapping_add(WEYL);
            tag.fold(lane, if sealing { block } else { xored });
            out.extend_from_slice(&xored.to_le_bytes());
            lane = (lane + 1) & 3;
            staged = 0;
            remaining -= 8;
        }
        // Whole blocks within this part, four to a row as in
        // [`transform_from`] so `out` grows one cache line at a time.
        let mut quads = part.chunks_exact(32);
        for quad in &mut quads {
            let mut row = [0u8; 32];
            for (j, word) in quad.chunks_exact(8).enumerate() {
                let block = u64::from_le_bytes(word.try_into().expect("8-byte word"));
                let l = (lane + j) & 3;
                let xored = block ^ whiten(w[l]);
                w[l] = w[l].wrapping_add(WEYL);
                tag.fold(l, if sealing { block } else { xored });
                row[j * 8..j * 8 + 8].copy_from_slice(&xored.to_le_bytes());
            }
            out.extend_from_slice(&row);
            remaining -= 32;
        }
        let mut chunks = quads.remainder().chunks_exact(8);
        for chunk in &mut chunks {
            let block = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let xored = block ^ whiten(w[lane]);
            w[lane] = w[lane].wrapping_add(WEYL);
            tag.fold(lane, if sealing { block } else { xored });
            out.extend_from_slice(&xored.to_le_bytes());
            lane = (lane + 1) & 3;
            remaining -= 8;
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            if rest.len() == remaining {
                // Final partial block of the whole message: masked
                // keystream, zero-extended plaintext fold, exactly as in
                // [`transform_from`].
                let ks = whiten(w[lane]);
                let mut block = [0u8; 8];
                block[..rest.len()].copy_from_slice(rest);
                let plain = u64::from_le_bytes(block);
                let xored = plain ^ (ks & !(u64::MAX << (8 * rest.len())));
                tag.fold(lane, if sealing { plain } else { xored });
                out.extend_from_slice(&xored.to_le_bytes()[..rest.len()]);
                remaining -= rest.len();
            } else {
                // More parts follow: stage for the boundary-straddling
                // block.
                stage[..rest.len()].copy_from_slice(rest);
                staged = rest.len();
            }
        }
    }
    debug_assert_eq!(staged.min(remaining), remaining, "all bytes consumed");
    if staged > 0 {
        // Trailing parts were all empty: flush the staged partial block.
        let ks = whiten(w[lane]);
        let mut block = [0u8; 8];
        block[..staged].copy_from_slice(&stage[..staged]);
        let plain = u64::from_le_bytes(block);
        let xored = plain ^ (ks & !(u64::MAX << (8 * staged)));
        tag.fold(lane, if sealing { plain } else { xored });
        out.extend_from_slice(&xored.to_le_bytes()[..staged]);
    }
}

impl RecordCipher {
    /// Creates a cipher for one direction. `key` is the shared session key;
    /// `label` distinguishes directions (conventionally 1 = client→server,
    /// 2 = server→client).
    pub fn new(key: u64, label: u64) -> Self {
        RecordCipher {
            key: key ^ label.wrapping_mul(0x9E3779B97F4A7C15),
            seq: 0,
        }
    }

    /// Records sealed (or opened) so far in this direction.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Seals one fragment, consuming the next sequence number.
    ///
    /// Output length is `plaintext.len() + AEAD_OVERHEAD`.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + AEAD_OVERHEAD);
        self.seal_into(plaintext, &mut out);
        out
    }

    /// Seals one fragment, appending the ciphertext to `out` — the
    /// allocation-free variant writers use to seal straight into a wire
    /// buffer instead of materializing each fragment separately.
    pub fn seal_into(&mut self, plaintext: &[u8], out: &mut Vec<u8>) {
        let seq = self.seq;
        self.seq += 1;
        out.reserve(plaintext.len() + AEAD_OVERHEAD);
        let start = out.len();
        // Explicit nonce (8 bytes): the sequence number, as in TLS 1.2 GCM.
        out.extend_from_slice(&seq.to_be_bytes());
        let seed = self.key ^ seq.wrapping_mul(PHI) | 1;
        let mut tag = Tag16::new(self.key, seq, plaintext.len());
        // Fused copy + keystream: the plaintext is read once and the sealed
        // bytes written once, instead of copy-then-scramble-in-place.
        transform_from(seed, &mut tag, plaintext, out, true);
        // Tag: 16 meaningful bits + 14 filler bytes to reach AEAD_OVERHEAD.
        out.extend_from_slice(&tag.finish().to_be_bytes());
        out.resize(start + plaintext.len() + AEAD_OVERHEAD, 0xA5);
    }

    /// Seals one fragment whose plaintext is the concatenation of `parts`,
    /// appending the ciphertext to `out` — byte-identical output to
    /// [`RecordCipher::seal_into`] over the concatenated bytes, without
    /// the caller ever materializing them. The batched host pump hands the
    /// frame header and the shared body chunk as separate parts, so a
    /// response body is read exactly once (by the keystream pass) on its
    /// way to the wire.
    pub fn seal_parts_into(&mut self, parts: &[&[u8]], out: &mut Vec<u8>) {
        let plaintext_len: usize = parts.iter().map(|p| p.len()).sum();
        let seq = self.seq;
        self.seq += 1;
        out.reserve(plaintext_len + AEAD_OVERHEAD);
        let start = out.len();
        out.extend_from_slice(&seq.to_be_bytes());
        let seed = self.key ^ seq.wrapping_mul(PHI) | 1;
        let mut tag = Tag16::new(self.key, seq, plaintext_len);
        transform_parts(seed, &mut tag, parts, out, true);
        out.extend_from_slice(&tag.finish().to_be_bytes());
        out.resize(start + plaintext_len + AEAD_OVERHEAD, 0xA5);
    }

    /// Opens one fragment, consuming the next sequence number.
    ///
    /// Returns `None` if the fragment is too short, the explicit nonce does
    /// not match the expected sequence number (replay/reorder), or the tag
    /// check fails (corruption).
    pub fn open(&mut self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.open_into(ciphertext, &mut out).then_some(out)
    }

    /// Opens one fragment, appending the plaintext to `out` — the sink
    /// variant readers use to decrypt straight into a stream buffer instead
    /// of materializing each fragment separately. On failure `out` is left
    /// exactly as it was and the sequence number is not consumed.
    pub fn open_into(&mut self, ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        if ciphertext.len() < AEAD_OVERHEAD {
            return false;
        }
        let seq = u64::from_be_bytes(ciphertext[..8].try_into().expect("8 bytes"));
        if seq != self.seq {
            return false;
        }
        let body_len = ciphertext.len() - AEAD_OVERHEAD;
        let body = &ciphertext[8..8 + body_len];
        let seed = self.key ^ seq.wrapping_mul(PHI) | 1;
        let start = out.len();
        let mut tag = Tag16::new(self.key, seq, body_len);
        // Fused copy + keystream, as in `seal_into`: ciphertext is read
        // once and plaintext written once.
        transform_from(seed, &mut tag, body, out, false);
        let wire_tag = u16::from_be_bytes(
            ciphertext[8 + body_len..8 + body_len + 2]
                .try_into()
                .expect("2 bytes"),
        );
        if wire_tag != tag.finish() {
            out.truncate(start);
            return false;
        }
        self.seq += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_many_records() {
        let mut seal = RecordCipher::new(42, 1);
        let mut open = RecordCipher::new(42, 1);
        for i in 0..50u32 {
            let msg = vec![i as u8; (i as usize * 37) % 1000 + 1];
            let ct = seal.seal(&msg);
            assert_eq!(ct.len(), msg.len() + AEAD_OVERHEAD);
            assert_eq!(open.open(&ct), Some(msg));
        }
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let mut seal = RecordCipher::new(42, 1);
        let msg = vec![0u8; 256];
        let ct = seal.seal(&msg);
        // The body (after the nonce) must not be all zeros.
        assert!(ct[8..8 + 256].iter().any(|&b| b != 0));
    }

    #[test]
    fn same_plaintext_different_records_differ() {
        let mut seal = RecordCipher::new(42, 1);
        let a = seal.seal(b"identical");
        let b = seal.seal(b"identical");
        assert_ne!(a, b);
    }

    #[test]
    fn directions_are_independent() {
        let mut c2s = RecordCipher::new(42, 1);
        let mut s2c_wrong = RecordCipher::new(42, 2);
        let ct = c2s.seal(b"request");
        assert_eq!(s2c_wrong.open(&ct), None);
    }

    #[test]
    fn wrong_key_fails() {
        let mut seal = RecordCipher::new(42, 1);
        let mut open = RecordCipher::new(43, 1);
        assert_eq!(open.open(&seal.seal(b"secret")), None);
    }

    #[test]
    fn corruption_fails() {
        let mut seal = RecordCipher::new(42, 1);
        let mut open = RecordCipher::new(42, 1);
        let mut ct = seal.seal(b"payload");
        ct[10] ^= 0x01;
        assert_eq!(open.open(&ct), None);
    }

    #[test]
    fn reorder_fails() {
        let mut seal = RecordCipher::new(42, 1);
        let mut open = RecordCipher::new(42, 1);
        let first = seal.seal(b"one");
        let second = seal.seal(b"two");
        // Delivering the second record first is a sequence mismatch.
        assert_eq!(open.open(&second), None);
        // The first still opens (sequence untouched by the failed open).
        assert_eq!(open.open(&first).as_deref(), Some(&b"one"[..]));
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let mut seal = RecordCipher::new(42, 1);
        let mut open = RecordCipher::new(42, 1);
        let ct = seal.seal(b"");
        assert_eq!(ct.len(), AEAD_OVERHEAD);
        assert_eq!(open.open(&ct).as_deref(), Some(&b""[..]));
    }

    #[test]
    fn gather_seal_matches_contiguous_seal() {
        // `seal_parts_into` over any split of the plaintext must be
        // byte-identical to `seal_into` over the concatenation — every
        // part-boundary phase vs. the 8-byte block grid and the 32-byte
        // quad grid, including empty parts and an all-parts-empty record,
        // at every tail shape: empty, sub-block, block, quad, and fragment
        // sizes.
        let msg: Vec<u8> = (0..16_384)
            .map(|i: usize| (i.wrapping_mul(37) % 241) as u8)
            .collect();
        for len in [
            0usize, 1, 7, 8, 9, 15, 31, 32, 33, 63, 64, 100, 1_000, 16_384,
        ] {
            let msg = &msg[..len];
            let mut splits: Vec<Vec<usize>> = vec![vec![len]];
            for a in [0usize, 1, 7, 8, 9, 15, 16, 17] {
                if a <= len {
                    splits.push(vec![a, len - a]);
                    for b in [0usize, 1, 8, 9, 13] {
                        if a + b <= len {
                            splits.push(vec![a, b, len - a - b]);
                        }
                    }
                }
            }
            let mut contiguous = Vec::new();
            RecordCipher::new(0x5EA1, 2).seal_into(msg, &mut contiguous);
            for split in splits {
                let mut parts: Vec<&[u8]> = Vec::new();
                let mut pos = 0;
                for n in &split {
                    parts.push(&msg[pos..pos + n]);
                    pos += n;
                }
                let mut gathered = Vec::new();
                RecordCipher::new(0x5EA1, 2).seal_parts_into(&parts, &mut gathered);
                assert_eq!(gathered, contiguous, "len {len} split {split:?}");
                let mut opened = Vec::new();
                assert!(
                    RecordCipher::new(0x5EA1, 2).open_into(&gathered, &mut opened),
                    "len {len} split {split:?}"
                );
                assert_eq!(opened, msg);
            }
        }
    }

    #[test]
    fn short_ciphertext_rejected() {
        let mut open = RecordCipher::new(42, 1);
        assert_eq!(open.open(&[0u8; 10]), None);
    }
}
