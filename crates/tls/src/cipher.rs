//! The modeled record cipher.
//!
//! Real cryptography is out of scope (the paper's adversary never decrypts),
//! but the simulation must still guarantee that nothing downstream can cheat
//! by peeking into "ciphertext". We therefore scramble each fragment with a
//! keystream derived from a session key and the record sequence number
//! (**not** cryptographically secure, purely an anti-cheating seal), and
//! wrap it in [`AEAD_OVERHEAD`] bytes so that ciphertext lengths match what
//! a TLS 1.2 AES-GCM eavesdropper would see: an 8-byte explicit nonce in
//! front, and behind, a 16-byte tag field holding a 16-bit tag and
//! fourteen filler bytes.
//!
//! **The schedule.** A fragment is read as 8-byte blocks. Block `i` takes
//! its keystream from lane `i % 4`: one of four generator words,
//! splitmix64-hashed once per record, advanced by `i / 4` Weyl steps and
//! whitened with one shift-xor. The last partial block takes the low bytes
//! of its keystream word. The tag folds each plaintext block, zero-extended,
//! into the same lane's multiply-add accumulator, and mixes the four lanes
//! once at the end. No lane depends on another, so the CPU keeps four
//! blocks in flight.
//!
//! **One kernel.** Seal, gather seal and open run the schedule through the
//! same code. The caller sizes the output once; a gather driver then walks
//! the input parts (a frame header and a shared body chunk, or one
//! contiguous slice), realigns a part that starts mid-quad with at most
//! three single blocks, and hands every run of whole 32-byte quads to a
//! loop that keeps the generator words and tag lanes in locals and XORs
//! straight into the output. The driver is compiled once for sealing and
//! once for opening (`const SEAL: bool`), which differ only in which side
//! of the XOR the tag reads.
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

/// Length of the explicit nonce that opens every sealed fragment.
const NONCE_LEN: usize = 8;

/// Length of the meaningful tag at the front of the 16-byte tag field.
const TAG_LEN: usize = 2;

/// The byte that fills the rest of the tag field. Opening checks it, so
/// a flipped filler bit fails like any other corruption.
const FILLER: u8 = 0xA5;

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
/// advances by a cheap Weyl increment per 32-byte quad, so the per-byte
/// keystream cost is an add and a shift-xor instead of three multiplies.
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

/// One record's keystream and tag state while its fragment is transformed:
/// the four generator words, the four tag lanes, and the lane of the next
/// block. `SEAL` says which side of the XOR is plaintext for the tag: the
/// input block when sealing, the output block when opening.
struct Kernel<const SEAL: bool> {
    words: [u64; 4],
    tag: Tag16,
    lane: usize,
}

impl<const SEAL: bool> Kernel<SEAL> {
    /// The state at the start of record `seq` of the direction keyed
    /// `key`, whose fragment is `len` bytes.
    fn new(key: u64, seq: u64, len: usize) -> Self {
        let seed = key ^ seq.wrapping_mul(PHI) | 1;
        Kernel {
            words: [0, 1, 2, 3].map(|lane| generator_word(seed, lane)),
            tag: Tag16::new(key, seq, len),
            lane: 0,
        }
    }

    /// Transforms one whole block on the current lane and moves to the next.
    #[inline(always)]
    fn block(&mut self, input: [u8; 8]) -> [u8; 8] {
        let lane = self.lane;
        let input = u64::from_le_bytes(input);
        let output = input ^ whiten(self.words[lane]);
        self.words[lane] = self.words[lane].wrapping_add(WEYL);
        self.tag.fold(lane, if SEAL { input } else { output });
        self.lane = (lane + 1) & 3;
        output.to_le_bytes()
    }

    /// Transforms the fragment's final partial block (under 8 bytes) with
    /// the low bytes of its keystream word.
    fn last(&mut self, src: &[u8], dst: &mut [u8]) {
        let mut block = [0u8; 8];
        block[..src.len()].copy_from_slice(src);
        let input = u64::from_le_bytes(block);
        let mask = !(u64::MAX << (8 * src.len()));
        let output = input ^ (whiten(self.words[self.lane]) & mask);
        self.tag.fold(self.lane, if SEAL { input } else { output });
        dst.copy_from_slice(&output.to_le_bytes()[..src.len()]);
    }

    /// Transforms whole 32-byte quads of `src` into `dst` (the same length),
    /// starting on lane 0: four blocks per iteration land on lanes `0..4`
    /// in order, so their whitenings and tag multiplies are independent
    /// and pipeline. The words and tag lanes live in locals for the loop.
    fn quads(&mut self, src: &[u8], dst: &mut [u8]) {
        debug_assert!(src.is_empty() || self.lane == 0, "quads start on lane 0");
        let mut words = self.words;
        let mut tag = self.tag;
        for (s, d) in src.chunks_exact(32).zip(dst.chunks_exact_mut(32)) {
            for (lane, word) in words.iter_mut().enumerate() {
                let block = lane * 8..lane * 8 + 8;
                let input = u64::from_le_bytes(s[block.clone()].try_into().expect("8 bytes"));
                let output = input ^ whiten(*word);
                *word = word.wrapping_add(WEYL);
                tag.fold(lane, if SEAL { input } else { output });
                d[block].copy_from_slice(&output.to_le_bytes());
            }
        }
        self.words = words;
        self.tag = tag;
    }
}

/// The one keystream path: transforms the concatenation of `parts` into
/// `dst`, which is exactly as long, as record `seq` of the direction keyed
/// `key`, and returns the record's tag. A part is read at whatever byte
/// phase the parts before it left (unaligned `u64` reads are fine): a
/// block that straddles a part boundary is gathered in an 8-byte stage, a
/// part that starts mid-quad is realigned with at most three single
/// blocks, and the rest runs through [`Kernel::quads`].
fn transform<const SEAL: bool>(key: u64, seq: u64, parts: &[&[u8]], dst: &mut [u8]) -> u16 {
    let mut kernel = Kernel::<SEAL>::new(key, seq, dst.len());
    let mut pos = 0;
    let mut stage = [0u8; 8];
    let mut staged = 0;
    for &part in parts {
        let mut src = part;
        if staged > 0 {
            let take = (8 - staged).min(src.len());
            stage[staged..staged + take].copy_from_slice(&src[..take]);
            staged += take;
            src = &src[take..];
            if staged < 8 {
                continue; // part exhausted mid-block
            }
            dst[pos..pos + 8].copy_from_slice(&kernel.block(stage));
            pos += 8;
        }
        while kernel.lane != 0 {
            let Some((block, rest)) = src.split_first_chunk() else {
                break;
            };
            dst[pos..pos + 8].copy_from_slice(&kernel.block(*block));
            pos += 8;
            src = rest;
        }
        let quads = src.len() & !31;
        kernel.quads(&src[..quads], &mut dst[pos..pos + quads]);
        pos += quads;
        src = &src[quads..];
        while let Some((block, rest)) = src.split_first_chunk() {
            dst[pos..pos + 8].copy_from_slice(&kernel.block(*block));
            pos += 8;
            src = rest;
        }
        // Under a block left: the start of a straddling block, or the
        // fragment's last bytes if no later part has any.
        stage[..src.len()].copy_from_slice(src);
        staged = src.len();
    }
    if staged > 0 {
        kernel.last(&stage[..staged], &mut dst[pos..]);
    }
    debug_assert_eq!(pos + staged, dst.len(), "every byte transformed");
    kernel.tag.finish()
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
        self.seal_parts_into(&[plaintext], out);
    }

    /// Seals one fragment whose plaintext is the concatenation of `parts`,
    /// appending the ciphertext to `out` — byte-identical output to
    /// [`RecordCipher::seal_into`] over the concatenated bytes, without
    /// the caller ever materializing them. The batched host pump hands the
    /// frame header and the shared body chunk as separate parts, so a
    /// response body is read exactly once (by the keystream pass) on its
    /// way to the wire.
    pub fn seal_parts_into(&mut self, parts: &[&[u8]], out: &mut Vec<u8>) {
        let len: usize = parts.iter().map(|p| p.len()).sum();
        let seq = self.seq;
        self.seq += 1;
        // Sized once, filler included; the nonce, fragment and tag are
        // then written in place.
        let start = out.len();
        out.resize(start + len + AEAD_OVERHEAD, FILLER);
        let (nonce, rest) = out[start..].split_at_mut(NONCE_LEN);
        let (body, tag_field) = rest.split_at_mut(len);
        // Explicit nonce: the sequence number, as in TLS 1.2 GCM.
        nonce.copy_from_slice(&seq.to_be_bytes());
        let tag = transform::<true>(self.key, seq, parts, body);
        tag_field[..TAG_LEN].copy_from_slice(&tag.to_be_bytes());
    }

    /// Opens one fragment, consuming the next sequence number.
    ///
    /// Returns `None` if the fragment is too short, the explicit nonce does
    /// not match the expected sequence number (replay/reorder), or the tag
    /// or its filler does not check (corruption).
    pub fn open(&mut self, ciphertext: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.open_into(ciphertext, &mut out).then_some(out)
    }

    /// Opens one fragment, appending the plaintext to `out` — the sink
    /// variant readers use to decrypt straight into a stream buffer instead
    /// of materializing each fragment separately. A wrong nonce, tag or
    /// filler byte fails the open; on failure `out` is left exactly as it
    /// was and the sequence number is not consumed.
    pub fn open_into(&mut self, ciphertext: &[u8], out: &mut Vec<u8>) -> bool {
        let Some(body_len) = ciphertext.len().checked_sub(AEAD_OVERHEAD) else {
            return false;
        };
        let (nonce, rest) = ciphertext.split_at(NONCE_LEN);
        let (body, tag_field) = rest.split_at(body_len);
        let (wire_tag, filler) = tag_field.split_at(TAG_LEN);
        let seq = u64::from_be_bytes(nonce.try_into().expect("8 bytes"));
        if seq != self.seq || filler != [FILLER; AEAD_OVERHEAD - NONCE_LEN - TAG_LEN] {
            return false;
        }
        let start = out.len();
        out.resize(start + body_len, 0);
        let tag = transform::<false>(self.key, seq, &[body], &mut out[start..]);
        if wire_tag != tag.to_be_bytes() {
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
    use h2priv_netsim::prop;

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

    #[test]
    fn filler_corruption_fails() {
        // Every byte of the tag field counts: a flipped filler bit fails
        // the open like a flipped tag bit, and leaves `out` and the
        // sequence number as they were.
        let ct = RecordCipher::new(42, 1).seal(&[7u8; 15]);
        for idx in NONCE_LEN + 15 + TAG_LEN..ct.len() {
            let mut tampered = ct.clone();
            tampered[idx] ^= 0x10;
            let mut open = RecordCipher::new(42, 1);
            let mut out = vec![1, 2, 3];
            assert!(!open.open_into(&tampered, &mut out), "filler byte {idx}");
            assert_eq!((out.as_slice(), open.seq()), (&[1, 2, 3][..], 0));
            assert!(open.open_into(&ct, &mut out));
            assert_eq!(out[3..], [7u8; 15]);
        }
    }

    /// FNV-1a-64 of `bytes`.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
    }

    #[test]
    fn sealed_bytes_match_known_answers() {
        // Digests of whole sealed fragments: they pin every ciphertext
        // byte, which the goldens (sizes and counts only) never see. One
        // cipher seals the contiguous lengths in turn (sequence numbers
        // 0..10): every tail shape, a 2 KiB fragment and a full 16 KiB
        // one. The gather seal's 3-part splits start the body at lane
        // phases 1, 2 and 3 and, after an HTTP/2 frame header, mid-block.
        let msg: Vec<u8> = (0..16_384)
            .map(|i: usize| (i.wrapping_mul(37) % 241) as u8)
            .collect();
        let mut cipher = RecordCipher::new(0x5EA1, 2);
        for (len, digest) in [
            (0, 0x0bdf_8cea_b0e1_89e3),
            (1, 0x98dc_7620_736a_e322),
            (7, 0x8eda_ebfa_ef81_3646),
            (8, 0x0427_ae16_278a_3e16),
            (9, 0xdfda_01e3_a2b2_ca28),
            (31, 0xdb6c_ca50_723d_40d8),
            (32, 0x067c_f930_7302_b9c9),
            (33, 0x2dd8_fe32_b906_0add),
            (2_048, 0xa025_baee_20c1_8525),
            (16_384, 0x6761_0a68_bd5a_4059),
        ] {
            let mut sealed = Vec::new();
            cipher.seal_into(&msg[..len], &mut sealed);
            assert_eq!(fnv1a64(&sealed), digest, "seal_into, length {len}");
        }
        let mut cipher = RecordCipher::new(0x5EA1, 1);
        for (head, digest) in [
            (8, 0x3648_bbeb_1220_11e0),
            (16, 0x86f0_ed4c_87f3_99b1),
            (24, 0xae41_4c17_b584_b217),
            (9, 0x6958_30a0_a7c7_2a85),
        ] {
            let body = head + 2_000;
            let parts = [&msg[..head], &msg[head..body], &msg[body..body + 7]];
            let mut sealed = Vec::new();
            cipher.seal_parts_into(&parts, &mut sealed);
            assert_eq!(fnv1a64(&sealed), digest, "seal_parts_into, head {head}");
        }
    }

    /// Record `seq` of the direction keyed `key`, sealed by walking the
    /// schedule one block at a time: block `i` on lane `i % 4`, with that
    /// lane's word advanced `i / 4` Weyl steps, and the last partial block
    /// taking only the low bytes of its keystream.
    fn reference_seal(key: u64, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let seed = key ^ seq.wrapping_mul(PHI) | 1;
        let mut tag = Tag16::new(key, seq, plaintext.len());
        let mut sealed = seq.to_be_bytes().to_vec();
        for (i, block) in plaintext.chunks(8).enumerate() {
            let lane = i % 4;
            let steps = WEYL.wrapping_mul((i / 4) as u64);
            let keystream = whiten(generator_word(seed, lane as u64).wrapping_add(steps));
            let mut plain = [0u8; 8];
            plain[..block.len()].copy_from_slice(block);
            tag.fold(lane, u64::from_le_bytes(plain));
            sealed.extend(
                block
                    .iter()
                    .zip(keystream.to_le_bytes())
                    .map(|(p, k)| p ^ k),
            );
        }
        sealed.extend_from_slice(&tag.finish().to_be_bytes());
        sealed.resize(plaintext.len() + AEAD_OVERHEAD, FILLER);
        sealed
    }

    #[test]
    fn kernel_matches_block_at_a_time_reference() {
        prop::check("kernel_matches_block_at_a_time_reference", 512, |g| {
            let cipher = RecordCipher {
                key: g.any(),
                seq: g.range(0u64..1_000),
            };
            let plaintext = g.bytes(0..700);
            let expected = reference_seal(cipher.key, cipher.seq, &plaintext);
            // Every entry point appends after whatever `out` already holds.
            let prefix = g.bytes(0..40);
            let appended = |out: &[u8]| out[..prefix.len()] == prefix[..];

            let mut sealer = cipher.clone();
            let mut out = prefix.clone();
            sealer.seal_into(&plaintext, &mut out);
            assert!(appended(&out) && out[prefix.len()..] == expected[..]);
            assert_eq!(sealer.seq, cipher.seq + 1);

            // One to four parts at any phases, empty parts included.
            let mut rest = &plaintext[..];
            let mut parts = Vec::new();
            for _ in 1..g.range(1usize..=4) {
                let n = match g.range(0u8..3) {
                    0 => 0,
                    1 => g.range(0..=rest.len().min(16)),
                    _ => g.range(0..=rest.len()),
                };
                let (part, tail) = rest.split_at(n);
                parts.push(part);
                rest = tail;
            }
            parts.push(rest);
            let lens: Vec<usize> = parts.iter().map(|p| p.len()).collect();
            let mut out = prefix.clone();
            cipher.clone().seal_parts_into(&parts, &mut out);
            let sealed = appended(&out) && out[prefix.len()..] == expected[..];
            assert!(sealed, "parts of lengths {lens:?}");

            let mut opener = cipher.clone();
            let mut out = prefix.clone();
            assert!(opener.open_into(&expected, &mut out));
            assert!(appended(&out) && out[prefix.len()..] == plaintext[..]);
            assert_eq!(opener.seq, cipher.seq + 1);
        });
    }
}
