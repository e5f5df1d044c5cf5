//! The sender's chunked retransmission buffer.
//!
//! The send buffer used to be one flat `Vec<u8>` indexed by stream
//! offset: every segment (and every retransmit) copied its payload out
//! with `send_buf[a..b].to_vec()`, and the acknowledged prefix was never
//! reclaimed — `snd_una` just indexed ever deeper into a Vec that grew
//! for the life of the connection. [`SendRope`] replaces it with a
//! `VecDeque` of [`SharedBytes`] chunks addressed by absolute stream
//! offset: segmentation hands out O(1) sub-slices of the queued chunks,
//! and fully-acknowledged chunks are popped off the front, so the
//! resident buffer tracks the unacknowledged window instead of the
//! cumulative stream.

use std::collections::VecDeque;

use h2priv_bytes::SharedBytes;

/// A queue of shared byte chunks forming one contiguous stream, indexed
/// by absolute stream offset.
///
/// Invariant: the chunks cover `[base, total)` contiguously, with no
/// empty chunks. `total` only grows; `base` only advances (as acked
/// chunks are released) and never passes `total`.
#[derive(Debug, Default)]
pub(crate) struct SendRope {
    chunks: VecDeque<SharedBytes>,
    /// Stream offset of the first byte of `chunks[0]`.
    base: u64,
    /// Stream length: every byte ever pushed lives at `[0, total)`.
    total: u64,
    /// One fully-acknowledged chunk's backing buffer, recovered for reuse.
    /// Senders that queue one coalesced buffer per pump pass (the batched
    /// host path) get an earlier buffer back once it is acked, unless a
    /// wire tap or an in-flight segment still holds a view of it.
    spare: Option<Vec<u8>>,
}

impl SendRope {
    pub(crate) fn new() -> SendRope {
        SendRope::default()
    }

    /// Total bytes ever appended — the stream length. The next appended
    /// byte gets this offset.
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Bytes currently held (not yet released by [`release_until`](Self::release_until)).
    pub(crate) fn resident(&self) -> usize {
        (self.total - self.base) as usize
    }

    /// Appends a chunk at offset [`total`](Self::total). Empty chunks are
    /// ignored. O(1), shares the chunk's backing buffer.
    pub(crate) fn push(&mut self, chunk: SharedBytes) {
        if chunk.is_empty() {
            return;
        }
        self.total += chunk.len() as u64;
        self.chunks.push_back(chunk);
    }

    /// Returns the bytes at stream offsets `[start, end)`.
    ///
    /// When the range lies within a single chunk — the steady-state case,
    /// since TLS records span many MSS-sized segments — this is an O(1)
    /// allocation-free sub-slice. A range straddling a chunk boundary is
    /// materialized with one copy.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing, starts below the released
    /// prefix, or ends past [`total`](Self::total).
    pub(crate) fn slice(&self, start: u64, end: u64) -> SharedBytes {
        assert!(
            self.base <= start && start <= end && end <= self.total,
            "slice {start}..{end} outside retained range {}..{}",
            self.base,
            self.total
        );
        if start == end {
            return SharedBytes::new();
        }
        let mut chunk_start = self.base;
        let mut iter = self.chunks.iter();
        // Skip chunks wholly before the range.
        let first = loop {
            let chunk = iter.next().expect("range is within the retained chunks");
            let chunk_end = chunk_start + chunk.len() as u64;
            if start < chunk_end {
                break chunk;
            }
            chunk_start = chunk_end;
        };
        let lo = (start - chunk_start) as usize;
        if end <= chunk_start + first.len() as u64 {
            // Entirely inside one chunk: share it.
            return first.slice(lo..lo + (end - start) as usize);
        }
        // Straddles chunks: materialize the spanning bytes once.
        let mut out = Vec::with_capacity((end - start) as usize);
        out.extend_from_slice(&first[lo..]);
        let mut pos = chunk_start + first.len() as u64;
        for chunk in iter {
            let take = ((end - pos) as usize).min(chunk.len());
            out.extend_from_slice(&chunk[..take]);
            pos += take as u64;
            if pos == end {
                break;
            }
        }
        SharedBytes::from_vec(out)
    }

    /// Releases chunks wholly below `offset` (the new `snd_una`). A chunk
    /// the offset lands inside is retained whole: its backing buffer is
    /// still referenced by the unacknowledged suffix either way.
    pub(crate) fn release_until(&mut self, offset: u64) {
        while let Some(front) = self.chunks.front() {
            let front_end = self.base + front.len() as u64;
            if front_end > offset {
                break;
            }
            self.base = front_end;
            let chunk = self.chunks.pop_front().expect("front exists");
            // Reclaim the backing buffer when nothing else (in-flight
            // segment payloads, wire taps) still references it.
            if self.spare.is_none() {
                if let Ok(mut vec) = chunk.try_into_vec() {
                    vec.clear();
                    self.spare = Some(vec);
                }
            }
        }
    }

    /// Takes the recycled buffer recovered from the most recently released
    /// chunk, if any. The buffer is empty with its capacity intact.
    pub(crate) fn take_spare(&mut self) -> Option<Vec<u8>> {
        self.spare.take()
    }

    /// Seeds the recycled-buffer slot (a pool handing a fresh connection a
    /// used buffer instead of letting it allocate). Kept only when the
    /// slot is empty and `buf` has capacity; `buf` is cleared.
    pub(crate) fn give_spare(&mut self, mut buf: Vec<u8>) {
        if self.spare.is_none() && buf.capacity() > 0 {
            buf.clear();
            self.spare = Some(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rope_of(chunks: &[&[u8]]) -> SendRope {
        let mut rope = SendRope::new();
        for c in chunks {
            rope.push(SharedBytes::copy_from_slice(c));
        }
        rope
    }

    #[test]
    fn empty_rope() {
        let rope = SendRope::new();
        assert_eq!(rope.total(), 0);
        assert_eq!(rope.resident(), 0);
        assert!(rope.slice(0, 0).is_empty());
    }

    #[test]
    fn push_accumulates_offsets() {
        let rope = rope_of(&[b"abc", b"defg"]);
        assert_eq!(rope.total(), 7);
        assert_eq!(rope.resident(), 7);
    }

    #[test]
    fn empty_chunks_are_ignored() {
        let mut rope = rope_of(&[b"ab"]);
        rope.push(SharedBytes::new());
        assert_eq!(rope.total(), 2);
        assert_eq!(rope.slice(0, 2), *b"ab");
    }

    #[test]
    fn slice_within_one_chunk() {
        let rope = rope_of(&[b"0123456789"]);
        assert_eq!(rope.slice(2, 5), *b"234");
        assert_eq!(rope.slice(0, 10), *b"0123456789");
    }

    #[test]
    fn slice_across_chunks() {
        let rope = rope_of(&[b"abc", b"def", b"ghi"]);
        assert_eq!(rope.slice(1, 8), *b"bcdefgh");
        assert_eq!(rope.slice(3, 6), *b"def");
        assert_eq!(rope.slice(2, 4), *b"cd");
    }

    #[test]
    fn release_pops_whole_chunks() {
        let mut rope = rope_of(&[b"abc", b"def", b"ghi"]);
        rope.release_until(3);
        assert_eq!(rope.resident(), 6);
        assert_eq!(rope.total(), 9);
        assert_eq!(rope.slice(3, 9), *b"defghi");
        // Mid-chunk offset: the chunk stays resident.
        rope.release_until(7);
        assert_eq!(rope.resident(), 3);
        assert_eq!(rope.slice(7, 9), *b"hi");
        rope.release_until(9);
        assert_eq!(rope.resident(), 0);
    }

    #[test]
    fn push_after_release_keeps_offsets_absolute() {
        let mut rope = rope_of(&[b"abc"]);
        rope.release_until(3);
        rope.push(SharedBytes::copy_from_slice(b"xyz"));
        assert_eq!(rope.total(), 6);
        assert_eq!(rope.slice(4, 6), *b"yz");
    }

    #[test]
    #[should_panic(expected = "outside retained range")]
    fn slice_below_released_prefix_panics() {
        let mut rope = rope_of(&[b"abc", b"def"]);
        rope.release_until(3);
        rope.slice(2, 4);
    }

    #[test]
    #[should_panic(expected = "outside retained range")]
    fn slice_past_total_panics() {
        rope_of(&[b"abc"]).slice(1, 4);
    }

    #[test]
    fn released_unique_chunk_is_recycled() {
        let mut rope = SendRope::new();
        rope.push(SharedBytes::from_vec(vec![7u8; 64]));
        assert!(rope.take_spare().is_none());
        rope.release_until(64);
        let spare = rope.take_spare().expect("unique chunk recovered");
        assert!(spare.is_empty());
        assert!(spare.capacity() >= 64);
        assert!(rope.take_spare().is_none(), "spare is taken once");
    }

    #[test]
    fn shared_chunk_is_not_recycled() {
        let mut rope = SendRope::new();
        let chunk = SharedBytes::from_vec(vec![7u8; 64]);
        let _tap = chunk.clone();
        rope.push(chunk);
        rope.release_until(64);
        assert!(rope.take_spare().is_none(), "still referenced elsewhere");
    }
}
