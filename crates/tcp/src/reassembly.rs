//! Receive-side stream reassembly.
//!
//! Holds out-of-order payload keyed by 64-bit stream offset and releases
//! the longest in-order prefix. One reassembler serves both of its
//! consumers: the endpoint (`TcpConnection`) appends each released range
//! to its ready buffer, and the adversary's *passive* follower
//! (`h2priv-analysis`) hands each range straight to its TLS record scanner
//! — reassembly is not an endpoint privilege, which is precisely why TLS
//! record boundaries leak. Held-back chunks are shared views of the
//! arriving segments' bytes, so reassembly copies nothing until a range
//! is released.

use std::collections::BTreeMap;

use h2priv_bytes::SharedBytes;

/// Reassembles a byte stream from segments arriving at arbitrary offsets.
///
/// Offsets are absolute 64-bit stream positions (the connection translates
/// wire sequence numbers). Overlapping and duplicate data is tolerated and
/// deduplicated, as retransmissions routinely overlap: a held chunk wins
/// over a later one that overlaps its start, and a later chunk trims the
/// held chunks it covers.
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    /// End of the in-order prefix: every byte before it has been released.
    in_order: u64,
    /// Out-of-order chunks: start offset → a view of the segment's bytes.
    /// Disjoint, and every start lies past `in_order`.
    pending: BTreeMap<u64, SharedBytes>,
    /// Released bytes not yet drained by the application (the endpoint's
    /// ready buffer; [`insert_with`](Self::insert_with) bypasses it).
    ready: Vec<u8>,
    /// Total duplicate bytes discarded (diagnostics).
    duplicate_bytes: u64,
}

impl Reassembler {
    /// Creates an empty reassembler expecting offset 0.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// The next stream offset that has not yet been received in order:
    /// everything before it is released or ready, so it is the
    /// cumulative-ACK point.
    pub fn ack_point(&self) -> u64 {
        self.in_order
    }

    /// In-order bytes ready to be drained by [`read`](Self::read).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// Bytes sitting out of order (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.pending.values().map(SharedBytes::len).sum()
    }

    /// Duplicate bytes discarded so far.
    pub fn duplicate_bytes(&self) -> u64 {
        self.duplicate_bytes
    }

    /// True if out-of-order data is buffered — the signal for sending a
    /// duplicate ACK.
    pub fn has_gap(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Inserts `data` at absolute stream `offset`, appending whatever it
    /// brings in order to the ready buffer drained by [`read`](Self::read).
    pub fn insert(&mut self, offset: u64, data: &SharedBytes) {
        let mut ready = std::mem::take(&mut self.ready);
        self.insert_with(offset, data, |bytes| ready.extend_from_slice(bytes));
        self.ready = ready;
    }

    /// Inserts `data` at absolute stream `offset` and hands each range it
    /// brings in order to `deliver`, in stream order, without buffering
    /// it. Out-of-order data is held as a view of `data`, never copied.
    pub fn insert_with(&mut self, offset: u64, data: &SharedBytes, mut deliver: impl FnMut(&[u8])) {
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        if end <= self.in_order {
            self.duplicate_bytes += data.len() as u64;
            return; // wholly old
        }
        if offset > self.in_order {
            self.insert_pending(offset, data.clone());
            return;
        }
        // Trim the already-released prefix and release the rest.
        let skip = self.in_order - offset;
        self.duplicate_bytes += skip;
        deliver(&data[skip as usize..]);
        self.in_order = end;
        self.drain_pending(&mut deliver);
    }

    /// Holds a chunk that starts past the in-order point. A held
    /// predecessor keeps the bytes they share; held successors the chunk
    /// covers lose theirs.
    fn insert_pending(&mut self, mut offset: u64, mut data: SharedBytes) {
        if let Some((&prev_start, prev)) = self.pending.range(..=offset).next_back() {
            let prev_end = prev_start + prev.len() as u64;
            if prev_end >= offset + data.len() as u64 {
                self.duplicate_bytes += data.len() as u64;
                return; // fully covered
            }
            if prev_end > offset {
                let trim = prev_end - offset;
                self.duplicate_bytes += trim;
                data = data.slice(trim as usize..);
                offset = prev_end;
            }
        }
        let new_end = offset + data.len() as u64;
        while let Some((&start, _)) = self.pending.range(offset..new_end).next() {
            let Some(chunk) = self.pending.remove(&start) else {
                break;
            };
            let chunk_end = start + chunk.len() as u64;
            if chunk_end > new_end {
                // Keep the non-overlapping tail.
                let keep_from = new_end - start;
                self.duplicate_bytes += keep_from;
                self.pending
                    .insert(new_end, chunk.slice(keep_from as usize..));
            } else {
                self.duplicate_bytes += chunk.len() as u64;
            }
        }
        self.pending.insert(offset, data);
    }

    /// Releases every held chunk the in-order point has reached.
    fn drain_pending(&mut self, deliver: &mut impl FnMut(&[u8])) {
        while let Some(entry) = self.pending.first_entry() {
            if *entry.key() > self.in_order {
                return;
            }
            let (start, chunk) = entry.remove_entry();
            let chunk_end = start + chunk.len() as u64;
            if chunk_end <= self.in_order {
                self.duplicate_bytes += chunk.len() as u64;
                continue;
            }
            let skip = self.in_order - start;
            self.duplicate_bytes += skip;
            deliver(&chunk[skip as usize..]);
            self.in_order = chunk_end;
        }
    }

    /// Drains all in-order bytes received so far.
    pub fn read(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.ready)
    }

    /// Drains all in-order bytes into `out` (appending), reusing the
    /// caller's buffer instead of surrendering the internal one. The
    /// batched host path calls this with one shared scratch buffer per
    /// shard, so draining N hosts costs zero steady-state allocations.
    pub fn read_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ready);
        self.ready.clear();
    }

    /// Surrenders the drained `ready` buffer's capacity (for a buffer
    /// pool), if it is empty and holds any. The reassembler reallocates on
    /// the next in-order insert, so this is for streams that are done.
    pub fn take_ready_spare(&mut self) -> Option<Vec<u8>> {
        if self.ready.is_empty() && self.ready.capacity() > 0 {
            Some(std::mem::take(&mut self.ready))
        } else {
            None
        }
    }

    /// Seeds the `ready` buffer with recycled capacity (the inverse of
    /// [`take_ready_spare`](Self::take_ready_spare)); kept only when the
    /// current buffer is empty with no capacity. `buf` is cleared.
    pub fn give_ready_spare(&mut self, mut buf: Vec<u8>) {
        if self.ready.is_empty() && self.ready.capacity() == 0 && buf.capacity() > 0 {
            buf.clear();
            self.ready = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(r: &mut Reassembler, offset: u64, data: &[u8]) {
        r.insert(offset, &SharedBytes::copy_from_slice(data));
    }

    #[test]
    fn insert_with_hands_released_ranges_to_the_caller() {
        let mut r = Reassembler::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let world = SharedBytes::copy_from_slice(b"world");
        r.insert_with(6, &world, |b| got.push(b.to_vec()));
        assert!(got.is_empty());
        assert_eq!(r.pending_bytes(), 5);
        let hello = SharedBytes::copy_from_slice(b"hello ");
        r.insert_with(0, &hello, |b| got.push(b.to_vec()));
        assert_eq!(got, [b"hello ".to_vec(), b"world".to_vec()]);
        assert_eq!(r.ack_point(), 11);
        assert_eq!(
            r.ready_len(),
            0,
            "the caller's ranges bypass the ready buffer"
        );
        assert_eq!(r.read(), b"");
    }

    #[test]
    fn in_order_delivery() {
        let mut r = Reassembler::new();
        put(&mut r, 0, b"hello ");
        put(&mut r, 6, b"world");
        assert_eq!(r.read(), b"hello world");
        assert_eq!(r.ack_point(), 11);
        assert!(!r.has_gap());
    }

    #[test]
    fn out_of_order_fills_gap() {
        let mut r = Reassembler::new();
        put(&mut r, 6, b"world");
        assert!(r.has_gap());
        assert_eq!(r.read(), b"");
        put(&mut r, 0, b"hello ");
        assert_eq!(r.read(), b"hello world");
        assert!(!r.has_gap());
    }

    #[test]
    fn duplicates_are_discarded() {
        let mut r = Reassembler::new();
        put(&mut r, 0, b"abcdef");
        assert_eq!(r.read(), b"abcdef");
        put(&mut r, 0, b"abcdef");
        assert_eq!(r.read(), b"");
        assert_eq!(r.duplicate_bytes(), 6);
    }

    #[test]
    fn partial_overlap_with_released_data() {
        let mut r = Reassembler::new();
        put(&mut r, 0, b"abcd");
        assert_eq!(r.read(), b"abcd");
        // Retransmission covering old + new bytes.
        put(&mut r, 2, b"cdEF");
        assert_eq!(r.read(), b"EF");
        assert_eq!(r.duplicate_bytes(), 2);
    }

    #[test]
    fn overlapping_pending_chunks() {
        let mut r = Reassembler::new();
        put(&mut r, 10, b"JKLM");
        put(&mut r, 8, b"HIJK"); // overlaps [10,12)
        put(&mut r, 12, b"LMNO"); // overlaps [12,14)
        put(&mut r, 0, b"ABCDEFGH");
        assert_eq!(r.read(), b"ABCDEFGHHIJKLMNO");
    }

    #[test]
    fn chunk_fully_covered_by_pending() {
        let mut r = Reassembler::new();
        put(&mut r, 4, b"EFGHIJ");
        put(&mut r, 5, b"FG"); // inside existing chunk
        put(&mut r, 0, b"ABCD");
        assert_eq!(r.read(), b"ABCDEFGHIJ");
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut r = Reassembler::new();
        put(&mut r, 5, b"");
        assert!(!r.has_gap());
        assert_eq!(r.read(), b"");
    }

    #[test]
    fn ack_point_tracks_contiguity() {
        let mut r = Reassembler::new();
        assert_eq!(r.ack_point(), 0);
        put(&mut r, 0, b"abc");
        assert_eq!(r.ack_point(), 3);
        put(&mut r, 10, b"xyz");
        assert_eq!(r.ack_point(), 3);
        put(&mut r, 3, b"defghij");
        assert_eq!(r.ack_point(), 13);
    }

    #[test]
    fn interleaved_reads() {
        let mut r = Reassembler::new();
        put(&mut r, 0, b"one");
        assert_eq!(r.read(), b"one");
        put(&mut r, 3, b"two");
        put(&mut r, 9, b"four");
        assert_eq!(r.read(), b"two");
        put(&mut r, 6, b"333");
        assert_eq!(r.read(), b"333four");
    }

    #[test]
    fn pending_bytes_accounting() {
        let mut r = Reassembler::new();
        put(&mut r, 100, b"abcde");
        assert_eq!(r.pending_bytes(), 5);
        put(&mut r, 200, b"fg");
        assert_eq!(r.pending_bytes(), 7);
    }

    #[test]
    fn massive_shuffle_reassembles() {
        // Deterministic pseudo-shuffle of 1000 chunks.
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut chunks: Vec<(u64, &[u8])> = data
            .chunks(100)
            .enumerate()
            .map(|(i, c)| ((i * 100) as u64, c))
            .collect();
        // Simple LCG-driven swap shuffle.
        let mut state = 12345u64;
        for i in (1..chunks.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            chunks.swap(i, j);
        }
        let mut r = Reassembler::new();
        for (off, c) in chunks {
            put(&mut r, off, c);
        }
        assert_eq!(r.read(), data);
        assert_eq!(r.pending_bytes(), 0);
    }
}
