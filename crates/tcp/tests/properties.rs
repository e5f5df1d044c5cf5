//! Properties of the TCP substrate: whatever the network does — loss,
//! reordering, duplication — an established connection delivers the exact
//! byte stream, in order, or aborts cleanly.

use h2priv_bytes::SharedBytes;
use h2priv_netsim::prop;
use h2priv_netsim::{SimDuration, SimTime};
use h2priv_tcp::{Reassembler, Seq, TcpConfig, TcpConnection, TcpSegment};

// ---------- sequence arithmetic ------------------------------------------

/// Of two distinct sequence numbers, exactly one precedes the other —
/// except exactly half the space apart, where RFC 1982 leaves the order
/// undefined and neither does. Never both.
#[test]
fn seq_ordering_is_antisymmetric() {
    prop::check("seq_ordering_is_antisymmetric", 256, |g| {
        let a = Seq(g.any());
        // Half the cases sit at the window's edges, where wrap bugs live.
        let d = if g.bool() {
            g.pick(&[0, 1, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001, u32::MAX])
        } else {
            g.any()
        };
        let b = a + d;
        assert!(!(a.lt(b) && b.lt(a)), "{a} and {b} both precede each other");
        if d != 0 && d != 0x8000_0000 {
            assert_ne!(a.lt(b), b.lt(a), "{a} vs {b}");
        }
    });
}

#[test]
fn seq_add_then_sub_roundtrips() {
    prop::check("seq_add_then_sub_roundtrips", 256, |g| {
        let s = Seq(g.any());
        let d = g.range(0..=i32::MAX as u32);
        assert_eq!((s + d) - s, d);
        if d > 0 {
            assert!(s.lt(s + d));
        }
    });
}

// ---------- reassembly ----------------------------------------------------

/// Chunks delivered in any order, with arbitrary duplication, always
/// reassemble to the original stream.
#[test]
fn reassembly_is_order_and_duplication_invariant() {
    prop::check("reassembly_is_order_and_duplication_invariant", 64, |g| {
        let len = g.range(1usize..5_000);
        let chunk = g.range(1usize..700);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let chunks: Vec<(u64, SharedBytes)> = (0u64..)
            .zip(data.chunks(chunk))
            .map(|(i, c)| (i * chunk as u64, SharedBytes::copy_from_slice(c)))
            .collect();
        // A shuffled pass with duplicates, then every chunk once in a
        // random order to guarantee completeness.
        let dups = g.vec(0..64, |g| g.range(0..chunks.len()));
        let mut r = Reassembler::new();
        for i in dups.into_iter().chain(g.permutation(chunks.len())) {
            let (off, c) = &chunks[i];
            r.insert(*off, c);
        }
        assert_eq!(r.read(), data);
        assert_eq!(r.pending_bytes(), 0);
    });
}

/// Overlapping retransmissions never corrupt previously released data.
#[test]
fn reassembly_overlaps_never_corrupt() {
    prop::check("reassembly_overlaps_never_corrupt", 64, |g| {
        let len = g.range(2usize..2_000);
        let cut = g.range(1..len);
        let data = SharedBytes::from_vec((0..len).map(|i| (i * 7 % 256) as u8).collect());
        let mut r = Reassembler::new();
        r.insert(0, &data.slice(..cut));
        assert_eq!(r.read(), &data[..cut]);
        // Retransmit everything from zero.
        r.insert(0, &data);
        assert_eq!(r.read(), &data[cut..]);
    });
}

/// Windows of a stream cut anywhere — overlapping, re-segmented and
/// duplicated, inserted in any order — release exactly the stream, hold
/// nothing back, and count every byte inserted beyond the stream once as
/// a duplicate: a held predecessor keeps shared bytes, and a new chunk
/// trims the held successors it covers, without losing or double-counting
/// a byte.
#[test]
fn reassembly_of_overlapping_windows_accounts_every_byte() {
    prop::check(
        "reassembly_of_overlapping_windows_accounts_every_byte",
        256,
        |g| {
            let len = g.range(1usize..6_000);
            let data = SharedBytes::from_vec(g.bytes(len..=len));
            // One segmentation at random cut points covers the stream...
            let mut windows: Vec<(usize, usize)> = Vec::new();
            let mut at = 0;
            while at < len {
                let end = (at + g.range(1usize..1_500)).min(len);
                windows.push((at, end));
                at = end;
            }
            // ...then windows anywhere, overlapping it and each other, plus
            // exact duplicates of some of them.
            for _ in 0..g.range(0usize..40) {
                let start = g.range(0..len);
                let end = g.range(start + 1..=len.min(start + 3_000));
                windows.push((start, end));
            }
            for _ in 0..g.range(0usize..10) {
                let again = g.pick(&windows);
                windows.push(again);
            }
            let mut r = Reassembler::new();
            let mut inserted = 0u64;
            for i in g.permutation(windows.len()) {
                let (start, end) = windows[i];
                r.insert(start as u64, &data.slice(start..end));
                inserted += (end - start) as u64;
            }
            assert_eq!(r.read(), &data[..]);
            assert_eq!(r.pending_bytes(), 0);
            assert!(!r.has_gap());
            assert_eq!(r.duplicate_bytes(), inserted - len as u64);
        },
    );
}

// ---------- full connections over adversarial "networks" ------------------

/// Drives a client sending `data` to a server until both are quiet, an
/// endpoint aborts, or 3,000 rounds pass. `fate` decides each segment's
/// fate: 0 drops it, 1 holds it back for a later, reordered delivery, and
/// anything else delivers it at once. When nothing moves, time jumps to
/// the next retransmission deadline. Returns `(client, server)`.
fn transfer(data: &[u8], mut fate: impl FnMut() -> u64) -> (TcpConnection, TcpConnection) {
    let mut client = TcpConnection::client(TcpConfig::default());
    let mut server = TcpConnection::server(TcpConfig {
        iss: Seq(50_000),
        ..TcpConfig::default()
    });
    client.write(data);
    let mut held: Vec<(bool, TcpSegment)> = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..3_000 {
        let mut moved = false;
        while let Some(seg) = client.poll_transmit(now) {
            moved = true;
            match fate() {
                0 => {}                      // drop
                1 => held.push((true, seg)), // delay (reorder)
                _ => server.on_segment(seg, now),
            }
        }
        while let Some(seg) = server.poll_transmit(now) {
            moved = true;
            match fate() {
                0 => {}
                1 => held.push((false, seg)),
                _ => client.on_segment(seg, now),
            }
        }
        // Deliver one held (reordered) segment per round.
        if let Some((to_server, seg)) = held.pop() {
            if to_server {
                server.on_segment(seg, now);
            } else {
                client.on_segment(seg, now);
            }
            moved = true;
        }
        if client.is_aborted() || server.is_aborted() {
            break;
        }
        if moved {
            now += SimDuration::from_micros(100);
            continue;
        }
        // Advance to the next retransmission deadline.
        let next = [client.poll_timeout(), server.poll_timeout()]
            .into_iter()
            .flatten()
            .min();
        let Some(deadline) = next else { break };
        now = deadline;
        client.on_tick(now);
        server.on_tick(now);
    }
    (client, server)
}

/// With loss and reordering, TCP delivers the exact stream, or an endpoint
/// gives up after its timeout budget — never corruption.
#[test]
fn tcp_delivers_exactly_despite_loss_and_reordering() {
    prop::check(
        "tcp_delivers_exactly_despite_loss_and_reordering",
        32,
        |g| {
            let data: Vec<u8> = (0..g.range(1usize..30_000))
                .map(|i| (i % 255) as u8)
                .collect();
            let drop_mod = g.range(4u64..20);
            let (client, mut server) = transfer(&data, || g.range(0..drop_mod));
            if !client.is_aborted() && !server.is_aborted() {
                assert_eq!(server.read(), data);
            }
        },
    );
}

/// On a perfect channel, delivery is guaranteed and retransmission-free.
#[test]
fn tcp_clean_channel_no_retransmissions() {
    prop::check("tcp_clean_channel_no_retransmissions", 32, |g| {
        let data: Vec<u8> = (0..g.range(1usize..20_000))
            .map(|i| (i % 253) as u8)
            .collect();
        let (client, mut server) = transfer(&data, || 2);
        assert_eq!(server.read(), data);
        assert_eq!(client.stats().retransmissions, 0);
        assert_eq!(client.stats().timeouts, 0);
    });
}
