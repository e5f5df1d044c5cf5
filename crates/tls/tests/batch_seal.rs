//! Batched record-sealing regression tests.
//!
//! The batched host pump seals a whole run of queued HTTP/2 frames into
//! one reused buffer: each split DATA frame through the gather seal
//! [`TlsSession::seal_app_data_parts_into`] (`[frame header, shared body,
//! tail padding]`), and the attacker's and shaper's contiguous bytes
//! through [`TlsSession::seal_app_data_into`]. This binary installs the
//! allocation-counting global allocator and pins what that pump depends
//! on:
//!
//! * sealing into a sink is **byte-identical** to the allocating
//!   [`TlsSession::seal_app_data`] — coalescing records changes nothing
//!   on the wire; and
//! * sealing a run of records into a warm (pre-sized) buffer performs
//!   **zero** heap allocations on both seal paths — one keystream pass,
//!   no per-record or per-frame `Vec`.

use h2priv_bytes::count_alloc::{measure, CountingAlloc};
use h2priv_tls::{Role, TlsSession};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const KEY: u64 = 0xBA7C_45EA;

fn established_client() -> TlsSession {
    let mut client = TlsSession::new(Role::Client, KEY);
    let mut server = TlsSession::new(Role::Server, KEY);
    let hello = client.initial_flight().expect("client starts");
    let out = server.receive(&hello).unwrap();
    let out = client.receive(&out.reply).unwrap();
    assert!(out.established_now);
    server.receive(&out.reply).unwrap();
    assert!(client.is_established());
    client
}

#[test]
fn sink_sealing_is_byte_identical_to_allocating_sealing() {
    // Two identically-keyed sessions produce identical keystreams, so the
    // sink variant must emit exactly the bytes the allocating variant
    // returns, record for record, across a coalesced run.
    let mut a = established_client();
    let mut b = established_client();

    let payloads: Vec<Vec<u8>> = (0..12u8)
        .map(|i| vec![i; 100 + 1_500 * i as usize % 4_000])
        .collect();

    let mut individually = Vec::new();
    for p in &payloads {
        individually.extend_from_slice(&a.seal_app_data(p).unwrap());
    }

    let mut run = Vec::new();
    for p in &payloads {
        b.seal_app_data_into(p, &mut run).unwrap();
    }

    assert_eq!(individually, run);
    assert_eq!(a.records_sealed(), b.records_sealed());
}

#[test]
fn sealing_a_run_into_a_warm_buffer_is_allocation_free() {
    let mut session = established_client();

    // Steady state of the batched pump: the run buffer is recycled from
    // the previous flush, so its capacity already covers a full socket
    // buffer of sealed records.
    let payload = vec![0x5A_u8; 2_048];
    let mut run: Vec<u8> = Vec::with_capacity(64 * 1024);
    for _ in 0..16 {
        session.seal_app_data_into(&payload, &mut run).unwrap();
    }
    assert!(run.len() < run.capacity(), "warm-up must fit the buffer");
    run.clear();

    let ((), allocs) = measure(|| {
        for _ in 0..16 {
            session.seal_app_data_into(&payload, &mut run).unwrap();
        }
    });
    assert!(!run.is_empty());
    assert_eq!(
        allocs, 0,
        "sealing a run of records into a warm buffer must not allocate"
    );

    // The same run through the gather seal, as the pump seals split DATA.
    let header = [0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01];
    run.clear();
    let ((), allocs) = measure(|| {
        for _ in 0..16 {
            session
                .seal_app_data_parts_into(&[&header, &payload, &[]], &mut run)
                .unwrap();
        }
    });
    assert!(!run.is_empty());
    assert_eq!(
        allocs, 0,
        "gather-sealing a run of frames into a warm buffer must not allocate"
    );
}
