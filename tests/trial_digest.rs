//! Known-answer digests of paper trials.
//!
//! Each digest folds what an exhibit reads from one trial: the TLS records
//! the gateway capture extracted (time, direction, type, wire length,
//! stream offset) and its packet count, every request outcome, the
//! minimum degree of multiplexing of the nine objects of interest, and
//! the retransmission total. The values were recorded from the
//! single-pair driver before the pair runs moved onto the host arena, so
//! a change of when a core is pumped, of an RNG draw or of a scheduling
//! order fails here, not only in `scripts/check_golden.sh`.

use h2priv::attack::experiment::{objects_of_interest, run_paper_trial, AttackTrial};
use h2priv::attack::AttackConfig;
use h2priv_defense::DefenseSpec;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn digest(trial: &AttackTrial) -> u64 {
    let r = &trial.result;
    let mut d = Digest(0xCBF2_9CE4_8422_2325);
    d.word(r.trace.len() as u64);
    for rec in h2priv::analysis::extract_records(&r.trace) {
        d.word(rec.time.as_nanos());
        d.word(rec.dir.index() as u64);
        d.word(u64::from(rec.content_type.as_u8()));
        d.word(rec.wire_len as u64);
        d.word(rec.stream_offset);
    }
    for o in &r.outcomes {
        d.word(u64::from(o.object.0));
        d.word(o.issued_at.len() as u64);
        o.issued_at.iter().for_each(|t| d.word(t.as_nanos()));
        d.word(o.completed_at.map_or(u64::MAX, |t| t.as_nanos()));
        d.word(o.bytes);
        d.word(u64::from(o.resets_sent));
        d.word(u64::from(o.failed));
    }
    for object in objects_of_interest(&trial.iw) {
        d.word(
            r.truth
                .min_degree_for(object)
                .map_or(u64::MAX, f64::to_bits),
        );
    }
    d.word(r.total_retransmissions());
    d.0
}

/// The digests of trial seeds `1 << 32 | 1..=3` under `attack` and
/// `defense`, oracle off (the benches' default).
fn digests(attack: Option<&AttackConfig>, defense: DefenseSpec) -> [u64; 3] {
    [1, 2, 3].map(|i| {
        digest(&run_paper_trial(1 << 32 | i, attack, |cfg| {
            cfg.conformance = false;
            cfg.defense = defense;
        }))
    })
}

#[test]
fn undefended_unattacked_trials_match_their_digests() {
    assert_eq!(
        digests(None, DefenseSpec::None),
        [
            0xEBA5_BD6A_0ABA_C355,
            0xF8C4_C5A7_586B_B065,
            0x557A_F888_5DF6_D303
        ]
    );
}

#[test]
fn paper_attack_trials_match_their_digests() {
    assert_eq!(
        digests(Some(&AttackConfig::paper_attack()), DefenseSpec::None),
        [
            0x96C6_4211_5EC7_4508,
            0x5AE8_D662_C667_7BA0,
            0x80B3_ED1E_59D8_18D4
        ]
    );
}

#[test]
fn constant_rate_defended_attack_trials_match_their_digests() {
    let constant_rate = DefenseSpec::ConstantRate { interval_us: 2_000 };
    assert_eq!(
        digests(Some(&AttackConfig::paper_attack()), constant_rate),
        [
            0x1053_9EEE_33FE_4AE6,
            0x8902_1BC9_BD98_A846,
            0xFEB2_B81F_F6DF_5747
        ]
    );
}
