//! Properties of the fleet's one result fold, [`merge_shards`] over
//! [`ShardResult::merge`]: 1–8 synthetic shard results merge to their
//! counts and peaks summed, in any finish order and any grouping.

use h2priv_analysis::{GroundTruth, WireTrace};
use h2priv_netsim::prop::{self, Gen};
use h2priv_netsim::{SchedStats, SimTime};
use h2priv_testkit::fleet::{merge_shards, ShardResult, VictimCapture};
use h2priv_web::PoolStats;

/// Shard `shard`'s synthetic result. Each count and peak is a distinct
/// multiple of `n`, so two results add exactly when their `n`s do, and a
/// merge that mixed up two fields would show.
fn synthetic(shard: u32, n: u32, pool: bool, victim: bool) -> ShardResult {
    let m = u64::from(n);
    ShardResult {
        shard,
        pairs: n,
        events: 2 * m,
        shard_events: vec![2 * m],
        end_time: SimTime::from_micros(m),
        sched: SchedStats {
            near_inserts: 3 * m,
            far_inserts: 4 * m,
            promotions: 5 * m,
            rebases: 6 * m,
            peak_near: 7 * m,
            peak_overflow: 8 * m,
        },
        completed: 9 * n,
        broken: 10 * n,
        requests: 11 * m,
        requests_complete: 12 * m,
        victim: victim.then(|| VictimCapture {
            golden_order: vec![shard as usize],
            trace: WireTrace::new(),
            truth: GroundTruth::new(),
            outcomes: Vec::new(),
            broken: false,
        }),
        violations_total: 13 * m,
        attackers: 14 * n,
        attackers_shed: 15 * n,
        detected: 16 * n,
        detection_latency_us: 17 * m,
        benign_alerts: 18 * m,
        peak_resident: 19 * n,
        stray_segments: 20 * m,
        pool: pool.then_some(PoolStats {
            admitted: 21 * m,
            parked: 22 * m,
            settings_processed: 23 * m,
            parser_holds: 24 * m,
        }),
        ..ShardResult::default()
    }
}

/// 1–8 shards in shard order, the victim in at most one of them, and
/// their merge: counts and peaks summed (the pool's over the shards that
/// ran one), shard event counts in shard order, the latest end time.
fn fleet(g: &mut Gen) -> (Vec<ShardResult>, ShardResult) {
    let shards = g.range(1u32..=8);
    let victim = g.range(0..=shards); // `shards`: no shard holds it
    let results: Vec<ShardResult> = (0..shards)
        .map(|shard| synthetic(shard, g.range(1..1 << 16), g.bool(), shard == victim))
        .collect();
    let pooled: Vec<u32> = results
        .iter()
        .filter(|r| r.pool.is_some())
        .map(|r| r.pairs)
        .collect();
    let expected = ShardResult {
        shard_events: results.iter().map(|r| r.events).collect(),
        end_time: results.iter().map(|r| r.end_time).max().expect("a shard"),
        victim: results.iter().find_map(|r| r.victim.clone()),
        pool: synthetic(0, pooled.iter().sum(), !pooled.is_empty(), false).pool,
        ..synthetic(0, results.iter().map(|r| r.pairs).sum(), false, false)
    };
    (results, expected)
}

/// Whatever order the shards finish in, the merge sums them in shard
/// order.
#[test]
fn merge_sums_in_shard_order_for_any_finish_order() {
    prop::check("merge_sums_in_shard_order_for_any_finish_order", 256, |g| {
        let (results, expected) = fleet(g);
        let finished = g.permutation(results.len());
        let finished = finished.into_iter().map(|i| results[i].clone()).collect();
        let merged = merge_shards(expected.pairs, results.len() as u32, finished);
        assert_eq!(format!("{merged:?}"), format!("{expected:?}"));
    });
}

/// Merging contiguous groups of shards first, then the groups, gives the
/// same result as merging them all at once.
#[test]
fn merge_of_merged_groups_is_the_whole_merge() {
    prop::check("merge_of_merged_groups_is_the_whole_merge", 256, |g| {
        let (mut rest, expected) = fleet(g);
        let mut whole = ShardResult::default();
        while !rest.is_empty() {
            let tail = rest.split_off(g.range(1..=rest.len()));
            let mut group = ShardResult::default();
            rest.into_iter().for_each(|r| group.merge(r));
            whole.merge(group);
            rest = tail;
        }
        assert_eq!(format!("{whole:?}"), format!("{expected:?}"));
    });
}

#[test]
#[should_panic(expected = "merging shards [0, 2], not each of 0..3 once")]
fn merging_with_a_shard_missing_panics() {
    let results = [0, 2].map(|shard| synthetic(shard, 1, false, false));
    merge_shards(2, 3, results.to_vec());
}
