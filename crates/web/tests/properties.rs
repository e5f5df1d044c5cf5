//! Properties of the web model: the browser's schedule and byte accounting
//! under arbitrary plans, and the isidewith site's structure for every
//! survey outcome.

use h2priv_http2::StreamId;
use h2priv_netsim::prop;
use h2priv_netsim::{SimDuration, SimRng, SimTime};
use h2priv_web::{
    isidewith, BrowsePlan, Browser, BrowserCmd, BrowserConfig, ObjectId, ObjectKind, Phase,
    PlanStep, Trigger, Website,
};

/// The isidewith scenario holds its paper-pinned structure for every
/// survey outcome.
#[test]
fn isidewith_structure_for_any_outcome() {
    prop::check("isidewith_structure_for_any_outcome", 64, |g| {
        let order = g.permutation(8);
        let iw = isidewith::build(&order);
        assert_eq!(iw.site.len(), 53);
        assert_eq!(iw.plan.request_count(), 53);
        assert_eq!(iw.plan.request_index(iw.html), Some(5));
        // The images are requested exactly in the golden order.
        let requested: Vec<ObjectId> = iw.plan.phases[3].steps[..8]
            .iter()
            .map(|s| s.object)
            .collect();
        let expected: Vec<ObjectId> = order.iter().map(|&p| iw.images[p]).collect();
        assert_eq!(requested, expected);
        // Every image size is unique and in the paper's 5–16 KB band.
        let sizes: Vec<usize> = iw
            .images
            .iter()
            .map(|&img| iw.site.object(img).unwrap().size)
            .collect();
        for (i, size) in sizes.iter().enumerate() {
            assert!((5_000..=16_000).contains(size), "image size {size}");
            assert!(
                !sizes[i + 1..].contains(size),
                "duplicate image size {size}"
            );
        }
    });
}

/// A one-phase plan fetching objects of `size` bytes `gaps_ms` apart.
fn plan_with_gaps(gaps_ms: &[u64], size: usize) -> (Website, BrowsePlan) {
    let mut site = Website::new();
    let steps = gaps_ms
        .iter()
        .enumerate()
        .map(|(i, &gap)| PlanStep {
            object: site.add(format!("/o{i}"), ObjectKind::Other, size),
            gap: SimDuration::from_millis(gap),
        })
        .collect();
    let plan = BrowsePlan::new().with_phase(Phase {
        trigger: Trigger::Start,
        delay: SimDuration::ZERO,
        steps,
        reissue: true,
    });
    (site, plan)
}

/// Without noise, the requests of a Start phase are issued in order with
/// exactly the planned cumulative gaps.
fn check_planned_schedule(gaps_ms: &[u64]) {
    let (site, plan) = plan_with_gaps(gaps_ms, 100);
    let config = BrowserConfig {
        // The fixture never completes responses; stalls must not fire.
        stall_timeout: SimDuration::from_secs(10_000),
        ..BrowserConfig::default()
    };
    let mut browser = Browser::new(&site, plan, config, SimRng::seed_from(1));
    browser.start(SimTime::ZERO);
    // Walk wakeups until all requests are issued.
    let mut issued: Vec<SimTime> = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..100 {
        for cmd in browser.poll_cmds(now) {
            if let BrowserCmd::SendRequest { req, .. } = cmd {
                browser.note_stream(req, StreamId(1 + 2 * issued.len() as u32));
                issued.push(now);
            }
        }
        match browser.next_wakeup() {
            Some(t) if issued.len() < gaps_ms.len() => now = t.max(now),
            _ => break,
        }
    }
    let expected: Vec<SimTime> = gaps_ms
        .iter()
        .scan(SimTime::ZERO, |at, &gap| {
            *at += SimDuration::from_millis(gap);
            Some(*at)
        })
        .collect();
    assert_eq!(issued, expected);
}

#[test]
fn browser_issues_planned_schedule() {
    prop::check("browser_issues_planned_schedule", 64, |g| {
        check_planned_schedule(&g.vec(1..12, |g| g.range(0u64..500)));
    });
}

/// An input an earlier randomized sweep of this property recorded as
/// failing; it passes and stays pinned.
#[test]
fn browser_issues_planned_schedule_recorded_case() {
    check_planned_schedule(&[0, 300, 402, 323, 427, 355, 237, 401, 70, 485]);
}

/// Outcome accounting: bytes reported per request equal bytes fed in, and
/// the request completes exactly at END_STREAM.
#[test]
fn browser_accounts_bytes() {
    prop::check("browser_accounts_bytes", 64, |g| {
        let chunks = g.vec(1..10, |g| g.range(1usize..5_000));
        let total: usize = chunks.iter().sum();
        let (site, plan) = plan_with_gaps(&[0], total);
        let mut browser = Browser::new(&site, plan, BrowserConfig::default(), SimRng::seed_from(1));
        browser.start(SimTime::ZERO);
        let req = match &browser.poll_cmds(SimTime::ZERO)[0] {
            BrowserCmd::SendRequest { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        browser.note_stream(req, StreamId(1));
        for (t, (i, &c)) in (1u64..).zip(chunks.iter().enumerate()) {
            let last = i == chunks.len() - 1;
            browser.on_data(StreamId(1), c, last, SimTime::from_millis(t));
            assert_eq!(browser.is_done(), last);
        }
        let outcome = &browser.outcomes()[0];
        assert_eq!(outcome.bytes as usize, total);
        assert!(!outcome.failed);
    });
}

/// Random drives through start, streams, headers, data, server resets,
/// stalls, re-issues, failures and connection death, at non-decreasing
/// times. In debug builds every `next_wakeup`, `is_done` and early
/// `poll_cmds` return checks the browser's kept answers against a full
/// scan; the drive itself checks that a finished browser wants no wakeup,
/// that it only resets streams it opened, and that a completed request
/// counts the bytes of its last attempt alone.
#[test]
fn browser_kept_answers_match_scans() {
    prop::check("browser_kept_answers_match_scans", 256, |g| {
        let mut site = Website::new();
        let objects: Vec<ObjectId> = (0..5)
            .map(|i| site.add(format!("/o{i}"), ObjectKind::Other, 1000))
            .collect();
        let mut phase = |trigger, objects: &[ObjectId]| Phase {
            trigger,
            delay: SimDuration::from_millis(g.range(0..50)),
            steps: objects
                .iter()
                .map(|&object| PlanStep {
                    object,
                    gap: SimDuration::from_millis(g.range(0..50)),
                })
                .collect(),
            reissue: g.range(0u32..4) != 0,
        };
        let plan = BrowsePlan::new()
            .with_phase(phase(Trigger::Start, &objects[..2]))
            .with_phase(phase(Trigger::AfterComplete(objects[0]), &objects[2..4]))
            .with_phase(phase(Trigger::AfterComplete(objects[2]), &objects[4..]));
        let config = BrowserConfig {
            stall_timeout: SimDuration::from_millis(g.range(1..400)),
            reissue_on_stall: g.range(0u32..4) != 0,
            max_attempts: g.range(1..=3),
            gap_noise_frac: 0.5,
            progress_quantum: g.range(1..3_000),
        };
        let mut browser = Browser::new(&site, plan, config, SimRng::seed_from(g.any()));

        let mut now = SimTime::ZERO;
        // Streams the browser noted and neither side has reset or ended,
        // with their request and the bytes fed to them so far.
        let mut open: Vec<(StreamId, usize, u64)> = Vec::new();
        let mut next_stream = 1u32;
        // Bytes each completed request's final stream carried.
        let mut completed_with: Vec<(usize, u64)> = Vec::new();
        let start_step = g.range(0u32..4);
        for step in 0..g.range(1u32..150) {
            now += SimDuration::from_millis(g.range(0..150));
            if step == start_step {
                browser.start(now);
            }
            let pick = (!open.is_empty()).then(|| g.range(0..open.len()));
            match (g.range(0u32..64), pick) {
                (0, _) => {
                    browser.on_connection_dead(now);
                    assert!(browser.is_done());
                    assert_eq!(browser.next_wakeup(), None);
                    break;
                }
                (1..=8, Some(i)) => browser.on_headers(open[i].0, now),
                (9..=28, Some(i)) => {
                    let len = g.range(1usize..1_500);
                    let end = g.range(0u32..3) == 0;
                    open[i].2 += len as u64;
                    browser.on_data(open[i].0, len, end, now);
                    if end {
                        let (_, req, fed) = open.swap_remove(i);
                        completed_with.push((req, fed));
                    }
                }
                (29..=34, Some(i)) => {
                    browser.on_reset(open[i].0, now);
                    open.swap_remove(i);
                }
                (draw, _) => {
                    // Half the polls land exactly on the wakeup, where a
                    // stall or a due request must be acted on.
                    if draw % 2 == 0 {
                        if let Some(at) = browser.next_wakeup() {
                            now = now.max(at);
                        }
                    }
                    for cmd in browser.poll_cmds(now) {
                        match cmd {
                            BrowserCmd::SendRequest { req, .. } => {
                                // A query between a poll and its stream
                                // notes must not keep a stale answer.
                                browser.next_wakeup();
                                // Now and then the host cannot open the
                                // stream, and notes none.
                                if g.range(0u32..8) != 0 {
                                    let stream = StreamId(next_stream);
                                    next_stream += 2;
                                    browser.note_stream(req, stream);
                                    open.push((stream, req, 0));
                                }
                            }
                            BrowserCmd::ResetStream { stream } => {
                                let i = open
                                    .iter()
                                    .position(|&(s, _, _)| s == stream)
                                    .expect("reset of a stream that is not open");
                                open.swap_remove(i);
                            }
                        }
                    }
                }
            }
            if browser.is_done() {
                assert_eq!(browser.next_wakeup(), None);
            }
        }
        let outcomes = browser.outcomes();
        for (req, fed) in completed_with {
            assert!(outcomes[req].completed_at.is_some());
            assert_eq!(outcomes[req].bytes, fed, "request {req}'s bytes");
        }
    });
}
