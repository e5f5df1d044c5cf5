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
