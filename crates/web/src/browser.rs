//! The browser model: issues requests per a [`BrowsePlan`], tracks response
//! progress, and — critically for §IV-D — resets and re-issues stalled
//! streams the way the paper observed Firefox doing ("After Stream Reset,
//! the client resends GET requests if a high priority object is not yet
//! received").
//!
//! Sans-everything: the browser is a state machine the host drives with
//! events and polls for commands; it touches neither sockets nor the
//! HTTP/2 connection directly.
//!
//! The host asks for [`Browser::next_wakeup`] and [`Browser::is_done`]
//! and polls [`Browser::poll_cmds`] after every pump, far more often than
//! any request changes state. So the browser keeps both answers, computed
//! by one scan over its requests, until a mutation that can move them:
//! [`start`](Browser::start), [`note_stream`](Browser::note_stream),
//! [`on_headers`](Browser::on_headers), an
//! [`on_data`](Browser::on_data) that records progress or completes a
//! request, [`on_reset`](Browser::on_reset),
//! [`on_connection_dead`](Browser::on_connection_dead), and a poll that
//! does work. A poll returns at once, without a scan, when `now` is
//! before the kept wakeup and no start, completion or failure has
//! happened since the phase triggers last ran. Debug builds check every
//! kept answer and every early return against a full scan.

use std::cell::Cell;

use h2priv_bytes::FxHashMap;

use h2priv_http2::StreamId;
use h2priv_netsim::{SimDuration, SimRng, SimTime};

use crate::object::ObjectId;
use crate::plan::{BrowsePlan, Trigger};
use crate::site::Website;

/// Browser tuning knobs.
#[derive(Debug, Clone)]
pub struct BrowserConfig {
    /// How long a response may go without progress before the browser
    /// resets its stream. The paper's forced reset arrives through this
    /// path: the adversary drops server→client packets until the stall
    /// timeout fires (§IV-D "We continue the packet drops for 6 seconds
    /// until the client sends stream reset").
    pub stall_timeout: SimDuration,
    /// Re-issue the GET on a new stream after resetting a stalled one.
    pub reissue_on_stall: bool,
    /// Total attempts per object (first issue + re-issues).
    pub max_attempts: u32,
    /// Multiplicative noise on gaps: each gap is scaled by a uniform draw
    /// from `[1 - frac, 1 + frac]`. Proportional, so the micro-gaps between
    /// scripted image requests stay microscopic while think-time gaps vary
    /// by hundreds of milliseconds.
    pub gap_noise_frac: f64,
    /// Bytes that must accumulate within one stall window to count as
    /// *progress*; together with [`stall_timeout`](Self::stall_timeout)
    /// this is a minimum-goodput floor (default ≈ 100 KB/s). A response
    /// crawling below it — TCP loss-recovery trickle under the adversary's
    /// 80 % drop window — is treated as stalled and reset, matching the
    /// paper's observation that sustained drops reliably drive the client
    /// to "reset all the ongoing HTTP/2 streams" (§IV-D).
    pub progress_quantum: u64,
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig {
            stall_timeout: SimDuration::from_secs(3),
            reissue_on_stall: true,
            max_attempts: 3,
            gap_noise_frac: 0.0,
            progress_quantum: 512 * 1024,
        }
    }
}

/// Commands the browser asks its host to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrowserCmd {
    /// Open a stream with a GET for `path`; the host must call
    /// [`Browser::note_stream`] with the allocated id.
    SendRequest {
        /// Token identifying the logical request.
        req: usize,
        /// Request path.
        path: String,
        /// The object being fetched.
        object: ObjectId,
    },
    /// Send RST_STREAM (CANCEL) for a stalled stream.
    ResetStream {
        /// The stream to reset.
        stream: StreamId,
    },
}

/// Final per-request record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The object requested.
    pub object: ObjectId,
    /// When each attempt's GET was issued.
    pub issued_at: Vec<SimTime>,
    /// When the object completed, if it did.
    pub completed_at: Option<SimTime>,
    /// Body bytes received.
    pub bytes: u64,
    /// Streams reset by the browser for this request.
    pub resets_sent: u32,
    /// True if the object was abandoned.
    pub failed: bool,
}

#[derive(Debug)]
struct ReqState {
    object: ObjectId,
    path: String,
    reissue: bool,
    due: SimTime,
    issued: bool,
    stream: Option<StreamId>,
    last_progress: SimTime,
    /// Bytes received since `last_progress` was refreshed.
    progress_accum: u64,
    bytes: u64,
    complete: bool,
    failed: bool,
    attempts: u32,
    issued_at: Vec<SimTime>,
    completed_at: Option<SimTime>,
    resets_sent: u32,
}

impl ReqState {
    /// Readies the request for a fresh attempt due at `now`, dropping
    /// the stream and whatever the abandoned attempt received.
    fn restart(&mut self, now: SimTime) {
        self.stream = None;
        self.issued = false;
        self.due = now;
        self.last_progress = now;
        self.progress_accum = 0;
        self.bytes = 0;
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseProgress {
    Pending,
    Scheduled,
    Cancelled,
}

/// The answers of [`Browser::next_wakeup`] and [`Browser::is_done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kept {
    wakeup: Option<SimTime>,
    done: bool,
}

/// The browser state machine.
#[derive(Debug)]
pub struct Browser {
    config: BrowserConfig,
    plan: BrowsePlan,
    paths: Vec<String>,
    requests: Vec<ReqState>,
    phase_progress: Vec<PhaseProgress>,
    by_stream: FxHashMap<StreamId, usize>,
    completed: FxHashMap<ObjectId, SimTime>,
    started_at: Option<SimTime>,
    connection_dead: bool,
    rng: SimRng,
    /// The answers as of the last scan; `None` after a mutation that can
    /// move them, until the next query scans again.
    kept: Cell<Option<Kept>>,
    /// A start, completion or failure has happened since
    /// [`trigger_phases`](Self::trigger_phases) last ran, or a phase's
    /// fire time was still ahead when it did.
    triggers_pending: bool,
}

impl Browser {
    /// Creates a browser for `plan` against `site`.
    ///
    /// # Panics
    ///
    /// Panics if the plan references an object the site does not have.
    pub fn new(site: &Website, plan: BrowsePlan, config: BrowserConfig, rng: SimRng) -> Self {
        let paths = site
            .objects()
            .iter()
            .map(|o| o.path.clone())
            .collect::<Vec<_>>();
        for object in plan.objects() {
            assert!(
                site.object(object).is_some(),
                "plan references unknown {object}"
            );
        }
        let phase_progress = vec![PhaseProgress::Pending; plan.phases.len()];
        Browser {
            config,
            plan,
            paths,
            requests: Vec::new(),
            phase_progress,
            by_stream: FxHashMap::default(),
            completed: FxHashMap::default(),
            started_at: None,
            connection_dead: false,
            rng,
            kept: Cell::new(None),
            triggers_pending: false,
        }
    }

    /// Marks the session start (connection established).
    pub fn start(&mut self, now: SimTime) {
        self.started_at = Some(now);
        self.triggers_pending = true;
        self.kept.set(None);
    }

    /// The host reports the stream allocated for a
    /// [`BrowserCmd::SendRequest`].
    pub fn note_stream(&mut self, req: usize, stream: StreamId) {
        self.requests[req].stream = Some(stream);
        self.by_stream.insert(stream, req);
        self.kept.set(None);
    }

    /// Response headers arrived on a stream.
    pub fn on_headers(&mut self, stream: StreamId, now: SimTime) {
        if let Some(&req) = self.by_stream.get(&stream) {
            self.requests[req].last_progress = now;
            self.kept.set(None);
        }
    }

    /// Body bytes arrived on a stream.
    pub fn on_data(&mut self, stream: StreamId, len: usize, end_stream: bool, now: SimTime) {
        let Some(&req) = self.by_stream.get(&stream) else {
            return;
        };
        let r = &mut self.requests[req];
        if r.complete || r.failed {
            return;
        }
        r.bytes += len as u64;
        r.progress_accum += len as u64;
        if r.progress_accum >= self.config.progress_quantum {
            r.progress_accum = 0;
            r.last_progress = now;
            self.kept.set(None);
        }
        if end_stream {
            r.complete = true;
            r.completed_at = Some(now);
            self.completed.insert(r.object, now);
            self.triggers_pending = true;
            self.kept.set(None);
        }
    }

    /// The server reset a stream: an unfinished request starts over, as
    /// after a stall.
    pub fn on_reset(&mut self, stream: StreamId, now: SimTime) {
        let Some(req) = self.by_stream.remove(&stream) else {
            return;
        };
        let r = &mut self.requests[req];
        if !r.complete && !r.failed {
            r.restart(now);
            self.kept.set(None);
        }
    }

    /// The transport died: everything incomplete fails.
    pub fn on_connection_dead(&mut self, _now: SimTime) {
        self.connection_dead = true;
        for r in &mut self.requests {
            if !r.complete {
                r.failed = true;
            }
        }
        self.kept.set(None);
    }

    /// The earliest instant at which the browser needs to act, if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.kept().wakeup
    }

    /// True when every planned request has completed or failed and no phase
    /// can still fire.
    pub fn is_done(&self) -> bool {
        self.kept().done
    }

    /// The kept answers, scanning first if a mutation dropped them.
    fn kept(&self) -> Kept {
        match self.kept.get() {
            Some(kept) => {
                debug_assert_eq!(kept, self.scan(), "kept answers went stale");
                kept
            }
            None => {
                let kept = self.scan();
                self.kept.set(Some(kept));
                kept
            }
        }
    }

    /// Computes the wakeup and doneness from every request and phase.
    fn scan(&self) -> Kept {
        if self.connection_dead {
            return Kept {
                wakeup: None,
                done: true,
            };
        }
        let mut wakeup: Option<SimTime> = None;
        let mut open = false;
        for r in &self.requests {
            if r.failed || r.complete {
                continue;
            }
            open = true;
            let at = if !r.issued {
                r.due
            } else if r.stream.is_some() {
                r.last_progress + self.config.stall_timeout
            } else {
                continue;
            };
            wakeup = Some(wakeup.map_or(at, |w| w.min(at)));
        }
        let done = !open
            && (self
                .phase_progress
                .iter()
                .all(|p| *p != PhaseProgress::Pending)
                || self.no_pending_phase_can_fire());
        Kept { wakeup, done }
    }

    /// Advances the state machine and returns commands due at `now`.
    pub fn poll_cmds(&mut self, now: SimTime) -> Vec<BrowserCmd> {
        if self.connection_dead || self.started_at.is_none() {
            return Vec::new();
        }
        if !self.triggers_pending && self.next_wakeup().is_none_or(|at| now < at) {
            debug_assert!(self.idle_at(now), "early return with work due");
            return Vec::new();
        }
        let mut cmds = Vec::new();
        self.trigger_phases(now);
        self.check_stalls(now, &mut cmds);
        self.issue_due(now, &mut cmds);
        self.kept.set(None);
        cmds
    }

    /// Whether a full poll at `now` would find nothing to do: no request
    /// due, none stalled, and no pending phase whose trigger has
    /// completed or failed. Backs the debug check of the early return.
    fn idle_at(&self, now: SimTime) -> bool {
        let requests_idle = self.requests.iter().all(|r| {
            r.complete
                || r.failed
                || if r.issued {
                    r.stream.is_none()
                        || now.saturating_since(r.last_progress) < self.config.stall_timeout
                } else {
                    r.due > now
                }
        });
        let phases_idle = self
            .phase_progress
            .iter()
            .zip(&self.plan.phases)
            .all(|(p, phase)| {
                *p != PhaseProgress::Pending
                    || matches!(phase.trigger, Trigger::AfterComplete(object)
                        if !self.completed.contains_key(&object) && !self.object_failed(object))
            });
        requests_idle && phases_idle
    }

    fn trigger_phases(&mut self, now: SimTime) {
        let started_at = self.started_at.expect("started");
        self.triggers_pending = false;
        for i in 0..self.plan.phases.len() {
            if self.phase_progress[i] != PhaseProgress::Pending {
                continue;
            }
            let fire = match self.plan.phases[i].trigger {
                Trigger::Start => Some(started_at),
                Trigger::AfterComplete(object) => {
                    if let Some(&at) = self.completed.get(&object) {
                        Some(at)
                    } else if self.object_failed(object) {
                        self.phase_progress[i] = PhaseProgress::Cancelled;
                        continue;
                    } else {
                        None
                    }
                }
            };
            let Some(fire) = fire else { continue };
            if fire > now {
                self.triggers_pending = true;
                continue;
            }
            self.phase_progress[i] = PhaseProgress::Scheduled;
            let mut due = fire + self.plan.phases[i].delay;
            let steps = self.plan.phases[i].steps.clone();
            for step in steps {
                let frac = self.config.gap_noise_frac.clamp(0.0, 1.0);
                let scale = 1.0 - frac + 2.0 * frac * self.rng.gen_unit_f64();
                due += step.gap.mul_f64(scale);
                let path = self.paths[step.object.0 as usize].clone();
                let reissue = self.plan.phases[i].reissue;
                self.requests.push(ReqState {
                    object: step.object,
                    path,
                    reissue,
                    due,
                    issued: false,
                    stream: None,
                    last_progress: due,
                    progress_accum: 0,
                    bytes: 0,
                    complete: false,
                    failed: false,
                    attempts: 0,
                    issued_at: Vec::new(),
                    completed_at: None,
                    resets_sent: 0,
                });
            }
        }
    }

    fn object_failed(&self, object: ObjectId) -> bool {
        self.requests.iter().any(|r| r.object == object && r.failed)
    }

    fn check_stalls(&mut self, now: SimTime, cmds: &mut Vec<BrowserCmd>) {
        for req in 0..self.requests.len() {
            let r = &mut self.requests[req];
            if r.complete || r.failed || !r.issued {
                continue;
            }
            let Some(stream) = r.stream else { continue };
            if now.saturating_since(r.last_progress) < self.config.stall_timeout {
                continue;
            }
            // Stalled: reset, then maybe retry.
            r.resets_sent += 1;
            cmds.push(BrowserCmd::ResetStream { stream });
            self.by_stream.remove(&stream);
            let r = &mut self.requests[req];
            r.stream = None;
            if self.config.reissue_on_stall && r.reissue && r.attempts < self.config.max_attempts {
                r.restart(now);
            } else {
                r.failed = true;
                self.triggers_pending = true;
            }
        }
    }

    fn issue_due(&mut self, now: SimTime, cmds: &mut Vec<BrowserCmd>) {
        for req in 0..self.requests.len() {
            let r = &mut self.requests[req];
            if r.issued || r.complete || r.failed || r.due > now {
                continue;
            }
            if r.attempts >= self.config.max_attempts {
                r.failed = true;
                self.triggers_pending = true;
                continue;
            }
            r.issued = true;
            r.attempts += 1;
            r.issued_at.push(now);
            r.last_progress = now;
            cmds.push(BrowserCmd::SendRequest {
                req,
                path: r.path.clone(),
                object: r.object,
            });
        }
    }

    fn no_pending_phase_can_fire(&self) -> bool {
        self.phase_progress
            .iter()
            .zip(&self.plan.phases)
            .filter(|(p, _)| **p == PhaseProgress::Pending)
            .all(|(_, phase)| match phase.trigger {
                Trigger::Start => false,
                Trigger::AfterComplete(object) => self.object_failed(object),
            })
    }

    /// Final per-request outcomes, in issue-plan order.
    pub fn outcomes(&self) -> Vec<RequestOutcome> {
        self.requests
            .iter()
            .map(|r| RequestOutcome {
                object: r.object,
                issued_at: r.issued_at.clone(),
                completed_at: r.completed_at,
                bytes: r.bytes,
                resets_sent: r.resets_sent,
                failed: r.failed,
            })
            .collect()
    }

    /// Whether a specific object completed.
    pub fn object_complete(&self, object: ObjectId) -> bool {
        self.completed.contains_key(&object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;
    use crate::plan::{Phase, PlanStep};

    fn site2() -> Website {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Html, 1000);
        site.add("/b", ObjectKind::Image, 2000);
        site
    }

    fn plan2() -> BrowsePlan {
        BrowsePlan::new()
            .with_phase(Phase {
                trigger: Trigger::Start,
                delay: SimDuration::ZERO,
                steps: vec![PlanStep {
                    object: ObjectId(0),
                    gap: SimDuration::ZERO,
                }],
                reissue: true,
            })
            .with_phase(Phase {
                trigger: Trigger::AfterComplete(ObjectId(0)),
                delay: SimDuration::from_millis(10),
                steps: vec![PlanStep {
                    object: ObjectId(1),
                    gap: SimDuration::ZERO,
                }],
                reissue: true,
            })
    }

    fn browser() -> Browser {
        Browser::new(
            &site2(),
            plan2(),
            BrowserConfig::default(),
            SimRng::seed_from(1),
        )
    }

    #[test]
    fn issues_start_phase_immediately() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        assert_eq!(cmds.len(), 1);
        assert!(matches!(
            &cmds[0],
            BrowserCmd::SendRequest { path, object, .. }
                if path == "/a" && *object == ObjectId(0)
        ));
    }

    #[test]
    fn dependent_phase_waits_for_completion() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        let req = match &cmds[0] {
            BrowserCmd::SendRequest { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        b.note_stream(req, StreamId(1));
        // Nothing due before /a completes.
        assert!(b.poll_cmds(SimTime::from_millis(100)).is_empty());
        b.on_data(StreamId(1), 1000, true, SimTime::from_millis(200));
        // The dependent request fires 10 ms after completion.
        assert!(b.poll_cmds(SimTime::from_millis(205)).is_empty());
        let cmds = b.poll_cmds(SimTime::from_millis(210));
        assert_eq!(cmds.len(), 1);
        assert!(matches!(
            &cmds[0],
            BrowserCmd::SendRequest { path, .. } if path == "/b"
        ));
    }

    #[test]
    fn a_phase_due_after_the_poll_stays_pending() {
        let mut b = browser();
        b.start(SimTime::from_millis(10));
        assert!(b.poll_cmds(SimTime::from_millis(5)).is_empty());
        assert_eq!(b.poll_cmds(SimTime::from_millis(10)).len(), 1);
    }

    #[test]
    fn stall_resets_and_reissues() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        let req = match &cmds[0] {
            BrowserCmd::SendRequest { req, .. } => *req,
            other => panic!("unexpected {other:?}"),
        };
        b.note_stream(req, StreamId(1));
        // Some progress at t=1s, then silence past the 3 s stall timeout.
        b.on_data(StreamId(1), 100, false, SimTime::from_secs(1));
        let cmds = b.poll_cmds(SimTime::from_secs(5));
        assert_eq!(cmds.len(), 2);
        assert_eq!(
            cmds[0],
            BrowserCmd::ResetStream {
                stream: StreamId(1)
            }
        );
        assert!(matches!(
            &cmds[1],
            BrowserCmd::SendRequest { path, .. } if path == "/a"
        ));
        let outcome = &b.outcomes()[0];
        assert_eq!(outcome.resets_sent, 1);
        assert_eq!(outcome.issued_at.len(), 2);
    }

    #[test]
    fn attempts_are_bounded() {
        let mut b = Browser::new(
            &site2(),
            plan2(),
            BrowserConfig {
                max_attempts: 2,
                ..BrowserConfig::default()
            },
            SimRng::seed_from(1),
        );
        b.start(SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut stream = 1;
        for _ in 0..4 {
            let cmds = b.poll_cmds(now);
            for cmd in cmds {
                if let BrowserCmd::SendRequest { req, .. } = cmd {
                    b.note_stream(req, StreamId(stream));
                    stream += 2;
                }
            }
            now += SimDuration::from_secs(10);
        }
        let outcome = &b.outcomes()[0];
        assert!(outcome.failed);
        assert_eq!(outcome.issued_at.len(), 2);
        // Phase 2 is cancelled because its trigger failed.
        assert!(b.is_done());
    }

    #[test]
    fn reissue_disabled_fails_on_stall() {
        let mut b = Browser::new(
            &site2(),
            plan2(),
            BrowserConfig {
                reissue_on_stall: false,
                ..BrowserConfig::default()
            },
            SimRng::seed_from(1),
        );
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(1));
        }
        let cmds = b.poll_cmds(SimTime::from_secs(10));
        assert_eq!(cmds.len(), 1); // reset only, no re-request
        assert!(b.outcomes()[0].failed);
    }

    #[test]
    fn completion_flow_and_done() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(1));
        }
        b.on_headers(StreamId(1), SimTime::from_millis(50));
        b.on_data(StreamId(1), 500, false, SimTime::from_millis(60));
        b.on_data(StreamId(1), 500, true, SimTime::from_millis(70));
        assert!(b.object_complete(ObjectId(0)));
        assert!(!b.is_done());
        let cmds = b.poll_cmds(SimTime::from_millis(100));
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(3));
        }
        b.on_data(StreamId(3), 2000, true, SimTime::from_millis(200));
        assert!(b.is_done());
        let outcomes = b.outcomes();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| !o.failed));
        assert_eq!(outcomes[1].bytes, 2000);
    }

    #[test]
    fn server_reset_triggers_retry() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(1));
        }
        b.on_reset(StreamId(1), SimTime::from_millis(10));
        let cmds = b.poll_cmds(SimTime::from_millis(10));
        assert!(matches!(&cmds[0], BrowserCmd::SendRequest { path, .. } if path == "/a"));
    }

    #[test]
    fn server_reset_restarts_the_byte_count() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(1));
        }
        b.on_data(StreamId(1), 100, false, SimTime::from_millis(5));
        b.on_reset(StreamId(1), SimTime::from_millis(10));
        let cmds = b.poll_cmds(SimTime::from_millis(10));
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(3));
        }
        // Late bytes on the reset stream belong to no attempt.
        b.on_data(StreamId(1), 50, false, SimTime::from_millis(12));
        b.on_data(StreamId(3), 1000, true, SimTime::from_millis(20));
        let outcome = &b.outcomes()[0];
        assert_eq!(outcome.bytes, 1000);
        assert_eq!(outcome.issued_at.len(), 2);
        assert_eq!(outcome.completed_at, Some(SimTime::from_millis(20)));
    }

    #[test]
    fn connection_death_fails_everything() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        b.poll_cmds(SimTime::ZERO);
        b.on_connection_dead(SimTime::from_millis(5));
        assert!(b.is_done());
        assert!(b.outcomes()[0].failed);
        assert_eq!(b.next_wakeup(), None);
    }

    #[test]
    fn next_wakeup_tracks_due_and_stalls() {
        let mut b = browser();
        b.start(SimTime::ZERO);
        let cmds = b.poll_cmds(SimTime::ZERO);
        if let BrowserCmd::SendRequest { req, .. } = &cmds[0] {
            b.note_stream(*req, StreamId(1));
        }
        // In-flight request: wakeup is the stall deadline.
        assert_eq!(
            b.next_wakeup(),
            Some(SimTime::ZERO + SimDuration::from_secs(3))
        );
    }
}
