//! The website server application: request in, (possibly delayed)
//! response out.
//!
//! Each accepted request becomes a *worker* — the paper's server "thread"
//! (§IV, Fig. 3). A worker starts after a sampled service latency and then
//! hands the whole object to the HTTP/2 mux, where the connection's
//! [`SendPolicy`](h2priv_http2::SendPolicy) decides how concurrently-active
//! workers interleave. The server is deliberately stateless across requests:
//! a re-issued GET for an object already being served spawns another worker
//! serving another copy — exactly the duplicate-service behaviour the paper
//! reports under retransmitted requests (§IV-B).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use h2priv_bytes::SharedBytes;
use h2priv_http2::{HeaderField, StreamId};
use h2priv_netsim::{DurationDist, SimDuration, SimRng, SimTime};

use crate::object::ObjectId;
use crate::padset::PadSet;
use crate::site::Website;

/// Worker-pool sizing and control-plane costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Concurrent workers the pool backs. In fleet runs one pool is shared
    /// by every server of a shard, so one hostile connection's held
    /// workers starve bystander pairs — the resource coupling the
    /// slow-rate DoS literature exploits.
    pub capacity: usize,
    /// Control-plane time consumed applying one non-ACK SETTINGS frame
    /// (table resize, ACK, lock traffic — deliberately coarse). Arrivals
    /// faster than this grow the backlog without bound: the SETTINGS-flood
    /// starvation mechanism.
    pub settings_cost: SimDuration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            capacity: 16,
            settings_cost: SimDuration::from_millis(10),
        }
    }
}

/// Pool counters, reported by the `dos` exhibit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests granted a worker.
    pub admitted: u64,
    /// Requests that had to park for a free worker.
    pub parked: u64,
    /// Non-ACK SETTINGS frames billed to the control plane.
    pub settings_processed: u64,
    /// Parser threads captured by an unfinished header sequence.
    pub parser_holds: u64,
}

impl PoolStats {
    /// Adds another pool's counters to these (the fleet sums its shards'
    /// pools).
    pub fn merge(&mut self, other: &PoolStats) {
        self.admitted += other.admitted;
        self.parked += other.parked;
        self.settings_processed += other.settings_processed;
        self.parser_holds += other.parser_holds;
    }
}

/// A bounded worker pool modeling the server's thread budget, shared
/// between the servers of a shard. Request workers draw from `capacity`;
/// a connection whose frame parser is wedged mid-HEADERS-sequence *holds*
/// a thread outright (thread-per-connection semantics — the hold may
/// overdraw the pool, and everything else waits).
#[derive(Debug, Clone)]
pub struct WorkerPool {
    config: PoolConfig,
    in_use: usize,
    parser_held: usize,
    /// Control plane busy until here; no worker fires earlier.
    busy_until: SimTime,
    stats: PoolStats,
}

impl WorkerPool {
    /// Creates a pool.
    pub fn new(config: PoolConfig) -> Self {
        WorkerPool {
            config,
            in_use: 0,
            parser_held: 0,
            busy_until: SimTime::ZERO,
            stats: PoolStats::default(),
        }
    }

    /// Takes a worker if one is free.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_use + self.parser_held < self.config.capacity {
            self.in_use += 1;
            self.stats.admitted += 1;
            true
        } else {
            false
        }
    }

    /// Returns a worker.
    pub fn release(&mut self) {
        self.in_use = self.in_use.saturating_sub(1);
    }

    /// A connection's parser blocked mid-sequence: capture a thread. May
    /// overdraw `capacity` — the blocked thread is real either way.
    pub fn hold_parser(&mut self) {
        self.parser_held += 1;
        self.stats.parser_holds += 1;
    }

    /// The blocked parser came back (sequence finished or connection
    /// dropped).
    pub fn release_parser(&mut self) {
        self.parser_held = self.parser_held.saturating_sub(1);
    }

    /// Bills one non-ACK SETTINGS frame to the control plane.
    pub fn note_settings(&mut self, now: SimTime) {
        self.busy_until = self.busy_until.max(now) + self.config.settings_cost;
        self.stats.settings_processed += 1;
    }

    /// No worker output before this instant.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Workers currently out (request workers only).
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Threads captured by blocked parsers.
    pub fn parser_held(&self) -> usize {
        self.parser_held
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct SiteServerConfig {
    /// Latency between request arrival and the worker handing bytes to the
    /// mux (disk/cache/application time).
    pub worker_latency: DurationDist,
    /// Body padding: every response body is padded up to the set's
    /// canonical size ([`PadSet::pad_to`]). One size is the classic bucket
    /// countermeasure of the paper's related work (refs \[17\]–\[21\]);
    /// `h2priv-defense`'s `constrained_pad_set` derives the Reed & Reiter
    /// set (arXiv:2108.01753) that bounds the per-object overhead.
    pub pad: Option<PadSet>,
}

/// A response ready to be transmitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Stream to respond on.
    pub stream: StreamId,
    /// Response header list.
    pub headers: Vec<HeaderField>,
    /// Body bytes. Shared so handing the body to the HTTP/2 mux (and
    /// from there into DATA frames) never copies it.
    pub body: SharedBytes,
    /// The object served (`None` for 404s).
    pub object: Option<ObjectId>,
}

#[derive(Debug)]
struct Worker {
    due: SimTime,
    stream: StreamId,
    object: Option<ObjectId>,
}

/// The server application state machine.
#[derive(Debug)]
pub struct SiteServer {
    /// The site, shared: a fleet shard builds one `Rc<Website>` and every
    /// server of the shard serves from it — one copy of the object table
    /// per shard, not per pair.
    site: Rc<Website>,
    config: SiteServerConfig,
    workers: Vec<Worker>,
    requests_seen: u64,
    rng: SimRng,
    /// Worker budget, shared with the shard's other servers. `None` keeps
    /// the legacy unbounded thread-per-request behavior (and the exact
    /// schedules of every pre-existing exhibit).
    pool: Option<Rc<RefCell<WorkerPool>>>,
    /// Requests waiting for a worker, admission order.
    parked: VecDeque<(StreamId, String)>,
    /// Streams holding a pool worker until fully served (or reset).
    serving: Vec<StreamId>,
}

impl SiteServer {
    /// Creates a server for `site`. Accepts a `Website` by value (it is
    /// wrapped) or an `Rc<Website>` shared with other servers.
    pub fn new(site: impl Into<Rc<Website>>, config: SiteServerConfig, rng: SimRng) -> Self {
        SiteServer {
            site: site.into(),
            config,
            workers: Vec::new(),
            requests_seen: 0,
            rng,
            pool: None,
            parked: VecDeque::new(),
            serving: Vec::new(),
        }
    }

    /// Attaches a worker pool (shared across a shard's servers). Requests
    /// then pass deterministic admission: a free worker serves, otherwise
    /// the request parks FIFO until [`release_stream`](Self::release_stream)
    /// frees one.
    pub fn set_pool(&mut self, pool: Rc<RefCell<WorkerPool>>) {
        self.pool = Some(pool);
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&Rc<RefCell<WorkerPool>>> {
        self.pool.as_ref()
    }

    /// Requests parked for a free worker.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Streams currently holding a pool worker.
    pub fn serving(&self) -> &[StreamId] {
        &self.serving
    }

    /// The site being served.
    pub fn site(&self) -> &Website {
        &self.site
    }

    /// Total requests accepted (including duplicates).
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen
    }

    /// Accepts a request: spawns a worker (or, with a full pool attached,
    /// parks the request). Returns the time at which the worker will
    /// produce its response — `None` while parked; admission happens in
    /// [`release_stream`](Self::release_stream) and the host learns the
    /// new deadline from [`next_wakeup`](Self::next_wakeup).
    pub fn on_request(&mut self, stream: StreamId, path: &str, now: SimTime) -> Option<SimTime> {
        self.requests_seen += 1;
        if let Some(pool) = &self.pool {
            if !pool.borrow_mut().try_acquire() {
                pool.borrow_mut().stats.parked += 1;
                self.parked.push_back((stream, path.to_owned()));
                return None;
            }
            self.serving.push(stream);
        }
        Some(self.spawn_worker(stream, path, now))
    }

    fn spawn_worker(&mut self, stream: StreamId, path: &str, now: SimTime) -> SimTime {
        let object = self.site.lookup(path).map(|o| o.id);
        let due = now + self.rng.sample_duration(&self.config.worker_latency);
        self.workers.push(Worker {
            due,
            stream,
            object,
        });
        due
    }

    /// A stream was reset by the client: kill any worker still scheduled
    /// for it (data already handed to the mux is the connection's problem —
    /// it drops pending bytes on RST) and drop any parked copy.
    pub fn on_stream_reset(&mut self, stream: StreamId) {
        self.workers.retain(|w| w.stream != stream);
        self.parked.retain(|(s, _)| *s != stream);
    }

    /// A stream this server was serving is finished (fully drained, reset,
    /// or abandoned at connection teardown): return its worker to the pool
    /// and admit parked requests into the freed capacity. No-op for
    /// streams that hold no worker, so the host may call it liberally.
    pub fn release_stream(&mut self, stream: StreamId, now: SimTime) {
        let Some(pool) = self.pool.clone() else {
            return;
        };
        let Some(at) = self.serving.iter().position(|&s| s == stream) else {
            return;
        };
        self.serving.remove(at);
        pool.borrow_mut().release();
        self.admit_parked(now);
    }

    /// Admits parked requests into whatever pool capacity is currently
    /// free. Called from [`release_stream`](Self::release_stream) and by
    /// the host each pump — capacity may have been freed by *another*
    /// connection sharing the pool.
    pub fn admit_parked(&mut self, now: SimTime) {
        let Some(pool) = self.pool.clone() else {
            return;
        };
        while !self.parked.is_empty() && pool.borrow_mut().try_acquire() {
            let (stream, path) = self.parked.pop_front().expect("checked non-empty");
            self.serving.push(stream);
            self.spawn_worker(stream, &path, now);
        }
    }

    /// Connection teardown: drop every scheduled worker and parked
    /// request, and return all held workers to the pool so the shard's
    /// other connections can use them. The host calls this when the
    /// transport dies or the guard closes the connection.
    pub fn shutdown(&mut self) {
        self.workers.clear();
        self.parked.clear();
        if let Some(pool) = &self.pool {
            let mut pool = pool.borrow_mut();
            for _ in self.serving.drain(..) {
                pool.release();
            }
        } else {
            self.serving.clear();
        }
    }

    /// The earliest pending worker deadline, if any — deferred past the
    /// pool's control-plane busy horizon when one is attached.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let due = self.workers.iter().map(|w| w.due).min()?;
        Some(match &self.pool {
            Some(pool) => due.max(pool.borrow().busy_until()),
            None => due,
        })
    }

    /// Pops every response whose worker is due at `now`.
    pub fn due_responses(&mut self, now: SimTime) -> Vec<Response> {
        // A busy control plane (SETTINGS backlog) stalls every worker.
        if let Some(pool) = &self.pool {
            if pool.borrow().busy_until() > now {
                return Vec::new();
            }
        }
        // The pump probes this on every round; skip the drain/rebuild/sort
        // machinery outright when no worker is due yet.
        if !self.workers.iter().any(|w| w.due <= now) {
            return Vec::new();
        }
        let mut due = Vec::new();
        let mut remaining = Vec::new();
        for w in self.workers.drain(..) {
            if w.due <= now {
                due.push(w);
            } else {
                remaining.push(w);
            }
        }
        // Deterministic service order for same-instant workers.
        due.sort_by_key(|w| (w.due, w.stream));
        self.workers = remaining;
        due.into_iter()
            .map(|w| match w.object {
                Some(id) => {
                    let obj = self.site.object(id).expect("worker references site object");
                    // Padding rewrites the body, so the defense paths
                    // materialize their own copy; the undefended path
                    // serves the per-thread memo of the shared body as-is.
                    let body = if let Some(padded) = self
                        .config
                        .pad
                        .as_ref()
                        .map(|pad| pad.pad_to(obj.size))
                        .filter(|&p| p > obj.size)
                    {
                        let mut body = obj.body();
                        body.resize(padded, 0);
                        SharedBytes::from_vec(body)
                    } else {
                        obj.shared_body()
                    };
                    Response {
                        stream: w.stream,
                        headers: vec![
                            HeaderField::new(":status", "200"),
                            HeaderField::new("content-type", obj.kind.content_type()),
                            HeaderField::new("content-length", body.len().to_string()),
                            HeaderField::new("server", "h2priv-sim/0.1"),
                            HeaderField::new("cache-control", "no-store"),
                        ],
                        body,
                        object: Some(id),
                    }
                }
                None => Response {
                    stream: w.stream,
                    headers: vec![
                        HeaderField::new(":status", "404"),
                        HeaderField::new("content-type", "text/plain"),
                        HeaderField::new("server", "h2priv-sim/0.1"),
                    ],
                    body: SharedBytes::from(b"not found"),
                    object: None,
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ObjectKind;
    use h2priv_netsim::SimDuration;

    fn server() -> SiteServer {
        let mut site = Website::new();
        site.add("/page.html", ObjectKind::Html, 9_500);
        site.add("/img.png", ObjectKind::Image, 5_000);
        SiteServer::new(site, SiteServerConfig::default(), SimRng::seed_from(1))
    }

    #[test]
    fn serves_known_path() {
        let mut s = server();
        let due = s.on_request(StreamId(1), "/page.html", SimTime::ZERO);
        assert_eq!(due, Some(SimTime::ZERO));
        let responses = s.due_responses(SimTime::ZERO);
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.stream, StreamId(1));
        assert_eq!(r.body.len(), 9_500);
        assert_eq!(r.object, Some(ObjectId(0)));
        assert!(r.headers.contains(&HeaderField::new(":status", "200")));
        assert!(r
            .headers
            .contains(&HeaderField::new("content-length", "9500")));
    }

    #[test]
    fn unknown_path_is_404() {
        let mut s = server();
        s.on_request(StreamId(3), "/nope", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        assert_eq!(responses[0].object, None);
        assert!(responses[0]
            .headers
            .contains(&HeaderField::new(":status", "404")));
    }

    #[test]
    fn worker_latency_defers_response() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Other, 10);
        let cfg = SiteServerConfig {
            worker_latency: DurationDist::Constant(SimDuration::from_millis(7)),
            ..SiteServerConfig::default()
        };
        let mut s = SiteServer::new(site, cfg, SimRng::seed_from(1));
        let due = s.on_request(StreamId(1), "/a", SimTime::ZERO);
        assert_eq!(due, Some(SimTime::from_millis(7)));
        assert!(s.due_responses(SimTime::from_millis(3)).is_empty());
        assert_eq!(s.next_wakeup(), Some(SimTime::from_millis(7)));
        assert_eq!(s.due_responses(SimTime::from_millis(7)).len(), 1);
        assert_eq!(s.next_wakeup(), None);
    }

    #[test]
    fn duplicate_requests_spawn_duplicate_workers() {
        // The §IV-B behaviour: a re-issued GET is served again in full.
        let mut s = server();
        s.on_request(StreamId(1), "/img.png", SimTime::ZERO);
        s.on_request(StreamId(5), "/img.png", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].body, responses[1].body);
        assert_eq!(s.requests_seen(), 2);
    }

    #[test]
    fn reset_kills_scheduled_worker() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Other, 10);
        let cfg = SiteServerConfig {
            worker_latency: DurationDist::Constant(SimDuration::from_millis(7)),
            ..SiteServerConfig::default()
        };
        let mut s = SiteServer::new(site, cfg, SimRng::seed_from(1));
        s.on_request(StreamId(1), "/a", SimTime::ZERO);
        s.on_stream_reset(StreamId(1));
        assert!(s.due_responses(SimTime::from_millis(10)).is_empty());
    }

    #[test]
    fn padding_rounds_bodies_up() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Image, 5_200);
        site.add("/b", ObjectKind::Image, 6_800);
        let cfg = SiteServerConfig {
            pad: Some(PadSet::from_sizes(vec![4_096])),
            ..SiteServerConfig::default()
        };
        let mut s = SiteServer::new(site, cfg, SimRng::seed_from(1));
        s.on_request(StreamId(1), "/a", SimTime::ZERO);
        s.on_request(StreamId(3), "/b", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        // Both land in the same 8 KiB bucket: indistinguishable sizes.
        assert_eq!(responses[0].body.len(), 8_192);
        assert_eq!(responses[1].body.len(), 8_192);
        assert!(responses[0]
            .headers
            .contains(&HeaderField::new("content-length", "8192")));
    }

    #[test]
    fn pad_set_collapses_onto_canonical_sizes() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Image, 5_200);
        site.add("/b", ObjectKind::Image, 6_800);
        site.add("/big", ObjectKind::Image, 20_000);
        let cfg = SiteServerConfig {
            pad: Some(PadSet::from_sizes(vec![7_000])),
            ..SiteServerConfig::default()
        };
        let mut s = SiteServer::new(site, cfg, SimRng::seed_from(1));
        s.on_request(StreamId(1), "/a", SimTime::ZERO);
        s.on_request(StreamId(3), "/b", SimTime::ZERO);
        s.on_request(StreamId(5), "/big", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        // Both small objects land on the canonical 7000; the oversize one
        // rounds to the coarse grid (3 × 7000).
        assert_eq!(responses[0].body.len(), 7_000);
        assert_eq!(responses[1].body.len(), 7_000);
        assert_eq!(responses[2].body.len(), 21_000);
        assert!(responses[0]
            .headers
            .contains(&HeaderField::new("content-length", "7000")));
    }

    #[test]
    fn exact_canonical_size_serves_shared_body() {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Image, 4_096);
        let cfg = SiteServerConfig {
            pad: Some(PadSet::from_sizes(vec![4_096])),
            ..SiteServerConfig::default()
        };
        let mut s = SiteServer::new(site, cfg, SimRng::seed_from(1));
        s.on_request(StreamId(1), "/a", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        assert_eq!(responses[0].body.len(), 4_096);
    }

    #[test]
    fn same_instant_workers_serve_in_stream_order() {
        let mut s = server();
        s.on_request(StreamId(7), "/img.png", SimTime::ZERO);
        s.on_request(StreamId(3), "/page.html", SimTime::ZERO);
        let responses = s.due_responses(SimTime::ZERO);
        assert_eq!(responses[0].stream, StreamId(3));
        assert_eq!(responses[1].stream, StreamId(7));
    }

    fn pooled_server(capacity: usize) -> (SiteServer, Rc<RefCell<WorkerPool>>) {
        let mut site = Website::new();
        site.add("/a", ObjectKind::Other, 10);
        let pool = Rc::new(RefCell::new(WorkerPool::new(PoolConfig {
            capacity,
            ..PoolConfig::default()
        })));
        let mut s = SiteServer::new(site, SiteServerConfig::default(), SimRng::seed_from(1));
        s.set_pool(Rc::clone(&pool));
        (s, pool)
    }

    #[test]
    fn full_pool_parks_requests_and_releases_admit_fifo() {
        let (mut s, pool) = pooled_server(2);
        assert!(s.on_request(StreamId(1), "/a", SimTime::ZERO).is_some());
        assert!(s.on_request(StreamId(3), "/a", SimTime::ZERO).is_some());
        // Pool exhausted: later requests park in arrival order.
        assert!(s.on_request(StreamId(5), "/a", SimTime::ZERO).is_none());
        assert!(s.on_request(StreamId(7), "/a", SimTime::ZERO).is_none());
        assert_eq!(s.parked_len(), 2);
        assert_eq!(pool.borrow().in_use(), 2);
        assert_eq!(
            s.due_responses(SimTime::ZERO).len(),
            2,
            "only admitted serve"
        );
        // Finishing stream 1 admits the head of the queue (stream 5).
        let t = SimTime::from_millis(1);
        s.release_stream(StreamId(1), t);
        assert_eq!(s.parked_len(), 1);
        let admitted = s.due_responses(t);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].stream, StreamId(5));
        let stats = pool.borrow().stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.parked, 2);
    }

    #[test]
    fn release_of_non_serving_stream_is_a_no_op() {
        let (mut s, pool) = pooled_server(1);
        assert!(s.on_request(StreamId(1), "/a", SimTime::ZERO).is_some());
        s.release_stream(StreamId(99), SimTime::ZERO);
        assert_eq!(pool.borrow().in_use(), 1);
        s.release_stream(StreamId(1), SimTime::ZERO);
        s.release_stream(StreamId(1), SimTime::ZERO);
        assert_eq!(pool.borrow().in_use(), 0);
    }

    #[test]
    fn reset_drops_parked_copy() {
        let (mut s, _pool) = pooled_server(1);
        assert!(s.on_request(StreamId(1), "/a", SimTime::ZERO).is_some());
        assert!(s.on_request(StreamId(3), "/a", SimTime::ZERO).is_none());
        s.on_stream_reset(StreamId(3));
        assert_eq!(s.parked_len(), 0);
        // Freeing the worker now admits nothing.
        s.release_stream(StreamId(1), SimTime::ZERO);
        assert!(s.due_responses(SimTime::from_secs(1)).len() <= 1);
    }

    #[test]
    fn settings_backlog_stalls_workers() {
        let (mut s, pool) = pooled_server(4);
        s.on_request(StreamId(1), "/a", SimTime::ZERO);
        // Ten SETTINGS at 10 ms each: control plane busy until t=100 ms.
        for _ in 0..10 {
            pool.borrow_mut().note_settings(SimTime::ZERO);
        }
        assert!(s.due_responses(SimTime::from_millis(50)).is_empty());
        assert_eq!(s.next_wakeup(), Some(SimTime::from_millis(100)));
        assert_eq!(s.due_responses(SimTime::from_millis(100)).len(), 1);
        assert_eq!(pool.borrow().stats().settings_processed, 10);
    }

    #[test]
    fn shutdown_returns_every_worker_and_drops_parked() {
        let (mut s, pool) = pooled_server(2);
        assert!(s.on_request(StreamId(1), "/a", SimTime::ZERO).is_some());
        assert!(s.on_request(StreamId(3), "/a", SimTime::ZERO).is_some());
        assert!(s.on_request(StreamId(5), "/a", SimTime::ZERO).is_none());
        s.shutdown();
        assert_eq!(pool.borrow().in_use(), 0, "teardown returns all workers");
        assert_eq!(s.parked_len(), 0);
        assert!(s.serving().is_empty());
        assert!(
            s.due_responses(SimTime::from_secs(1)).is_empty(),
            "no worker survives teardown"
        );
        // The freed capacity is immediately usable by a connection
        // sharing the pool.
        assert!(pool.borrow_mut().try_acquire());
    }

    #[test]
    fn parser_hold_overdraws_but_blocks_admission() {
        let mut pool = WorkerPool::new(PoolConfig {
            capacity: 1,
            ..PoolConfig::default()
        });
        pool.hold_parser();
        pool.hold_parser();
        assert_eq!(pool.parser_held(), 2, "holds overdraw freely");
        assert!(!pool.try_acquire(), "captured threads starve admission");
        pool.release_parser();
        pool.release_parser();
        assert!(pool.try_acquire());
    }
}
