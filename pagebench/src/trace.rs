//! Call-site spans around the benchmark's own calls into each crate's
//! public functions. Nothing inside the program under test is
//! instrumented.
//!
//! A traced pass installs one [`Tracer`] per worker thread. Spans nest on
//! that thread's stack; closing a span charges its duration to its
//! parent, so a span's self time (its duration minus its children's) is
//! exact for every call even when the span itself is not kept. Kept spans
//! are written at exit as Chrome trace-event JSON, which Perfetto opens.
//! Fine-grained spans (one per adversary packet) are kept only on sampled
//! loads, so the file stays small while the totals count every call.
//!
//! Without an installed tracer every scope is a plain call plus one
//! thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Accumulated time of one span name on one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

impl Total {
    pub fn add(&mut self, other: Total) {
        self.count += other.count;
        self.dur_ns += other.dur_ns;
        self.self_ns += other.self_ns;
    }
}

/// One kept span. Spans of one load share its `load` id.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub load: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    child_ns: u64,
    keep: bool,
}

/// One thread's span stack, kept spans and per-name totals.
pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    load: u64,
    keep_fine: bool,
    pub spans: Vec<Span>,
    pub totals: BTreeMap<&'static str, Total>,
}

impl Tracer {
    /// A tracer whose span timestamps count from `epoch` (shared by all
    /// threads of a pass, so their timelines line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            stack: Vec::new(),
            load: 0,
            keep_fine: false,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn enter(&mut self, name: &'static str, fine: bool) {
        self.stack.push(Open {
            name,
            start: Instant::now(),
            child_ns: 0,
            keep: !fine || self.keep_fine,
        });
    }

    /// Closes the innermost span and returns its self time in ns.
    fn exit(&mut self) -> u64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur_ns = end.duration_since(open.start).as_nanos() as u64;
        let self_ns = dur_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        self.totals.entry(open.name).or_default().add(Total {
            count: 1,
            dur_ns,
            self_ns,
        });
        if open.keep {
            self.spans.push(Span {
                name: open.name,
                load: self.load,
                start_ns: open.start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
            });
        }
        self_ns
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs `tracer` on the calling thread.
pub fn install(tracer: Tracer) {
    ACTIVE.with(|a| *a.borrow_mut() = Some(tracer));
}

/// Removes and returns the calling thread's tracer.
pub fn take() -> Option<Tracer> {
    ACTIVE.with(|a| a.borrow_mut().take())
}

/// Tags the following spans with `load`; fine-grained spans are kept only
/// when `sampled`.
pub fn set_load(load: u64, sampled: bool) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.load = load;
            t.keep_fine = sampled;
        }
    });
}

/// Open spans on the calling thread (0 without a tracer).
pub fn depth() -> usize {
    ACTIVE.with(|a| a.borrow().as_ref().map_or(0, |t| t.stack.len()))
}

/// Drops spans a panic left open above `depth`.
pub fn unwind_to(depth: usize) {
    ACTIVE.with(|a| {
        if let Some(t) = a.borrow_mut().as_mut() {
            t.stack.truncate(depth);
        }
    });
}

fn run<T>(name: &'static str, fine: bool, f: impl FnOnce() -> T) -> (T, u64) {
    let on = ACTIVE.with(|a| match a.borrow_mut().as_mut() {
        Some(t) => {
            t.enter(name, fine);
            true
        }
        None => false,
    });
    let out = f();
    let self_ns = if on {
        ACTIVE.with(|a| a.borrow_mut().as_mut().map_or(0, Tracer::exit))
    } else {
        0
    };
    (out, self_ns)
}

/// Runs `f` inside a span named `name`.
pub fn scope<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    run(name, false, f).0
}

/// [`scope`], also returning the span's self time in ns (0 untraced).
pub fn scope_self<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    run(name, false, f)
}

/// [`scope`] for a call made many times per load: always counted, kept
/// for the trace file only on sampled loads.
pub fn fine_scope<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    run(name, true, f).0
}

/// Writes `threads`' kept spans as a Chrome trace-event file.
pub fn write_chrome(path: &std::path::Path, threads: &[Tracer]) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    write!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
    let mut first = true;
    for (tid, tracer) in threads.iter().enumerate() {
        if !first {
            write!(out, ",")?;
        }
        first = false;
        write!(
            out,
            "\n{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"worker {tid}\"}}}}"
        )?;
        for s in &tracer.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            write!(
                out,
                ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": {tid}, \"args\": {{\"load\": {}}}}}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.load
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_nested_children() {
        install(Tracer::new(Instant::now()));
        set_load(7, false);
        let ((), outer_self) = scope_self("outer", || {
            spin(2_000_000);
            scope("child", || {
                spin(1_000_000);
                scope("grandchild", || spin(1_000_000));
            });
            for _ in 0..3 {
                fine_scope("fine", || spin(100_000));
            }
        });
        let t = take().expect("tracer installed");
        let total = |n: &str| t.totals[n];
        let outer = total("outer");
        let child = total("child");
        let grand = total("grandchild");
        let fine = total("fine");
        assert_eq!(
            (outer.count, child.count, grand.count, fine.count),
            (1, 1, 1, 3)
        );
        // Self time is the duration minus the direct children's.
        assert_eq!(outer.self_ns, outer_self);
        assert_eq!(outer.self_ns, outer.dur_ns - child.dur_ns - fine.dur_ns);
        assert_eq!(child.self_ns, child.dur_ns - grand.dur_ns);
        assert_eq!(grand.self_ns, grand.dur_ns);
        assert!(outer.self_ns >= 2_000_000 && child.self_ns >= 1_000_000);
        // Fine spans are counted but not kept on an unsampled load.
        let kept: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        assert_eq!(kept, ["grandchild", "child", "outer"]);
        assert!(t.spans.iter().all(|s| s.load == 7));
    }

    #[test]
    fn sampled_loads_keep_fine_spans_and_untraced_scopes_are_plain_calls() {
        assert_eq!(scope_self("untraced", || 5), (5, 0));
        install(Tracer::new(Instant::now()));
        set_load(1, true);
        fine_scope("fine", || ());
        let t = take().expect("tracer installed");
        assert_eq!(t.spans.len(), 1);
    }

    #[test]
    fn unwinding_drops_spans_left_open() {
        install(Tracer::new(Instant::now()));
        let base = depth();
        let _ = std::panic::catch_unwind(|| scope("load", || panic!("boom")));
        assert_eq!(depth(), base + 1);
        unwind_to(base);
        assert_eq!(depth(), base);
        take();
    }
}
