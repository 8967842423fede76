//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span (name, start, end, parent, query id). Spans are kept in memory
//! while the run measures and written out once it ends. Recording is off
//! unless [`enable`] was called: a disabled [`enter`] only reads the
//! clock, so the untraced window runs the same query code.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static QUERY: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ns_since_epoch(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Query the span belongs to (0 outside any query).
    pub query: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording spans.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Tags spans opened on this thread from now on with query `id`.
pub fn set_query(id: u64) {
    QUERY.with(|q| q.set(id));
}

/// The innermost open span on this thread.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; it is recorded when closed or dropped.
pub struct Guard {
    name: &'static str,
    start: Instant,
    /// `(id, parent)` when recording is on.
    ids: Option<(u64, Option<u64>)>,
    closed: bool,
}

/// Opens a span named `name` as a child of the innermost open span on
/// this thread.
pub fn enter(name: &'static str) -> Guard {
    let ids = ENABLED.load(Ordering::Relaxed).then(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = current();
        STACK.with(|s| s.borrow_mut().push(id));
        (id, parent)
    });
    Guard {
        name,
        start: Instant::now(),
        ids,
        closed: false,
    }
}

impl Guard {
    /// Closes the span and returns its duration in nanoseconds.
    pub fn close(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        self.closed = true;
        let end = Instant::now();
        let dur = u64::try_from(end.duration_since(self.start).as_nanos()).unwrap_or(u64::MAX);
        if let Some((id, parent)) = self.ids {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            push(Span {
                id,
                parent,
                name: self.name,
                query: QUERY.with(Cell::get),
                start_ns: ns_since_epoch(self.start),
                end_ns: ns_since_epoch(end),
            });
        }
        dur
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if !self.closed {
            self.finish();
        }
    }
}

/// Records a span whose interval was measured elsewhere (for work on
/// threads the benchmark does not own, such as shard legs).
pub fn record(name: &'static str, parent: Option<u64>, query: u64, start: Instant, end: Instant) {
    if ENABLED.load(Ordering::Relaxed) {
        push(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            query,
            start_ns: ns_since_epoch(start),
            end_ns: ns_since_epoch(end),
        });
    }
}

fn push(span: Span) {
    SPANS
        .lock()
        .expect("span log poisoned by a panicking recorder")
        .push(span);
}

/// Removes and returns every recorded span.
pub fn take_all() -> Vec<Span> {
    std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span log poisoned by a panicking recorder"),
    )
}

/// Per span name: count, total time and self time (total minus the part
/// of each span's interval its children cover), in nanoseconds.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], w: &mut dyn Write) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"query\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.name, s.query, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
