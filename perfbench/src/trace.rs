//! In-memory spans for the traced run.
//!
//! Two kinds of span, both timed from the benchmark's side of each call:
//!
//! - **Coarse spans** ([`Spans`]): one per call into a layer's entry point
//!   (`record_ops`, `Machine::try_run`, `explore`, ...). Each keeps its
//!   name, start, end, parent and config id, and all are written out when
//!   the process ends.
//! - **Per-call spans** ([`timed`]): the millions of calls through the
//!   wrapping `Driver`, `Protocol` and `ProtoCtx`. These are aggregated
//!   per name into count, total, self time and a latency histogram.
//!
//! Self time is a span's duration minus its children's. Per-call spans
//! nest through a thread-local stack; the aggregates are global atomics
//! because the model checker expands each BFS layer on a scoped worker
//! thread, even at `jobs = 1`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The per-call span names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Call {
    /// `Driver::next_op`.
    Driver,
    /// `Protocol::start_miss`.
    StartMiss,
    /// `Protocol::handle`.
    Handle,
    /// `Protocol::evict`.
    Evict,
    /// `Protocol::note_read_hit` and `Protocol::note_op_retired`.
    Note,
    /// `Protocol::check_invariants`.
    Invariants,
    /// `Protocol::boxed_clone`.
    Clone,
    /// `Protocol::relabeled`.
    Relabel,
    /// `Protocol::fingerprint`.
    Fingerprint,
    /// `ProtoCtx::send`.
    Send,
    /// `ProtoCtx::broadcast`.
    Broadcast,
}

impl Call {
    pub const ALL: [Call; 11] = [
        Call::Driver,
        Call::StartMiss,
        Call::Handle,
        Call::Evict,
        Call::Note,
        Call::Invariants,
        Call::Clone,
        Call::Relabel,
        Call::Fingerprint,
        Call::Send,
        Call::Broadcast,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Call::Driver => "driver.next_op",
            Call::StartMiss => "core.start_miss",
            Call::Handle => "core.handle",
            Call::Evict => "core.evict",
            Call::Note => "core.note",
            Call::Invariants => "core.check_invariants",
            Call::Clone => "core.boxed_clone",
            Call::Relabel => "core.relabeled",
            Call::Fingerprint => "core.fingerprint",
            Call::Send => "net.send",
            Call::Broadcast => "net.broadcast",
        }
    }
}

/// Log-linear histogram: 8 sub-buckets per power of two (≤ 12.5% error).
const SUB: u32 = 3;
const BUCKETS: usize = 64 << SUB;

fn bucket(ns: u64) -> usize {
    if ns < (1 << SUB) {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let shift = msb - SUB;
    (((shift + 1) << SUB) as u64 + ((ns >> shift) & ((1 << SUB) - 1))) as usize
}

/// Midpoint of a bucket's value range.
fn bucket_mid(b: usize) -> f64 {
    let b = b as u64;
    if b < (1 << SUB) {
        return b as f64;
    }
    let shift = (b >> SUB) - 1;
    let lo = ((1 << SUB) + (b & ((1 << SUB) - 1))) << shift;
    lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

struct Agg {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    /// Duration of the calls made with no per-call parent: the part of
    /// an enclosing coarse span that these calls cover.
    root_ns: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

impl Agg {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            root_ns: AtomicU64::new(0),
            hist: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

static AGGS: [Agg; Call::ALL.len()] = [const { Agg::new() }; Call::ALL.len()];
/// Forwarded `ProtoCtx` calls other than `send`/`broadcast` (counted only).
static CTX_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Open per-call spans on this thread: (start, children's duration).
    static STACK: RefCell<Vec<(Instant, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` as one per-call span named `call`.
#[inline]
pub fn timed<R>(call: Call, f: impl FnOnce() -> R) -> R {
    STACK.with_borrow_mut(|s| s.push((Instant::now(), 0)));
    let r = f();
    let end = Instant::now();
    STACK.with_borrow_mut(|s| {
        let (start, child) = s.pop().expect("per-call span stack underflow");
        let dur = end.duration_since(start).as_nanos() as u64;
        let agg = &AGGS[call as usize];
        agg.count.fetch_add(1, Ordering::Relaxed);
        agg.total_ns.fetch_add(dur, Ordering::Relaxed);
        agg.self_ns
            .fetch_add(dur.saturating_sub(child), Ordering::Relaxed);
        agg.hist[bucket(dur)].fetch_add(1, Ordering::Relaxed);
        match s.last_mut() {
            Some(parent) => parent.1 += dur,
            None => {
                agg.root_ns.fetch_add(dur, Ordering::Relaxed);
            }
        }
    });
    r
}

/// Count one forwarded `ProtoCtx` call.
#[inline]
pub fn count_ctx_call() {
    CTX_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// A snapshot of one per-call aggregate.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub hist: Vec<u64>,
}

impl CallStats {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// The `q`-quantile (0..=1) of the call durations, in ns.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n: u64 = self.hist.iter().sum();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (b, &c) in self.hist.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_mid(b);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

pub fn call_stats(call: Call) -> CallStats {
    let a = &AGGS[call as usize];
    CallStats {
        count: a.count.load(Ordering::Relaxed),
        total_ns: a.total_ns.load(Ordering::Relaxed),
        self_ns: a.self_ns.load(Ordering::Relaxed),
        hist: a.hist.iter().map(|h| h.load(Ordering::Relaxed)).collect(),
    }
}

pub fn ctx_calls() -> u64 {
    CTX_CALLS.load(Ordering::Relaxed)
}

fn root_ns_total() -> u64 {
    AGGS.iter().map(|a| a.root_ns.load(Ordering::Relaxed)).sum()
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// Config id for spans that belong to no single config.
pub const NO_CONFIG: u32 = u32::MAX;

/// One coarse span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub config: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Per-call time with no per-call parent inside this span.
    calls_ns: u64,
    /// Sum of direct coarse children's durations and their `calls_ns`.
    child_ns: u64,
    child_calls_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Duration minus coarse children and the per-call spans directly
    /// under this span.
    pub fn self_s(&self) -> f64 {
        let covered = self.child_ns + self.calls_ns.saturating_sub(self.child_calls_ns);
        (self.end_ns - self.start_ns).saturating_sub(covered) as f64 * 1e-9
    }
}

/// The coarse spans of one process, kept in memory until [`Spans::to_json`].
#[derive(Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
}

impl Spans {
    fn now_ns() -> u64 {
        origin().elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open one.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        config: u32,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            config,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            calls_ns: 0,
            child_ns: 0,
            child_calls_ns: 0,
        });
        self.open.push((idx, root_ns_total()));
        self.spans[idx].start_ns = Self::now_ns();
        let r = f(self);
        let end = Self::now_ns();
        let (_, roots_at_start) = self.open.pop().expect("span stack underflow");
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.calls_ns = root_ns_total() - roots_at_start;
        let (dur, calls) = (s.end_ns - s.start_ns, s.calls_ns);
        if let Some(p) = s.parent {
            self.spans[p].child_ns += dur;
            self.spans[p].child_calls_ns += calls;
        }
        r
    }

    /// A mark for the `*_since` queries: spans opened from now on.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The spans named `name` opened after `mark`.
    pub fn named_since<'a>(
        &'a self,
        mark: usize,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans[mark..].iter().filter(move |s| s.name == name)
    }

    /// Sum of the durations of the spans named `name` opened after `mark`.
    pub fn total_s_since(&self, mark: usize, name: &str) -> f64 {
        self.named_since(mark, name).map(Span::dur_s).sum()
    }

    /// Sum of the self times of the spans named `name` opened after `mark`.
    pub fn self_s_since(&self, mark: usize, name: &str) -> f64 {
        self.named_since(mark, name).map(Span::self_s).sum()
    }

    /// Every coarse span plus every per-call aggregate, as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"config\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"self_ns\":{}}}",
                s.name,
                if s.config == NO_CONFIG {
                    "null".to_string()
                } else {
                    s.config.to_string()
                },
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                (s.self_s() * 1e9).round() as u64,
            );
        }
        out.push_str("],\"calls\":{");
        for (i, &c) in Call::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let st = call_stats(c);
            let hist: Vec<String> = st
                .hist
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(b, n)| format!("[{},{n}]", bucket_mid(b)))
                .collect();
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{},\"hist_mid_ns\":[{}]}}",
                c.name(),
                st.count,
                st.total_ns,
                st.self_ns,
                hist.join(",")
            );
        }
        let _ = write!(out, "}},\"ctx_calls\":{}}}", ctx_calls());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_midpoints_fall_inside() {
        let mut last = 0;
        for ns in 0..100_000u64 {
            let b = bucket(ns);
            assert!(b >= last, "bucket order broken at {ns}");
            last = b;
        }
        for ns in [0u64, 7, 8, 15, 16, 100, 1_000, 65_535, 1 << 40] {
            let mid = bucket_mid(bucket(ns));
            assert!(
                (mid - ns as f64).abs() <= ns as f64 * 0.125 + 0.5,
                "{ns} -> {mid}"
            );
        }
        assert!(bucket(u64::MAX) < BUCKETS);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.span("outer", NO_CONFIG, |s| {
            s.span("inner", 0, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let outer = spans.named_since(0, "outer").next().unwrap();
        let inner = spans.named_since(0, "inner").next().unwrap();
        assert_eq!(inner.parent, Some(0));
        assert!(inner.dur_s() >= 0.02);
        assert!(outer.self_s() < outer.dur_s() - 0.019);
    }
}
