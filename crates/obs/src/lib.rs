//! Deterministic, dependency-free observability for the DFS benchmark.
//!
//! The study is a time-accounting exercise: every strategy is judged under
//! a declared search-time budget, so "where did this cell spend its wall
//! clock" must be a first-class, queryable artifact rather than something
//! recovered from ad-hoc logging. This crate provides:
//!
//! - **Hierarchical spans** with RAII guards ([`span`]) and monotonic
//!   timings,
//! - **Named counters** ([`counter`]) and **log-bucketed histograms**
//!   ([`observe`]),
//! - per-thread [`Collector`]s that fold in *item order* — the same
//!   associative-merge discipline as `EvalPerf` — so every non-timestamp
//!   output is bit-identical at any `DFS_THREADS`,
//! - a leveled logger ([`warn!`]/[`info!`] …, `DFS_LOG` filter) whose
//!   records also land in the run journal,
//! - a [`Heartbeat`] channel so a watchdog can ask a possibly-stuck thread
//!   "what phase were you last in" without any locking on the hot path,
//! - a [`RunObserver`] aggregating per-cell collectors plus three
//!   exporters: Chrome trace-event JSON (Perfetto / `about:tracing`), a
//!   Prometheus-style text metrics dump, and a JSONL event journal.
//!
//! ## Cost contract
//!
//! With tracing disabled (the default), every [`span`]/[`counter`]/
//! [`observe`] call site costs a **single relaxed atomic load** plus a
//! predictable branch — verified by the `bench_obs` overhead bench, whose
//! CI gate fails above 2% on the eval-engine hot loop. Enabling tracing
//! (`DFS_TRACE=1` or [`set_trace_enabled`]) records events only on threads
//! that hold an attached [`Collector`], which is exactly what makes the
//! output deterministic: inner parallel workers without a collector record
//! nothing, and batched regions give each item its own scoped collector
//! ([`scoped`]) that the caller absorbs in submission order.
//!
//! ## Determinism contract
//!
//! Everything except timestamps and span durations is bit-identical across
//! thread budgets: event kinds, names, order, counter values, histogram
//! buckets. The exporters take a `strip` flag that removes the timestamp
//! fields, and the determinism regression asserts byte equality of the
//! stripped journal and metrics dump for `threads = 1` vs `threads = 4`.

mod export;

pub use export::{trace_dir, RunObserver};

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global switches
// ---------------------------------------------------------------------------

const FLAG_OFF: u8 = 0;
const FLAG_ON: u8 = 1;
const FLAG_UNINIT: u8 = 2;

/// Master tracing switch; `FLAG_UNINIT` until first read (then latched from
/// the `DFS_TRACE` environment variable unless [`set_trace_enabled`] ran
/// first).
static TRACE: AtomicU8 = AtomicU8::new(FLAG_UNINIT);

/// Log level filter; `u8::MAX` until first read (then latched from
/// `DFS_LOG`, default [`Level::Warn`]).
static LOG_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

/// `true` iff span/counter/histogram recording is on. The disabled-mode
/// fast path is one relaxed load and one comparison.
#[inline]
pub fn trace_enabled() -> bool {
    let v = TRACE.load(Ordering::Relaxed);
    if v == FLAG_UNINIT {
        return init_trace();
    }
    v == FLAG_ON
}

#[cold]
fn init_trace() -> bool {
    let on = env_flag("DFS_TRACE");
    // Losing a race against `set_trace_enabled` is fine: a plain store wins.
    let _ = TRACE.compare_exchange(
        FLAG_UNINIT,
        if on { FLAG_ON } else { FLAG_OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    TRACE.load(Ordering::Relaxed) == FLAG_ON
}

/// Programmatically enables/disables tracing (overrides `DFS_TRACE`).
pub fn set_trace_enabled(on: bool) {
    TRACE.store(if on { FLAG_ON } else { FLAG_OFF }, Ordering::Relaxed);
}

/// Reads a boolean environment flag: `1`, `true`, `yes`, `on` (any case)
/// are truthy; everything else — including unset — is falsy.
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            matches!(v.as_str(), "1" | "true" | "yes" | "on")
        })
        .unwrap_or(false)
}

/// Severity of a log record, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// Unrecoverable or data-losing conditions.
    Error = 0,
    /// Degraded-but-continuing conditions (the default stderr filter).
    Warn = 1,
    /// Progress notes: cache loads, checkpoint writes, trace exports.
    Info = 2,
    /// High-volume diagnostics.
    Debug = 3,
}

impl Level {
    /// The stderr label, matching the repo's historical `warning:` style.
    pub fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warning",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Error,
            1 => Level::Warn,
            2 => Level::Info,
            _ => Level::Debug,
        }
    }

    /// Parses a `DFS_LOG` value; `None` for unrecognized strings.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" | "0" => Some(Level::Error),
            "warn" | "warning" | "1" => Some(Level::Warn),
            "info" | "2" => Some(Level::Info),
            "debug" | "3" => Some(Level::Debug),
            _ => None,
        }
    }
}

/// The maximum level printed to stderr (records above it are filtered).
pub fn log_level() -> Level {
    let v = LOG_LEVEL.load(Ordering::Relaxed);
    if v == u8::MAX {
        let lvl = std::env::var("DFS_LOG")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Warn);
        let _ = LOG_LEVEL.compare_exchange(
            u8::MAX,
            lvl as u8,
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
        return Level::from_u8(LOG_LEVEL.load(Ordering::Relaxed));
    }
    Level::from_u8(v)
}

/// Programmatically sets the stderr level filter (overrides `DFS_LOG`).
pub fn set_log_level(level: Level) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Nanoseconds since the process-wide trace epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Events, histograms, collectors
// ---------------------------------------------------------------------------

/// What one recorded [`Event`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`value` unused).
    Enter,
    /// A span closed (`value` = duration in nanoseconds).
    Exit,
    /// A counter increment (`value` = delta).
    Count,
    /// A log record (`msg` holds the message, `name` the target).
    Log(Level),
}

/// One record in a [`Collector`]'s ordered event stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Discriminant (span boundary, counter tick, log record).
    pub kind: EventKind,
    /// Span/counter name or log target.
    pub name: Cow<'static, str>,
    /// Nanoseconds since the trace epoch ([`now_ns`]). Stripped exports
    /// omit this field.
    pub t_ns: u64,
    /// Duration (Exit), delta (Count), 0 otherwise. Exit durations are
    /// clock-derived and stripped alongside timestamps.
    pub value: u64,
    /// Log message; empty for non-log events.
    pub msg: String,
    /// Fold group: 0 for events recorded natively on the owning thread,
    /// `>= 1` for events absorbed from a scoped child collector (groups are
    /// numbered in absorb order, which is submission order — deterministic).
    pub group: u32,
}

/// Number of log2 histogram buckets: bucket `i` counts values whose bit
/// length is `i` (bucket 0 holds only zero), so `u64::MAX` lands in 64.
pub const HIST_BUCKETS: usize = 65;

/// A log-bucketed histogram: exact counts per power-of-two bucket plus the
/// exact sum and count. Deterministic because it only ever receives
/// deterministic values (sizes, counts — never durations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observed values with bit length `i`.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping; practically never overflows).
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0 }
    }
}

impl Histogram {
    /// Bucket index for a value: its bit length (0 for 0).
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
    }

    /// Component-wise merge (associative, `Default` is the identity).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Inclusive upper bound of bucket `i` (`2^i - 1`).
    pub fn bucket_bound(i: usize) -> u128 {
        (1u128 << i) - 1
    }

    /// Inclusive lower bound of bucket `i` (`2^(i-1)`; bucket 0 holds only
    /// zero).
    pub fn bucket_floor(i: usize) -> u128 {
        if i == 0 {
            0
        } else {
            1u128 << (i - 1)
        }
    }

    /// Estimated `q`-quantile (`q` clamped to `[0, 1]`) by cumulative
    /// bucket walk plus linear interpolation inside the landing bucket.
    ///
    /// **Error bound:** the true quantile lies somewhere in the landing
    /// bucket `[2^(i-1), 2^i - 1]`, so the estimate is off by at most one
    /// log2 bucket — a factor of 2 in the worst case, much less when the
    /// bucket's values are spread evenly (the interpolation assumption).
    /// Exact for buckets 0 and 1, whose ranges are single values.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            let before = cumulative as f64;
            cumulative += b;
            if (cumulative as f64) >= target {
                let lo = Self::bucket_floor(i) as f64;
                let hi = Self::bucket_bound(i) as f64;
                let frac = ((target - before) / b as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
        }
        Histogram::bucket_bound(HIST_BUCKETS - 1) as f64
    }

    /// Compact single-line encoding: `count;sum;i:c,i:c,...` with only the
    /// non-empty buckets. Safe to embed in JSON strings and tab-separated
    /// sidecars (no quotes, whitespace, or tabs). Empty histograms encode
    /// as `0;0;`.
    pub fn encode_sparse(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{};{};", self.count, self.sum);
        let mut first = true;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{i}:{b}");
        }
        out
    }

    /// Parses an [`Histogram::encode_sparse`] string. The empty string
    /// decodes to the empty histogram (a tolerant default for wire fields
    /// sent by older peers); anything else malformed is an error.
    pub fn decode_sparse(s: &str) -> Result<Histogram, String> {
        if s.is_empty() {
            return Ok(Histogram::default());
        }
        let mut parts = s.splitn(3, ';');
        let bad = |what: &str| format!("bad sparse histogram '{s}': {what}");
        let count: u64 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("missing count"))?;
        let sum: u64 =
            parts.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("missing sum"))?;
        let mut h = Histogram { count, sum, ..Histogram::default() };
        let buckets = parts.next().ok_or_else(|| bad("missing buckets"))?;
        let mut total = 0u64;
        for pair in buckets.split(',').filter(|p| !p.is_empty()) {
            let (i, c) = pair.split_once(':').ok_or_else(|| bad("bucket not i:c"))?;
            let i: usize = i.parse().map_err(|_| bad("non-numeric bucket index"))?;
            let c: u64 = c.parse().map_err(|_| bad("non-numeric bucket count"))?;
            if i >= HIST_BUCKETS {
                return Err(bad("bucket index out of range"));
            }
            h.buckets[i] += c;
            total += c;
        }
        if total != count {
            return Err(bad("bucket counts disagree with the total"));
        }
        Ok(h)
    }
}

/// Histogram names with this suffix hold clock-derived durations; the
/// stripped exports omit them (same rule as span durations), keeping every
/// stripped byte thread-count-invariant.
pub const TIMING_HIST_SUFFIX: &str = "_ns";

/// `true` when `name` names a timing histogram (stripped from
/// determinism-checked exports).
pub fn is_timing_hist(name: &str) -> bool {
    name.ends_with(TIMING_HIST_SUFFIX)
}

/// Counters with this prefix describe how a run was scheduled (how many
/// row workers it spawned), which follows the thread budget and the
/// watchdog's clock; the stripped exports omit them like durations.
pub const SCHEDULE_COUNTER_PREFIX: &str = "runner.";

/// `true` when `name` names a scheduling counter (stripped from
/// determinism-checked exports).
pub fn is_schedule_counter(name: &str) -> bool {
    name.starts_with(SCHEDULE_COUNTER_PREFIX)
}

/// A [`Histogram`] recordable from many threads without locks: one relaxed
/// atomic add per observation. Used where the collector discipline does
/// not apply (server-wide request latency, queue wait) — the recorded
/// values are durations, so this type never feeds the deterministic
/// exports directly.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [std::sync::atomic::AtomicU64; HIST_BUCKETS],
    count: std::sync::atomic::AtomicU64,
    sum: std::sync::atomic::AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        use std::sync::atomic::AtomicU64;
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value (relaxed ordering; counts are monotonic and a
    /// snapshot torn across concurrent records is still a valid history).
    pub fn record(&self, value: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.buckets[Histogram::bucket_of(value)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
    }

    /// A point-in-time copy as a plain [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        use std::sync::atomic::Ordering::Relaxed;
        let mut h = Histogram {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            ..Histogram::default()
        };
        for (dst, src) in h.buckets.iter_mut().zip(&self.buckets) {
            *dst = src.load(Relaxed);
        }
        h
    }
}

/// Hard cap on events per collector — a runaway-loop backstop. Overflowing
/// events are counted in [`Collector::dropped`], never silently lost.
const MAX_EVENTS: usize = 1 << 20;

/// An ordered event stream plus counter/histogram maps, owned by exactly
/// one thread at a time.
///
/// The determinism discipline mirrors `EvalPerf`: parallel regions give
/// each work item its own collector (see [`scoped`]) and the caller
/// [`Collector::absorb`]s them back *in item order*, so the merged stream
/// is identical at any thread count.
#[derive(Debug, Default)]
pub struct Collector {
    events: Vec<Event>,
    /// Open spans: `Some((event index, enter t_ns))` when the Enter was
    /// recorded, `None` when it was dropped at the event cap (its Exit is
    /// then skipped too, keeping the stream balanced).
    open: Vec<Option<(usize, u64)>>,
    counters: BTreeMap<Cow<'static, str>, u64>,
    hists: BTreeMap<Cow<'static, str>, Histogram>,
    /// Events discarded at the [`MAX_EVENTS`] cap.
    dropped: u64,
    /// Next fold-group id handed out by [`Collector::absorb`].
    next_group: u32,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector { next_group: 1, ..Collector::default() }
    }

    fn push_event(&mut self, ev: Event) -> bool {
        if self.events.len() >= MAX_EVENTS {
            self.dropped += 1;
            return false;
        }
        self.events.push(ev);
        true
    }

    /// Opens a span. Pair with [`Collector::exit_span`]; the [`span`]
    /// guard does this automatically.
    pub fn enter_span(&mut self, name: Cow<'static, str>) {
        let t = now_ns();
        let idx = self.events.len();
        let recorded = self.push_event(Event {
            kind: EventKind::Enter,
            name,
            t_ns: t,
            value: 0,
            msg: String::new(),
            group: 0,
        });
        self.open.push(if recorded { Some((idx, t)) } else { None });
    }

    /// Closes the innermost open span. A surplus exit (no open span) is a
    /// no-op — unbalanced enter/exit never corrupts the collector.
    pub fn exit_span(&mut self) {
        match self.open.pop() {
            Some(Some((idx, t0))) => {
                let t = now_ns();
                let name = self.events[idx].name.clone();
                self.push_event(Event {
                    kind: EventKind::Exit,
                    name,
                    t_ns: t,
                    value: t.saturating_sub(t0),
                    msg: String::new(),
                    group: 0,
                });
            }
            Some(None) | None => {}
        }
    }

    /// Adds `delta` to a named counter and records a Count event.
    pub fn add_counter(&mut self, name: Cow<'static, str>, delta: u64) {
        *self.counters.entry(name.clone()).or_insert(0) += delta;
        self.push_event(Event {
            kind: EventKind::Count,
            name,
            t_ns: now_ns(),
            value: delta,
            msg: String::new(),
            group: 0,
        });
    }

    /// Records a value into a named log-bucketed histogram.
    pub fn observe(&mut self, name: Cow<'static, str>, value: u64) {
        self.hists.entry(name).or_default().record(value);
    }

    /// Records a log event (the stderr sink is separate; see [`log`]).
    pub fn log_event(&mut self, level: Level, target: &str, msg: String) {
        self.push_event(Event {
            kind: EventKind::Log(level),
            name: Cow::Owned(target.to_string()),
            t_ns: now_ns(),
            value: 0,
            msg,
            group: 0,
        });
    }

    /// Closes every still-open span (used after a panic unwound past the
    /// guards, or before exporting).
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.exit_span();
        }
    }

    /// `true` when every recorded Enter has a matching Exit.
    pub fn is_balanced(&self) -> bool {
        self.open.is_empty()
    }

    /// Folds a child collector into this one *in call order*: the child's
    /// events are appended under fresh fold-group ids, and its counters,
    /// histograms and drop count merge component-wise. Associative with
    /// [`Collector::new`] as identity, like `EvalPerf::merge`.
    pub fn absorb(&mut self, mut child: Collector) {
        child.finish();
        let shift = self.next_group;
        for mut ev in child.events {
            ev.group = shift + ev.group;
            if !self.push_event(ev) {
                break;
            }
        }
        self.next_group = shift.saturating_add(child.next_group);
        for (k, v) in child.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in child.hists {
            self.hists.entry(k).or_default().merge(&h);
        }
        self.dropped += child.dropped;
    }

    /// The ordered event stream.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The counter totals.
    pub fn counters(&self) -> &BTreeMap<Cow<'static, str>, u64> {
        &self.counters
    }

    /// The histogram map.
    pub fn histograms(&self) -> &BTreeMap<Cow<'static, str>, Histogram> {
        &self.hists
    }

    /// Events discarded at the per-collector cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

// ---------------------------------------------------------------------------
// Thread-local attachment
// ---------------------------------------------------------------------------

thread_local! {
    /// Stack of collectors attached to this thread; events go to the top.
    static STACK: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
    /// Watchdog heartbeat installed on this thread, if any.
    static HEARTBEAT: RefCell<Option<Arc<Heartbeat>>> = const { RefCell::new(None) };
}

/// Pushes a fresh collector onto this thread's stack and returns its depth
/// (pass to [`take_collector`]).
pub fn push_collector() -> usize {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(Collector::new());
        s.len() - 1
    })
}

/// Removes the collector pushed at `depth`, absorbing (in stack order) any
/// collectors a panic may have stranded above it, so events are never lost
/// and the stream stays balanced. Returns `None` if `depth` is gone.
pub fn take_collector(depth: usize) -> Option<Collector> {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if depth >= s.len() {
            return None;
        }
        let stranded: Vec<Collector> = s.drain(depth + 1..).collect();
        let mut c = s.pop()?;
        for child in stranded {
            c.absorb(child);
        }
        c.finish();
        Some(c)
    })
}

/// `true` when this thread has an attached collector.
pub fn has_collector() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

/// Runs `f` with a fresh collector attached and returns its result plus
/// the collector — `None` when tracing is disabled (zero allocation). The
/// caller absorbs returned collectors in item order; this is the batching
/// pattern that keeps parallel regions deterministic.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Option<Collector>) {
    if !trace_enabled() {
        return (f(), None);
    }
    let depth = push_collector();
    let r = f();
    (r, take_collector(depth))
}

/// Folds a scoped child collector into the current thread's attached
/// collector (dropped when none is attached). Callers absorb batch
/// children *in submission order* — same discipline as `EvalPerf::merge`.
pub fn absorb(child: Collector) {
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.absorb(child);
        }
    });
}

/// Runs `f` with `c` attached as this thread's current collector, then
/// detaches it with its open spans still open (a panic in `f` detaches it
/// too). This is how one thread records into a collector that another
/// thread opened: a benchmark row's `row` span is opened by the worker
/// that claims the row and closed by the run's watchdog thread, which also
/// writes the row's timeout warnings and checkpoint into it.
pub fn with_collector<R>(c: &mut Collector, f: impl FnOnce() -> R) -> R {
    /// Moves the collector back out of the stack, absorbing anything `f`
    /// stranded above it.
    struct Detach<'a> {
        c: &'a mut Collector,
        depth: usize,
    }
    impl Drop for Detach<'_> {
        fn drop(&mut self) {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if self.depth < s.len() {
                    let stranded: Vec<Collector> = s.drain(self.depth + 1..).collect();
                    if let Some(top) = s.pop() {
                        *self.c = top;
                    }
                    for child in stranded {
                        self.c.absorb(child);
                    }
                }
            });
        }
    }
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(std::mem::take(c));
        s.len() - 1
    });
    let _detach = Detach { c, depth };
    f()
}

/// RAII span handle from [`span`]; closes the span on drop (including
/// during a panic unwind).
#[must_use = "a span closes when its guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    active: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            STACK.with(|s| {
                if let Some(top) = s.borrow_mut().last_mut() {
                    top.exit_span();
                }
            });
        }
    }
}

/// Opens a span on the current thread's collector. With tracing disabled
/// this is one relaxed atomic load; with no collector attached (inner
/// parallel workers) it records nothing, by design.
#[inline]
pub fn span(name: impl Into<Cow<'static, str>>) -> SpanGuard {
    if !trace_enabled() {
        return SpanGuard { active: false };
    }
    span_slow(name.into())
}

fn span_slow(name: Cow<'static, str>) -> SpanGuard {
    HEARTBEAT.with(|hb| {
        if let Some(hb) = hb.borrow().as_ref() {
            hb.note(&name);
        }
    });
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            Some(top) => {
                top.enter_span(name);
                SpanGuard { active: true }
            }
            None => SpanGuard { active: false },
        }
    })
}

/// Adds `delta` to a named counter on the current collector (no-op when
/// tracing is disabled or no collector is attached).
#[inline]
pub fn counter(name: impl Into<Cow<'static, str>>, delta: u64) {
    if !trace_enabled() {
        return;
    }
    let name = name.into();
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.add_counter(name, delta);
        }
    });
}

/// Records `value` into a named histogram on the current collector. Only
/// feed it deterministic values (sizes, counts) — never durations.
#[inline]
pub fn observe(name: impl Into<Cow<'static, str>>, value: u64) {
    if !trace_enabled() {
        return;
    }
    let name = name.into();
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.observe(name, value);
        }
    });
}

// ---------------------------------------------------------------------------
// Heartbeat (watchdog phase attribution)
// ---------------------------------------------------------------------------

/// A last-phase mailbox shared between a worker thread and its watchdog.
///
/// The worker updates it at coarse phase boundaries (and on every span
/// enter when tracing is on); on a timeout the watchdog reads the last
/// note to attribute the stall to a phase. Works with tracing disabled —
/// the explicit [`heartbeat`] sites are few and cheap.
#[derive(Debug)]
pub struct Heartbeat {
    last: Mutex<String>,
}

impl Default for Heartbeat {
    fn default() -> Self {
        Heartbeat::new()
    }
}

impl Heartbeat {
    /// A heartbeat whose last phase reads as `"start"` until noted.
    pub fn new() -> Heartbeat {
        Heartbeat { last: Mutex::new("start".to_string()) }
    }

    /// Records the current phase.
    pub fn note(&self, phase: &str) {
        let mut last = self.last.lock().unwrap_or_else(|p| p.into_inner());
        last.clear();
        last.push_str(phase);
    }

    /// The most recently noted phase.
    pub fn last(&self) -> String {
        self.last.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

/// Installs a heartbeat on the current thread (replacing any previous one).
pub fn install_heartbeat(hb: Arc<Heartbeat>) {
    HEARTBEAT.with(|h| *h.borrow_mut() = Some(hb));
}

/// Removes the current thread's heartbeat.
pub fn clear_heartbeat() {
    HEARTBEAT.with(|h| *h.borrow_mut() = None);
}

/// Notes `phase` on the installed heartbeat, if any. Unlike [`span`], this
/// works with tracing disabled — it is the watchdog's stall-attribution
/// channel, not a tracing primitive.
pub fn heartbeat(phase: &str) {
    HEARTBEAT.with(|h| {
        if let Some(hb) = h.borrow().as_ref() {
            hb.note(phase);
        }
    });
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Emits a log record: to stderr when `level` passes the `DFS_LOG` filter,
/// and into the attached collector (hence the JSONL journal) whenever
/// tracing is on. Prefer the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]
/// macros.
pub fn log(level: Level, target: &str, msg: String) {
    if level <= log_level() {
        eprintln!("[{target}] {}: {msg}", level.as_str());
    }
    if trace_enabled() {
        STACK.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.log_event(level, target, msg);
            }
        });
    }
}

/// Logs at [`Level::Error`]: `error!("dfs-core", "lost {n} rows")`.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Error, $target, format!($($arg)*))
    };
}

/// Logs at [`Level::Warn`]: `warn!("dfs-core", "{err}; row skipped")`.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Warn, $target, format!($($arg)*))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Info, $target, format!($($arg)*))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log($crate::Level::Debug, $target, format!($($arg)*))
    };
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set the process-global trace flag: tests
    /// run on parallel threads, and one switching tracing off in the middle
    /// of another's traced section would drop that test's events.
    static TRACE_FLAG: Mutex<()> = Mutex::new(());

    /// Runs `f` with the trace flag set to `on`, then switches tracing off.
    pub(crate) fn with_trace_flag<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let _serial = TRACE_FLAG.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        set_trace_enabled(on);
        let r = f();
        set_trace_enabled(false);
        r
    }

    /// Most tests need tracing on.
    fn with_tracing<R>(f: impl FnOnce() -> R) -> R {
        with_trace_flag(true, f)
    }

    #[test]
    fn disabled_span_records_nothing() {
        with_trace_flag(false, || {
            let depth = push_collector();
            {
                let _g = span("quiet");
                counter("ticks", 3);
                observe("sizes", 7);
            }
            let c = take_collector(depth).expect("collector present");
            assert!(c.events().is_empty());
            assert!(c.counters().is_empty());
            assert!(c.histograms().is_empty());
        });
    }

    #[test]
    fn spans_nest_and_balance() {
        with_tracing(|| {
            let depth = push_collector();
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                    counter("work", 2);
                }
            }
            let c = take_collector(depth).expect("collector present");
            assert!(c.is_balanced());
            let kinds: Vec<_> = c.events().iter().map(|e| (e.kind, e.name.as_ref())).collect();
            assert_eq!(
                kinds,
                vec![
                    (EventKind::Enter, "outer"),
                    (EventKind::Enter, "inner"),
                    (EventKind::Count, "work"),
                    (EventKind::Exit, "inner"),
                    (EventKind::Exit, "outer"),
                ]
            );
            assert_eq!(c.counters().get("work"), Some(&2));
        });
    }

    #[test]
    fn panic_unwind_closes_spans_cleanly() {
        with_tracing(|| {
            let depth = push_collector();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _outer = span("outer");
                let _inner = span("inner");
                panic!("boom");
            }));
            assert!(result.is_err());
            let c = take_collector(depth).expect("collector survives the panic");
            // Guards dropped during unwind: both spans closed, in order.
            assert!(c.is_balanced());
            let exits =
                c.events().iter().filter(|e| e.kind == EventKind::Exit).count();
            assert_eq!(exits, 2);
        });
    }

    #[test]
    fn surplus_exit_is_a_no_op() {
        with_tracing(|| {
            let mut c = Collector::new();
            c.exit_span(); // nothing open
            c.enter_span("a".into());
            c.exit_span();
            c.exit_span(); // surplus again
            assert!(c.is_balanced());
            assert_eq!(c.events().len(), 2);
        });
    }

    #[test]
    fn take_collector_absorbs_stranded_children() {
        with_tracing(|| {
            let depth = push_collector();
            // Simulate a panic between a child's push and take: the child
            // stays on the stack and must fold into the parent.
            let _child_depth = push_collector();
            {
                let _g = span("orphan");
                counter("c", 1);
            }
            let c = take_collector(depth).expect("parent with absorbed child");
            assert!(c.is_balanced());
            assert_eq!(c.counters().get("c"), Some(&1));
            assert!(c.events().iter().any(|e| e.name == "orphan" && e.group > 0));
        });
    }

    #[test]
    fn with_collector_records_into_a_detached_collector_and_leaves_it_open() {
        with_tracing(|| {
            let outer = push_collector();
            let mut row = Collector::new();
            row.enter_span("row".into());
            with_collector(&mut row, || counter("warned", 1));
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_collector(&mut row, || {
                    let _g = span("write");
                    panic!("sink failed");
                })
            }));
            assert!(caught.is_err());
            // Still open: only the caller closes the row span.
            assert!(!row.is_balanced());
            row.finish();
            let names: Vec<_> = row.events().iter().map(|e| (e.kind, e.name.as_ref())).collect();
            assert_eq!(
                names,
                vec![
                    (EventKind::Enter, "row"),
                    (EventKind::Count, "warned"),
                    (EventKind::Enter, "write"),
                    (EventKind::Exit, "write"),
                    (EventKind::Exit, "row"),
                ]
            );
            // The thread's own collector saw none of it.
            let c = take_collector(outer).expect("outer collector");
            assert!(c.events().is_empty());
        });
    }

    #[test]
    fn absorb_assigns_groups_in_call_order() {
        with_tracing(|| {
            let mut parent = Collector::new();
            for label in ["first", "second"] {
                let (_, child) = scoped(|| {
                    let _g = span(label);
                });
                parent.absorb(child.expect("tracing on"));
            }
            let group_of = |name: &str| {
                parent
                    .events()
                    .iter()
                    .find(|e| e.name == name)
                    .map(|e| e.group)
                    .expect("event present")
            };
            assert!(group_of("first") < group_of("second"));
            assert!(group_of("first") >= 1);
        });
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 1); // 4
        assert_eq!(h.buckets[11], 1); // 1024
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        let mut other = Histogram::default();
        other.record(3);
        h.merge(&other);
        assert_eq!(h.buckets[2], 3);
        assert_eq!(h.count, 7);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::default();
        // 100 values spread across bucket 7 (64..=127).
        for v in 0..100u64 {
            h.record(64 + (v * 63) / 99);
        }
        let p50 = h.quantile(0.5);
        assert!((64.0..=127.0).contains(&p50), "p50 {p50} escaped its bucket");
        assert!((p50 - 95.5).abs() < 5.0, "p50 {p50} far from the true median ~95");
        // Degenerate buckets are exact.
        let mut ones = Histogram::default();
        for _ in 0..10 {
            ones.record(1);
        }
        assert_eq!(ones.quantile(0.5), 1.0);
        assert_eq!(ones.quantile(0.99), 1.0);
        // Empty histogram: 0 by convention.
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        // Monotone in q.
        let mut mixed = Histogram::default();
        for v in [1u64, 10, 100, 1000, 10000] {
            mixed.record(v);
        }
        assert!(mixed.quantile(0.1) <= mixed.quantile(0.5));
        assert!(mixed.quantile(0.5) <= mixed.quantile(0.99));
    }

    #[test]
    fn quantile_error_is_within_one_log2_bucket() {
        let mut h = Histogram::default();
        let values: Vec<u64> = (0..1000).map(|i| 1 + i * 37 % 100_000).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.95, 0.99, 0.999] {
            let est = h.quantile(q);
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1] as f64;
            assert!(
                est <= truth * 2.0 && est * 2.0 >= truth,
                "q={q}: estimate {est} vs truth {truth} exceeds the factor-2 bound"
            );
        }
    }

    #[test]
    fn merge_is_associative_and_order_invariant() {
        let mk = |values: &[u64]| {
            let mut h = Histogram::default();
            for &v in values {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (mk(&[0, 1, 7]), mk(&[8, 9, 1024]), mk(&[3, 3, u64::MAX]));
        // (a + b) + c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a + (b + c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        // c + b + a
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev, "merge must commute");
        // Default is the identity.
        let mut with_id = left.clone();
        with_id.merge(&Histogram::default());
        assert_eq!(with_id, left);
    }

    #[test]
    fn sparse_roundtrip_and_tolerant_decode() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let enc = h.encode_sparse();
        assert!(!enc.contains(' ') && !enc.contains('\t') && !enc.contains('"'));
        assert_eq!(Histogram::decode_sparse(&enc).expect("roundtrip"), h);
        // The cross-process merge path: decode two encodings and merge.
        let mut doubled = h.clone();
        doubled.merge(&h);
        let mut merged = Histogram::decode_sparse(&enc).expect("decode");
        merged.merge(&Histogram::decode_sparse(&enc).expect("decode"));
        assert_eq!(merged, doubled);
        // Tolerant default for absent wire fields.
        assert_eq!(Histogram::decode_sparse("").expect("empty"), Histogram::default());
        assert_eq!(Histogram::decode_sparse("0;0;").expect("zero"), Histogram::default());
        // Malformed inputs are structured errors, not panics.
        for bad in ["x;0;", "1;0;", "2;3;0:1,99:1", "1;1;65:1", "1;1;0-1"] {
            assert!(Histogram::decode_sparse(bad).is_err(), "'{bad}' should not decode");
        }
    }

    #[test]
    fn atomic_histogram_snapshot_matches_serial_recording() {
        let ah = AtomicHistogram::new();
        let mut serial = Histogram::default();
        for v in [0u64, 1, 5, 5, 300, 1 << 40] {
            ah.record(v);
            serial.record(v);
        }
        assert_eq!(ah.snapshot(), serial);
        // Concurrent records never lose counts.
        let ah = std::sync::Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ah = std::sync::Arc::clone(&ah);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ah.record(t * 1000 + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("recorder thread");
        }
        assert_eq!(ah.snapshot().count, 4000);
    }

    #[test]
    fn timing_hist_names_are_detected_by_suffix() {
        assert!(is_timing_hist("server.latency_ns"));
        assert!(!is_timing_hist("eval.subset_size"));
        assert!(!is_timing_hist("ns_counts"));
        assert!(is_schedule_counter("runner.workers_spawned"));
        assert!(!is_schedule_counter("cells.ok"));
    }

    #[test]
    fn heartbeat_reports_last_phase() {
        let hb = Arc::new(Heartbeat::new());
        assert_eq!(hb.last(), "start");
        install_heartbeat(Arc::clone(&hb));
        heartbeat("gather");
        heartbeat("fit");
        clear_heartbeat();
        heartbeat("after-clear"); // no heartbeat installed: dropped
        assert_eq!(hb.last(), "fit");
    }

    #[test]
    fn span_updates_heartbeat_when_tracing() {
        with_tracing(|| {
            let hb = Arc::new(Heartbeat::new());
            install_heartbeat(Arc::clone(&hb));
            let depth = push_collector();
            {
                let _g = span("phase-x");
            }
            let _ = take_collector(depth);
            clear_heartbeat();
            assert_eq!(hb.last(), "phase-x");
        });
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn log_records_land_in_attached_collector() {
        with_tracing(|| {
            set_log_level(Level::Error); // silence stderr for the test
            let depth = push_collector();
            crate::warn!("test-target", "value {}", 42);
            let c = take_collector(depth).expect("collector present");
            let ev = c
                .events()
                .iter()
                .find(|e| matches!(e.kind, EventKind::Log(Level::Warn)))
                .expect("log event recorded");
            assert_eq!(ev.name, "test-target");
            assert_eq!(ev.msg, "value 42");
            set_log_level(Level::Warn);
        });
    }

    #[test]
    fn event_cap_drops_enters_with_their_exits() {
        with_tracing(|| {
            let mut c = Collector::new();
            // Fill right up to the cap with counter events.
            for _ in 0..MAX_EVENTS {
                c.push_event(Event {
                    kind: EventKind::Count,
                    name: "filler".into(),
                    t_ns: 0,
                    value: 1,
                    msg: String::new(),
                    group: 0,
                });
            }
            c.enter_span("late".into());
            c.exit_span();
            assert!(c.is_balanced());
            assert_eq!(c.events().len(), MAX_EVENTS);
            assert_eq!(c.dropped(), 1, "the Enter was dropped, its Exit skipped");
        });
    }
}
