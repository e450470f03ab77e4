//! Run-level aggregation and the three exporters.
//!
//! A [`RunObserver`] collects one [`Collector`] per benchmark cell (keyed
//! by `(row, arm)`), optional per-row collectors for runner-level events,
//! and a run-scope collector for phases that precede the cells (ranking
//! warm-up). All maps are `BTreeMap`s and every exporter iterates them in
//! key order, so the exported byte streams are independent of the order in
//! which worker threads finished.
//!
//! Exporters:
//!
//! - [`RunObserver::chrome_trace`] — Chrome trace-event JSON, loadable in
//!   Perfetto or `about:tracing`. Each cell gets its own track; events
//!   absorbed from scoped child collectors (batched parallel measurements)
//!   are placed on per-cell worker lanes so overlapping wall-clock
//!   intervals never corrupt the begin/end nesting of the main track.
//! - [`RunObserver::metrics_text`] — Prometheus-style text dump of every
//!   counter, span count/duration and histogram. With `strip_timings` the
//!   clock-derived duration series are omitted, leaving only
//!   thread-count-invariant content.
//! - [`RunObserver::journal`] — JSONL event journal, one self-describing
//!   record per event, with scope headers. With `strip_timestamps` the
//!   `t`/`dur` fields are omitted, leaving only deterministic content.

use crate::{Collector, Event, EventKind, Histogram, Level};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

/// One recorded cell: its display label and its event stream.
#[derive(Debug)]
struct CellRecord {
    label: String,
    collector: Collector,
}

/// Aggregates the collectors of one benchmark run and exports them.
#[derive(Debug, Default)]
pub struct RunObserver {
    label: String,
    run: Mutex<Collector>,
    rows: Mutex<BTreeMap<usize, Collector>>,
    cells: Mutex<BTreeMap<(usize, usize), CellRecord>>,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl RunObserver {
    /// A fresh observer; `label` names the run in every export.
    pub fn new(label: impl Into<String>) -> RunObserver {
        RunObserver { label: label.into(), ..RunObserver::default() }
    }

    /// The run label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Records the collector of cell `(row, arm)`. A second record for the
    /// same key is absorbed into the first (keeps retries additive).
    pub fn record_cell(&self, row: usize, arm: usize, label: impl Into<String>, mut c: Collector) {
        c.finish();
        let mut cells = locked(&self.cells);
        match cells.get_mut(&(row, arm)) {
            Some(rec) => rec.collector.absorb(c),
            None => {
                cells.insert((row, arm), CellRecord { label: label.into(), collector: c });
            }
        }
    }

    /// Records runner-level events of one row (checkpoint writes, skip
    /// warnings). Merges with any previous record for the row.
    pub fn record_row(&self, row: usize, mut c: Collector) {
        c.finish();
        let mut rows = locked(&self.rows);
        match rows.get_mut(&row) {
            Some(existing) => existing.absorb(c),
            None => {
                rows.insert(row, c);
            }
        }
    }

    /// Folds run-scope events (pre-cell phases like ranking warm-up) into
    /// the run collector.
    pub fn absorb_run(&self, c: Collector) {
        locked(&self.run).absorb(c);
    }

    /// Adds to a run-scope counter directly (end-of-run summaries).
    pub fn run_counter(&self, name: impl Into<Cow<'static, str>>, delta: u64) {
        locked(&self.run).add_counter(name.into(), delta);
    }

    /// Convenience: records a single log event for a cell whose collector
    /// was lost (a watchdog timeout abandons the cell thread).
    pub fn log_cell(
        &self,
        row: usize,
        arm: usize,
        label: impl Into<String>,
        level: Level,
        target: &str,
        msg: String,
    ) {
        let mut c = Collector::new();
        c.log_event(level, target, msg);
        self.record_cell(row, arm, label, c);
    }

    // -- Chrome trace-event JSON -------------------------------------------

    /// Serializes the run as Chrome trace-event JSON (`ts` in microseconds,
    /// one `pid`, one track per cell plus worker lanes for absorbed fold
    /// groups). Open the result in <https://ui.perfetto.dev> or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let run = locked(&self.run);
        let rows = locked(&self.rows);
        let cells = locked(&self.cells);
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        push_meta(&mut out, &mut first, 0, "process_name", &format!("dfs run: {}", self.label));

        let mut next_tid: u64 = 1;
        let mut track = |out: &mut String, first: &mut bool, name: &str, c: &Collector| {
            let base = next_tid;
            // Reserve the base track plus one lane per distinct fold group
            // actually used (assigned greedily below).
            push_meta(out, first, base, "thread_name", name);
            let lanes = push_track_events(out, first, base, c, name);
            next_tid = base + 1 + lanes;
        };

        track(&mut out, &mut first, "run", &run);
        for (row, c) in rows.iter() {
            track(&mut out, &mut first, &format!("row {row}"), c);
        }
        for ((row, arm), rec) in cells.iter() {
            track(&mut out, &mut first, &format!("[{row}.{arm}] {}", rec.label), &rec.collector);
        }
        out.push_str("\n]}\n");
        out
    }

    // -- Prometheus-style metrics dump -------------------------------------

    /// Serializes every counter, span tally and histogram in Prometheus
    /// text exposition style. With `strip_timings` the clock-derived
    /// `dfs_span_duration_ns_total` series, the timing histograms and the
    /// scheduling counters are omitted so the dump is bit-identical at any
    /// thread count.
    pub fn metrics_text(&self, strip_timings: bool) -> String {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut span_count: BTreeMap<String, u64> = BTreeMap::new();
        let mut span_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut logs: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut dropped: u64 = 0;

        let mut fold = |c: &Collector| {
            for (k, v) in c.counters() {
                *counters.entry(k.to_string()).or_insert(0) += v;
            }
            for (k, h) in c.histograms() {
                hists.entry(k.to_string()).or_default().merge(h);
            }
            for ev in c.events() {
                match ev.kind {
                    EventKind::Exit => {
                        *span_count.entry(ev.name.to_string()).or_insert(0) += 1;
                        *span_ns.entry(ev.name.to_string()).or_insert(0) += ev.value;
                    }
                    EventKind::Log(level) => {
                        *logs.entry(level.as_str()).or_insert(0) += 1;
                    }
                    EventKind::Enter | EventKind::Count => {}
                }
            }
            dropped += c.dropped();
        };
        fold(&locked(&self.run));
        for c in locked(&self.rows).values() {
            fold(c);
        }
        for rec in locked(&self.cells).values() {
            fold(&rec.collector);
        }

        let mut out = String::new();
        let _ = writeln!(out, "# dfs-obs metrics: {}", self.label);
        if !counters.is_empty() {
            out.push_str("# TYPE dfs_counter_total counter\n");
            for (k, v) in &counters {
                if strip_timings && crate::is_schedule_counter(k) {
                    continue;
                }
                let _ = writeln!(out, "dfs_counter_total{{name=\"{}\"}} {v}", esc(k));
            }
        }
        if !span_count.is_empty() {
            out.push_str("# TYPE dfs_span_total counter\n");
            for (k, v) in &span_count {
                let _ = writeln!(out, "dfs_span_total{{name=\"{}\"}} {v}", esc(k));
            }
        }
        if !strip_timings && !span_ns.is_empty() {
            out.push_str("# TYPE dfs_span_duration_ns_total counter\n");
            for (k, v) in &span_ns {
                let _ = writeln!(out, "dfs_span_duration_ns_total{{name=\"{}\"}} {v}", esc(k));
            }
        }
        if !hists.is_empty() {
            out.push_str("# TYPE dfs_hist histogram\n");
            for (k, h) in &hists {
                if strip_timings && crate::is_timing_hist(k) {
                    // Duration histograms are clock-derived; the stripped
                    // dump omits them wholesale, like span durations.
                    continue;
                }
                let mut cumulative = 0u64;
                for (i, b) in h.buckets.iter().enumerate() {
                    if *b == 0 {
                        continue;
                    }
                    cumulative += b;
                    let _ = writeln!(
                        out,
                        "dfs_hist_bucket{{name=\"{}\",le=\"{}\"}} {cumulative}",
                        esc(k),
                        Histogram::bucket_bound(i)
                    );
                }
                let _ = writeln!(out, "dfs_hist_bucket{{name=\"{}\",le=\"+Inf\"}} {}", esc(k), h.count);
                let _ = writeln!(out, "dfs_hist_sum{{name=\"{}\"}} {}", esc(k), h.sum);
                let _ = writeln!(out, "dfs_hist_count{{name=\"{}\"}} {}", esc(k), h.count);
                for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
                    let _ = writeln!(
                        out,
                        "dfs_hist_quantile{{name=\"{}\",q=\"{label}\"}} {:.1}",
                        esc(k),
                        h.quantile(q)
                    );
                }
            }
        }
        if !logs.is_empty() {
            out.push_str("# TYPE dfs_log_records_total counter\n");
            for (k, v) in &logs {
                let _ = writeln!(out, "dfs_log_records_total{{level=\"{k}\"}} {v}");
            }
        }
        let _ = writeln!(out, "# TYPE dfs_events_dropped_total counter");
        let _ = writeln!(out, "dfs_events_dropped_total {dropped}");
        out
    }

    // -- JSONL journal ------------------------------------------------------

    /// Serializes the full event stream as JSONL: a run header, then for
    /// each scope a header record followed by its events in recorded
    /// order. With `strip_timestamps` the `t` and `dur` fields and the
    /// scheduling counters are omitted, leaving only thread-count-invariant
    /// content.
    pub fn journal(&self, strip_timestamps: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\"journal\":\"dfs-obs\",\"run\":\"{}\"}}", esc(&self.label));
        {
            let run = locked(&self.run);
            if !run.events().is_empty() || !run.histograms().is_empty() {
                out.push_str("{\"scope\":\"run\"}\n");
                for ev in run.events() {
                    push_journal_event(&mut out, ev, strip_timestamps);
                }
                push_journal_hists(&mut out, &run, strip_timestamps);
            }
        }
        let rows = locked(&self.rows);
        let cells = locked(&self.cells);
        // Interleave row-scope and cell-scope records in row order.
        let mut row_ids: Vec<usize> = rows.keys().copied().collect();
        for &(row, _) in cells.keys() {
            if !row_ids.contains(&row) {
                row_ids.push(row);
            }
        }
        row_ids.sort_unstable();
        for row in row_ids {
            if let Some(c) = rows.get(&row) {
                let _ = writeln!(out, "{{\"scope\":\"row\",\"row\":{row}}}");
                for ev in c.events() {
                    push_journal_event(&mut out, ev, strip_timestamps);
                }
                push_journal_hists(&mut out, c, strip_timestamps);
            }
            for ((r, arm), rec) in cells.range((row, 0)..(row + 1, 0)) {
                let _ = writeln!(
                    out,
                    "{{\"scope\":\"cell\",\"row\":{r},\"arm\":{arm},\"label\":\"{}\"}}",
                    esc(&rec.label)
                );
                for ev in rec.collector.events() {
                    push_journal_event(&mut out, ev, strip_timestamps);
                }
                push_journal_hists(&mut out, &rec.collector, strip_timestamps);
            }
        }
        out
    }

    // -- File export --------------------------------------------------------

    /// Writes the three export formats (`<label>.trace.json`,
    /// `<label>.metrics.txt`, `<label>.journal.jsonl`) into `dir`,
    /// creating it if needed. Returns the paths written; stops at the
    /// first IO error.
    pub fn export_to_dir(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let label = &self.label;
        let exports = [
            (format!("{label}.trace.json"), self.chrome_trace()),
            (format!("{label}.metrics.txt"), self.metrics_text(false)),
            (format!("{label}.journal.jsonl"), self.journal(false)),
        ];
        let mut written = Vec::with_capacity(exports.len());
        for (name, contents) in exports {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

/// The trace export directory: `DFS_TRACE_DIR`, defaulting to
/// `<tmp>/dfs-trace`.
pub fn trace_dir() -> std::path::PathBuf {
    std::env::var("DFS_TRACE_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir().join("dfs-trace"))
}

/// Escapes a string for embedding in a JSON string or Prometheus label.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn push_journal_event(out: &mut String, ev: &Event, strip: bool) {
    if strip && ev.kind == EventKind::Count && crate::is_schedule_counter(&ev.name) {
        return;
    }
    let e = match ev.kind {
        EventKind::Enter => "enter",
        EventKind::Exit => "exit",
        EventKind::Count => "count",
        EventKind::Log(_) => "log",
    };
    let _ = write!(out, "{{\"e\":\"{e}\",\"n\":\"{}\"", esc(&ev.name));
    if ev.group != 0 {
        let _ = write!(out, ",\"g\":{}", ev.group);
    }
    match ev.kind {
        EventKind::Count => {
            let _ = write!(out, ",\"v\":{}", ev.value);
        }
        EventKind::Log(level) => {
            let _ = write!(out, ",\"level\":\"{}\",\"msg\":\"{}\"", level.as_str(), esc(&ev.msg));
        }
        EventKind::Enter | EventKind::Exit => {}
    }
    if !strip {
        let _ = write!(out, ",\"t\":{}", ev.t_ns);
        if ev.kind == EventKind::Exit {
            let _ = write!(out, ",\"dur\":{}", ev.value);
        }
    }
    out.push_str("}\n");
}

/// Emits one self-describing record per histogram in the collector, in
/// name order: `{"h":"<name>","buckets":[[i,c],...],"count":N,"sum":S}`.
/// Buckets are `[index, count]` pairs of the sparse non-zero set, so a
/// reader can reconstruct and merge the exact log-bucketed histogram
/// across processes. With `strip`, clock-derived `*_ns` histograms are
/// omitted (same rule as span durations).
fn push_journal_hists(out: &mut String, c: &Collector, strip: bool) {
    for (name, h) in c.histograms() {
        if strip && crate::is_timing_hist(name) {
            continue;
        }
        let _ = write!(out, "{{\"h\":\"{}\",\"buckets\":[", esc(name));
        let mut first = true;
        for (i, b) in h.buckets.iter().enumerate() {
            if *b == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{i},{b}]");
        }
        let _ = writeln!(out, "],\"count\":{},\"sum\":{}}}", h.count, h.sum);
    }
}

fn sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push_str(",\n");
    }
}

fn push_meta(out: &mut String, first: &mut bool, tid: u64, kind: &str, name: &str) {
    sep(out, first);
    let _ = write!(
        out,
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    );
}

fn ts(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

/// Emits one collector's events. Fold group 0 goes on `base`; each fold
/// group `g >= 1` is greedily packed onto a worker lane (`base + 1 + k`)
/// whose previous group ended before it starts, so begin/end pairs on any
/// one tid are always well nested even though absorbed groups overlap in
/// wall-clock. Returns the number of lanes used.
fn push_track_events(
    out: &mut String,
    first: &mut bool,
    base: u64,
    c: &Collector,
    name: &str,
) -> u64 {
    // Pass 1: wall-clock interval of every fold group.
    let mut intervals: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for ev in c.events() {
        if ev.group == 0 {
            continue;
        }
        let entry = intervals.entry(ev.group).or_insert((ev.t_ns, ev.t_ns));
        entry.0 = entry.0.min(ev.t_ns);
        entry.1 = entry.1.max(ev.t_ns);
    }
    // Greedy first-fit lane assignment in group order (= fold order).
    const MAX_LANES: usize = 16;
    let mut lane_end: Vec<u64> = Vec::new();
    let mut lane_of: BTreeMap<u32, u64> = BTreeMap::new();
    for (g, (start, end)) in &intervals {
        let slot = lane_end.iter().position(|&e| e <= *start).unwrap_or_else(|| {
            if lane_end.len() < MAX_LANES {
                lane_end.push(0);
                lane_end.len() - 1
            } else {
                // Saturated: reuse the lane that frees up earliest.
                lane_end
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &e)| e)
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }
        });
        lane_end[slot] = (*end).max(lane_end[slot]);
        lane_of.insert(*g, base + 1 + slot as u64);
    }
    for (lane_idx, _) in lane_end.iter().enumerate() {
        push_meta(
            out,
            first,
            base + 1 + lane_idx as u64,
            "thread_name",
            &format!("{name} · worker {lane_idx}"),
        );
    }

    for ev in c.events() {
        let tid = if ev.group == 0 { base } else { *lane_of.get(&ev.group).unwrap_or(&base) };
        match ev.kind {
            EventKind::Enter => {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                    esc(&ev.name),
                    ts(ev.t_ns)
                );
            }
            EventKind::Exit => {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
                    esc(&ev.name),
                    ts(ev.t_ns)
                );
            }
            EventKind::Count => {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    esc(&ev.name),
                    ts(ev.t_ns),
                    ev.value
                );
            }
            EventKind::Log(level) => {
                sep(out, first);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"args\":{{\"level\":\"{}\",\"msg\":\"{}\"}}}}",
                    esc(&ev.name),
                    ts(ev.t_ns),
                    level.as_str(),
                    esc(&ev.msg)
                );
            }
        }
    }
    lane_end.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_trace_flag;
    use crate::{scoped, span};

    fn sample_observer() -> RunObserver {
        with_trace_flag(true, || {
            let obs = RunObserver::new("unit");
            let mut cell = Collector::new();
            cell.enter_span("cell".into());
            cell.add_counter("eval.cache_hit".into(), 3);
            cell.observe("eval.subset_size".into(), 5);
            // One absorbed fold group, as the batch engine produces.
            let (_, child) = scoped(|| {
                let _g = span("fit");
            });
            if let Some(child) = child {
                cell.absorb(child);
            }
            cell.exit_span();
            obs.record_cell(0, 1, "tiny#0/SFS(NR)", cell);

            let mut row = Collector::new();
            row.log_event(Level::Warn, "dfs-core", "row note".into());
            obs.record_row(0, row);
            obs.run_counter("cells.ok", 1);
            obs
        })
    }

    #[test]
    fn chrome_trace_is_json_shaped_and_places_groups_on_lanes() {
        let trace = sample_observer().chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":[") && trace.trim_end().ends_with("]}"));
        // Balanced braces — cheap structural sanity without a JSON parser.
        let opens = trace.matches('{').count();
        let closes = trace.matches('}').count();
        assert_eq!(opens, closes);
        // The absorbed "fit" span landed on a worker lane, not the base
        // track: its tid differs from the cell span's tid.
        let tid_of = |name: &str, ph: &str| -> Option<String> {
            trace.lines().find(|l| l.contains(&format!("\"name\":\"{name}\"")) && l.contains(&format!("\"ph\":\"{ph}\""))).map(|l| {
                let at = l.find("\"tid\":").expect("tid present") + 6;
                l[at..].chars().take_while(|c| c.is_ascii_digit()).collect()
            })
        };
        let cell_tid = tid_of("cell", "B").expect("cell span present");
        let fit_tid = tid_of("fit", "B").expect("fit span present");
        assert_ne!(cell_tid, fit_tid);
    }

    #[test]
    fn metrics_strip_removes_only_duration_series() {
        let obs = sample_observer();
        let full = obs.metrics_text(false);
        let stripped = obs.metrics_text(true);
        assert!(full.contains("dfs_span_duration_ns_total"));
        assert!(!stripped.contains("dfs_span_duration_ns_total"));
        for needle in [
            "dfs_counter_total{name=\"eval.cache_hit\"} 3",
            "dfs_counter_total{name=\"cells.ok\"} 1",
            "dfs_span_total{name=\"cell\"} 1",
            "dfs_hist_count{name=\"eval.subset_size\"} 1",
            "dfs_log_records_total{level=\"warning\"} 1",
            "dfs_events_dropped_total 0",
        ] {
            assert!(stripped.contains(needle), "missing {needle:?} in:\n{stripped}");
        }
    }

    #[test]
    fn strip_drops_scheduling_counters_from_both_exports() {
        let obs = sample_observer();
        obs.run_counter("runner.workers_spawned", 2);
        let series = "dfs_counter_total{name=\"runner.workers_spawned\"} 2";
        assert!(obs.metrics_text(false).contains(series));
        assert!(!obs.metrics_text(true).contains("runner."));
        assert!(obs.journal(false).contains("\"n\":\"runner.workers_spawned\""));
        let stripped = obs.journal(true);
        assert!(!stripped.contains("runner."));
        assert!(stripped.contains("\"n\":\"cells.ok\""), "other counters stay");
    }

    #[test]
    fn journal_strip_removes_timestamps_and_keeps_order() {
        let obs = sample_observer();
        let full = obs.journal(false);
        let stripped = obs.journal(true);
        assert!(full.contains("\"t\":"));
        assert!(!stripped.contains("\"t\":") && !stripped.contains("\"dur\":"));
        let lines: Vec<&str> = stripped.lines().collect();
        assert!(lines[0].contains("\"run\":\"unit\""));
        // Row scope precedes its cells; events preserve recorded order.
        let row_at = lines.iter().position(|l| l.contains("\"scope\":\"row\"")).expect("row header");
        let cell_at =
            lines.iter().position(|l| l.contains("\"scope\":\"cell\"")).expect("cell header");
        assert!(row_at < cell_at);
        let enter_at = lines.iter().position(|l| l.contains("\"e\":\"enter\",\"n\":\"cell\"")).expect("enter");
        let exit_at = lines
            .iter()
            .rposition(|l| l.contains("\"e\":\"exit\",\"n\":\"cell\""))
            .expect("exit");
        assert!(enter_at < exit_at);
    }

    #[test]
    fn metrics_surface_quantile_lines_per_histogram() {
        let text = sample_observer().metrics_text(true);
        for needle in [
            "dfs_hist_quantile{name=\"eval.subset_size\",q=\"0.5\"}",
            "dfs_hist_quantile{name=\"eval.subset_size\",q=\"0.95\"}",
            "dfs_hist_quantile{name=\"eval.subset_size\",q=\"0.99\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn journal_emits_sparse_histogram_records() {
        let obs = sample_observer();
        let journal = obs.journal(true);
        // The single observe(5) lands in bucket 3 (values 4..=7).
        assert!(
            journal.contains("{\"h\":\"eval.subset_size\",\"buckets\":[[3,1]],\"count\":1,\"sum\":5}"),
            "missing hist record in:\n{journal}"
        );
        // Timing histograms are stripped like span durations.
        let mut cell = Collector::new();
        cell.observe("fit.wall_ns".into(), 1234);
        obs.record_cell(1, 0, "timed", cell);
        let stripped = obs.journal(true);
        assert!(!stripped.contains("\"h\":\"fit.wall_ns\""));
        assert!(obs.journal(false).contains("\"h\":\"fit.wall_ns\""));
    }

    #[test]
    fn export_to_dir_writes_all_three_formats() {
        let dir = std::env::temp_dir().join(format!("dfs-obs-export-{}", std::process::id()));
        let written = sample_observer().export_to_dir(&dir).expect("export");
        assert_eq!(written.len(), 3);
        for path in &written {
            let meta = std::fs::metadata(path).expect("file exists");
            assert!(meta.len() > 0, "empty export {path:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn esc_handles_quotes_and_control_chars() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
