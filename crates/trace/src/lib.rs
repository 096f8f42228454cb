//! **betty-trace** — the observability layer of the Betty workspace.
//!
//! A trace holds each measurement once, on one clock (the recorder's
//! origin), and exports it as JSON-lines (one event object per line)
//! plus a human-readable summary folded from the same records:
//!
//! 1. **Step and epoch records** ([`StepRecord`], [`EpochStats`]): the
//!    [`StepStats`] the trainer returns for each completed step — its
//!    measured peak beside the plan's Eq. 5 estimate, with the
//!    per-category breakdown at the peak instant — and the
//!    [`EpochStats`] each epoch call returns. The stats types live here,
//!    so the trace stores the trainer's own values rather than copies.
//! 2. **Spans** ([`SpanRecord`]): timed phases of an epoch/step —
//!    `sample → partition → plan → transfer → forward → backward →
//!    allreduce` — tagged with monotonic epoch/step ids and placed from
//!    the instants the code took. Compute spans carry wall-clock
//!    durations; transfer/allreduce spans carry the simulated link
//!    seconds the cost models produce.
//! 3. **Memory timeline** ([`MemEvent`], recorded by
//!    `betty_device::Device` into a [`MemTimeline`] on the recorder's
//!    clock): every `alloc`/`free` appends the running device total, the
//!    signed delta, and the category, so the exact shape of a step's
//!    memory curve is reconstructable.
//!
//! Everything is opt-in: the recorder lives behind an `Option` in the
//! trainer and the timeline behind an `Option` in the device, so a run
//! with tracing disabled executes the exact same instruction stream
//! (losses are bit-identical tracing on or off; this is tested).

#![deny(missing_docs)]

use std::fmt;
use std::time::Instant;

mod stats;

pub use stats::{EpochStats, StepStats};
use stats::hit_rate;

/// Which phase of training a span covers, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Neighbor sampling of the epoch's full training batch.
    Sample,
    /// Batch-level graph partitioning (REG build + cut).
    Partition,
    /// Memory-aware planning (estimation + micro-batch extraction).
    Plan,
    /// Host→device transfer of one micro-batch (simulated seconds).
    Transfer,
    /// Forward pass of one micro-batch.
    Forward,
    /// Backward pass of one micro-batch.
    Backward,
    /// Gradient all-reduce across a simulated device group.
    Allreduce,
    /// An all-reduce retry window: a timed-out sync round plus its
    /// seeded-jitter exponential backoff before the next attempt.
    LinkRetry,
    /// Elastic failover: migrating a lost device's unfinished
    /// micro-batches onto survivors and rebuilding the ring.
    Failover,
    /// Partition-ahead staging window: from the moment a future epoch's
    /// slot on the planner thread opened (its sampling + planning could
    /// begin) until the epoch consumed the staged bundle. By construction this window contains
    /// the previous epoch's forward/backward spans — the visible proof
    /// that partition work left the critical path.
    PlanAhead,
    /// Mid-run storage repair: a feature shard failed its payload CRC
    /// and was reconstructed bit-identically from its XOR parity group
    /// (the span's modelled seconds cover the parity/peer reads).
    StorageRepair,
}

impl SpanKind {
    /// Every kind, in pipeline order.
    pub const ALL: [SpanKind; 11] = [
        SpanKind::Sample,
        SpanKind::Partition,
        SpanKind::Plan,
        SpanKind::Transfer,
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Allreduce,
        SpanKind::LinkRetry,
        SpanKind::Failover,
        SpanKind::PlanAhead,
        SpanKind::StorageRepair,
    ];

    /// Stable lowercase name used in the JSONL `kind` field.
    pub const fn name(&self) -> &'static str {
        match self {
            SpanKind::Sample => "sample",
            SpanKind::Partition => "partition",
            SpanKind::Plan => "plan",
            SpanKind::Transfer => "transfer",
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Allreduce => "allreduce",
            SpanKind::LinkRetry => "link_retry",
            SpanKind::Failover => "failover",
            SpanKind::PlanAhead => "plan_ahead",
            SpanKind::StorageRepair => "storage_repair",
        }
    }
}

impl fmt::Display for SpanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Phase this span covers.
    pub kind: SpanKind,
    /// Epoch the span belongs to.
    pub epoch: usize,
    /// Global step id for per-step spans; `None` for epoch-level spans
    /// (sample/partition/plan/allreduce).
    pub step: Option<usize>,
    /// Seconds since the recorder was created when the span began.
    pub start_sec: f64,
    /// Span duration in seconds (wall-clock for compute spans, simulated
    /// link time for transfer/allreduce spans).
    pub dur_sec: f64,
}

/// One device-memory ledger event: an alloc (positive delta) or free
/// (negative delta) and the running total right after it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemEvent {
    /// Monotonic sequence number within the timeline.
    pub seq: u64,
    /// Seconds on the trace recorder's clock.
    pub at_sec: f64,
    /// Bytes in use on the device after this event.
    pub total_bytes: usize,
    /// Signed size of the event (+alloc / −free); a bulk `free_all` is
    /// one event with the whole released size.
    pub delta_bytes: i64,
    /// Stable category name (`betty_device::MemoryCategory::name`), or
    /// `"free_all"` for a bulk release.
    pub category: &'static str,
}

/// Append-only device-memory timeline, filled by
/// `betty_device::Device` when its timeline is enabled.
#[derive(Debug, Clone)]
pub struct MemTimeline {
    origin: Instant,
    next_seq: u64,
    events: Vec<MemEvent>,
}

impl MemTimeline {
    /// An empty timeline stamping seconds since `origin` — the trace
    /// recorder's ([`TraceRecorder::timeline`]).
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            next_seq: 0,
            events: Vec::new(),
        }
    }

    /// Appends one ledger event, stamping the sequence number and clock.
    pub fn record(&mut self, total_bytes: usize, delta_bytes: i64, category: &'static str) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(MemEvent {
            seq,
            at_sec: self.origin.elapsed().as_secs_f64(),
            total_bytes,
            delta_bytes,
            category,
        });
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[MemEvent] {
        &self.events
    }

    /// Removes and returns the recorded events; sequence numbers keep
    /// growing across drains.
    pub fn drain(&mut self) -> Vec<MemEvent> {
        std::mem::take(&mut self.events)
    }
}

/// What a completed step measured, as the trace holds it: the trainer's
/// [`StepStats`] and the device's per-category breakdown at the instant
/// of the step's peak (so the parts always sum to exactly the peak).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Epoch of the step.
    pub epoch: usize,
    /// The step's stats, as the trainer returned them.
    pub stats: StepStats,
    /// Bytes per category at the peak instant (stable category names).
    pub breakdown: Vec<(&'static str, usize)>,
}

/// One entry of the run's recovery log — an injected fault or a
/// recovery action — as a pair of stable strings (the trace crate is below
/// the crates that define the log, so it cannot name its events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Epoch the entry was recorded in.
    pub epoch: usize,
    /// Stable kind slug (e.g. `"alloc_failure"`, `"oom_retry"`).
    pub kind: String,
    /// The line the recovery log prints for the entry.
    pub detail: String,
}

/// The trace of one training run on one clock: spans, memory events, one
/// record per completed step and per epoch, and fault/recovery records,
/// all stamped with monotonic epoch/step ids.
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    origin: Instant,
    epoch: usize,
    spans: Vec<SpanRecord>,
    mem: Vec<(usize, MemEvent)>,
    steps: Vec<StepRecord>,
    epochs: Vec<(usize, EpochStats)>,
    faults: Vec<FaultRecord>,
    /// Compute backend and storage precision of the run, when the trainer
    /// stamped them (`("simd", "bf16")`-style pairs).
    run_context: Option<(String, String)>,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// An empty recorder whose clock starts now, at epoch 0.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            epoch: 0,
            spans: Vec::new(),
            mem: Vec::new(),
            steps: Vec::new(),
            epochs: Vec::new(),
            faults: Vec::new(),
            run_context: None,
        }
    }

    /// A memory timeline on this recorder's clock, for the device ledger
    /// to fill.
    pub fn timeline(&self) -> MemTimeline {
        MemTimeline::new(self.origin)
    }

    /// Stamps the run's compute backend and storage precision; emitted as
    /// the leading `run` JSON line and echoed in the summary so traces
    /// from different backend/dtype configurations are distinguishable.
    pub fn set_run_context(&mut self, backend: impl Into<String>, precision: impl Into<String>) {
        self.run_context = Some((backend.into(), precision.into()));
    }

    /// The stamped `(backend, precision)` pair, if any.
    pub fn run_context(&self) -> Option<(&str, &str)> {
        self.run_context
            .as_ref()
            .map(|(b, p)| (b.as_str(), p.as_str()))
    }

    /// Sets the epoch stamped onto subsequently recorded events.
    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
    }

    /// Seconds elapsed since the recorder was created: where a span of
    /// simulated seconds, which no clock measured, begins.
    pub fn now_sec(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Converts an [`Instant`] the caller took (on any thread) into
    /// seconds on this recorder's clock. Instants predating the recorder
    /// clamp to `0.0`.
    pub fn sec_at(&self, at: Instant) -> f64 {
        at.checked_duration_since(self.origin)
            .map_or(0.0, |d| d.as_secs_f64())
    }

    /// Records a span at the current epoch.
    pub fn record_span(&mut self, kind: SpanKind, step: Option<usize>, start_sec: f64, dur_sec: f64) {
        self.spans.push(SpanRecord {
            kind,
            epoch: self.epoch,
            step,
            start_sec,
            dur_sec,
        });
    }

    /// Attributes drained device-timeline events to a step.
    pub fn record_mem_events(&mut self, step: usize, events: Vec<MemEvent>) {
        self.mem.extend(events.into_iter().map(|e| (step, e)));
    }

    /// Records a completed step at the current epoch, with its at-peak
    /// category breakdown.
    pub fn record_step(&mut self, stats: StepStats, breakdown: Vec<(&'static str, usize)>) {
        self.steps.push(StepRecord {
            epoch: self.epoch,
            stats,
            breakdown,
        });
    }

    /// Keeps the first `len` step records and drops the rest: the steps of
    /// an attempt the caller rolled back, which no epoch record counts.
    pub fn truncate_steps(&mut self, len: usize) {
        self.steps.truncate(len);
    }

    /// Records the stats an epoch call returned, at the current epoch.
    pub fn record_epoch(&mut self, stats: EpochStats) {
        self.epochs.push((self.epoch, stats));
    }

    /// Records one recovery-log entry of `epoch`, as a stable kind slug
    /// plus the line the log prints for it.
    pub fn record_fault(&mut self, epoch: usize, kind: impl Into<String>, detail: impl Into<String>) {
        self.faults.push(FaultRecord {
            epoch,
            kind: kind.into(),
            detail: detail.into(),
        });
    }

    /// All fault/recovery records, in record order.
    pub fn fault_records(&self) -> &[FaultRecord] {
        &self.faults
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All step-attributed memory events, in record order.
    pub fn mem_events(&self) -> &[(usize, MemEvent)] {
        &self.mem
    }

    /// All step records, in record order.
    pub fn steps(&self) -> &[StepRecord] {
        &self.steps
    }

    /// All epoch records as `(epoch, stats)` pairs, in record order.
    pub fn epochs(&self) -> &[(usize, EpochStats)] {
        &self.epochs
    }

    /// Total recorded events of every type.
    pub fn len(&self) -> usize {
        self.spans.len() + self.mem.len() + self.steps.len() + self.epochs.len() + self.faults.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the whole trace as JSON-lines: the `run` line, then
    /// `span`, `mem`, `step`, `epoch` and `fault` events, each in record
    /// order. Every line is a self-contained JSON object with a `type`
    /// discriminator (see DESIGN.md "Observability" for the schema).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some((backend, precision)) = &self.run_context {
            out.push_str(&format!(
                "{{\"type\":\"run\",\"backend\":\"{}\",\"precision\":\"{}\"}}\n",
                jstr(backend),
                jstr(precision),
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"kind\":\"{}\",\"epoch\":{},\"step\":{},\"start_sec\":{},\"dur_sec\":{}}}\n",
                s.kind.name(),
                s.epoch,
                opt_usize(s.step),
                jnum(s.start_sec),
                jnum(s.dur_sec),
            ));
        }
        for (step, e) in &self.mem {
            out.push_str(&format!(
                "{{\"type\":\"mem\",\"step\":{step},\"seq\":{},\"at_sec\":{},\"total_bytes\":{},\"delta_bytes\":{},\"category\":\"{}\"}}\n",
                e.seq,
                jnum(e.at_sec),
                e.total_bytes,
                e.delta_bytes,
                e.category,
            ));
        }
        for r in &self.steps {
            let s = &r.stats;
            let breakdown: Vec<String> =
                r.breakdown.iter().map(|(name, bytes)| format!("\"{name}\":{bytes}")).collect();
            out.push_str(&format!(
                "{{\"type\":\"step\",\"epoch\":{},\"step\":{},\"loss\":{},\"compute_sec\":{},\"transfer_sec\":{},\
                 \"peak_bytes\":{},\"estimated_bytes\":{},\"input_nodes\":{},\"total_src_nodes\":{},\
                 \"feature_hits\":{},\"feature_misses\":{},\"feature_pages_in\":{},\"feature_page_in_bytes\":{},\
                 \"page_in_sec\":{},\"repair_sec\":{},\"breakdown\":{{{}}}}}\n",
                r.epoch,
                s.step,
                jnum(s.loss),
                jnum(s.compute_sec),
                jnum(s.transfer_sec),
                s.peak_bytes,
                s.estimated_bytes,
                s.input_nodes,
                s.total_src_nodes,
                s.feature_hits,
                s.feature_misses,
                s.feature_pages_in,
                s.feature_page_in_bytes,
                jnum(s.page_in_sec),
                jnum(s.repair_sec),
                breakdown.join(","),
            ));
        }
        for (epoch, e) in &self.epochs {
            out.push_str(&format!(
                "{{\"type\":\"epoch\",\"epoch\":{epoch},\"loss\":{},\"num_steps\":{},\"compute_sec\":{},\
                 \"transfer_sec\":{},\"max_peak_bytes\":{},\"estimated_peak_bytes\":{},\"estimator_drift\":{},\
                 \"total_input_nodes\":{},\"total_src_nodes\":{},\"host_bytes\":{},\"plan_ahead_overlap_sec\":{},\
                 \"pool_hits\":{},\"pool_misses\":{},\"pool_bytes_recycled\":{},\"feature_hits\":{},\
                 \"feature_misses\":{},\"feature_pages_in\":{},\"feature_page_in_bytes\":{},\
                 \"page_in_sec\":{},\"repair_sec\":{}}}\n",
                jnum(e.loss),
                e.num_steps,
                jnum(e.compute_sec),
                jnum(e.transfer_sec),
                e.max_peak_bytes,
                e.estimated_peak_bytes,
                jnum(e.estimator_drift),
                e.total_input_nodes,
                e.total_src_nodes,
                e.host_bytes,
                jnum(e.plan_ahead_overlap_sec),
                e.pool_hits,
                e.pool_misses,
                e.pool_bytes_recycled,
                e.feature_hits,
                e.feature_misses,
                e.feature_pages_in,
                e.feature_page_in_bytes,
                jnum(e.page_in_sec),
                jnum(e.repair_sec),
            ));
        }
        for fault in &self.faults {
            out.push_str(&format!(
                "{{\"type\":\"fault\",\"epoch\":{},\"kind\":\"{}\",\"detail\":\"{}\"}}\n",
                fault.epoch,
                jstr(&fault.kind),
                jstr(&fault.detail),
            ));
        }
        out
    }

    /// Writes [`TraceRecorder::to_jsonl`] to a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// Human-readable multi-line summary, folded from the records:
    /// per-kind span counts and total durations, memory-event count, the
    /// worst step peak with its breakdown, the estimator-drift envelope,
    /// and the epochs' pool and feature-store counters.
    pub fn summary(&self) -> String {
        let mut out = String::from("trace summary:");
        if let Some((backend, precision)) = &self.run_context {
            out.push_str(&format!("\n  run        backend {backend}, precision {precision}"));
        }
        for kind in SpanKind::ALL {
            let (count, total): (usize, f64) = self
                .spans
                .iter()
                .filter(|s| s.kind == kind)
                .fold((0, 0.0), |(c, t), s| (c + 1, t + s.dur_sec));
            if count > 0 {
                out.push_str(&format!(
                    "\n  {:<10} {count:>6} spans  {total:>10.4}s total",
                    kind.name()
                ));
            }
        }
        out.push_str(&format!("\n  memory     {:>6} ledger events", self.mem.len()));
        if let Some(worst) = self.steps.iter().max_by_key(|r| r.stats.peak_bytes) {
            out.push_str(&format!(
                "\n  peak      {} bytes at epoch {} step {} (",
                worst.stats.peak_bytes, worst.epoch, worst.stats.step
            ));
            let parts: Vec<String> = worst
                .breakdown
                .iter()
                .filter(|(_, b)| *b > 0)
                .map(|(n, b)| format!("{n} {b}"))
                .collect();
            out.push_str(&parts.join(", "));
            out.push(')');
        }
        let priced = self.steps.iter().filter_map(|r| Some((r, r.stats.drift()?)));
        if let Some((worst, ratio)) = priced.clone().max_by(|a, b| a.1.total_cmp(&b.1)) {
            out.push_str(&format!(
                "\n  drift     {} records, worst measured/estimated {ratio:.4} at epoch {} step {} ({})",
                priced.count(),
                worst.epoch,
                worst.stats.step,
                if ratio <= 1.0 {
                    "all estimates admissible"
                } else {
                    "UNDERESTIMATES present"
                }
            ));
        }
        if !self.epochs.is_empty() {
            let mut total = EpochStats::default();
            for (_, e) in &self.epochs {
                total.pool_hits += e.pool_hits;
                total.pool_misses += e.pool_misses;
                total.pool_bytes_recycled += e.pool_bytes_recycled;
                total.feature_hits += e.feature_hits;
                total.feature_misses += e.feature_misses;
                total.feature_pages_in += e.feature_pages_in;
                total.feature_page_in_bytes += e.feature_page_in_bytes;
            }
            let (hits, misses) = (total.pool_hits, total.pool_misses);
            out.push_str(&format!(
                "\n  alloc     {} epochs, pool {hits} hits / {misses} misses ({:.1}% hit rate), {} bytes recycled",
                self.epochs.len(),
                hit_rate(hits, misses, 0.0) * 100.0,
                total.pool_bytes_recycled,
            ));
            // Only epochs that read features count: an idle store reads none.
            let read = self.epochs.iter().filter(|(_, e)| e.feature_hits + e.feature_misses > 0);
            match read.count() {
                0 => {}
                epochs => out.push_str(&format!(
                    "\n  features  {epochs} epochs, {} hits / {} misses ({:.1}% hit rate), {} pages in, {} bytes read",
                    total.feature_hits,
                    total.feature_misses,
                    total.feature_hit_rate() * 100.0,
                    total.feature_pages_in,
                    total.feature_page_in_bytes,
                )),
            }
        }
        if !self.faults.is_empty() {
            out.push_str(&format!(
                "\n  fault     {} recovery-log entries, first at epoch {} ({})",
                self.faults.len(),
                self.faults[0].epoch,
                self.faults[0].kind,
            ));
        }
        out
    }
}

/// Formats an optional step id as a JSON value (`null` when absent).
fn opt_usize(v: Option<usize>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float as a JSON number (non-finite values become `0`,
/// which JSON cannot represent).
fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Deepest nesting of arrays and objects [`validate_jsonl`] accepts.
/// Exported records nest at most 3 deep; the bound keeps the recursive
/// descent from overflowing the stack on hostile input.
const MAX_NESTING: usize = 128;

/// Validates that `input` is well-formed JSON-lines: every non-empty line
/// must parse as a standalone JSON value. Returns the number of lines
/// validated.
///
/// This is a deliberately minimal structural parser (objects, arrays,
/// strings with escapes, numbers, booleans, null) so schema checks work
/// without a JSON dependency — CI's trace-smoke job and the integration
/// tests both run exported traces through it.
///
/// # Errors
///
/// Returns `(line_number, message)` for the first malformed line
/// (1-based), including a line nesting arrays and objects more than 128
/// deep.
pub fn validate_jsonl(input: &str) -> Result<usize, (usize, String)> {
    let mut lines = 0;
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut p = JsonParser {
            bytes: line.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        p.value().map_err(|e| (i + 1, e))?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err((i + 1, format!("trailing bytes at offset {}", p.pos)));
        }
        lines += 1;
    }
    Ok(lines)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                b as char, self.pos
            ))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(format!("expected '{lit}' at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_NESTING => Err(format!(
                "nesting deeper than {MAX_NESTING} at offset {}",
                self.pos
            )),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<(), String>) -> Result<(), String> {
        self.depth += 1;
        let parsed = body(self);
        self.depth -= 1;
        parsed
    }

    fn object(&mut self) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.value()?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        while let Some(c) = self.peek() {
            self.pos += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    // Any single escaped byte is fine for validation
                    // purposes (\uXXXX consumes its hex digits below).
                    match self.peek() {
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(h) if h.is_ascii_hexdigit() => self.pos += 1,
                                    _ => return Err("bad \\u escape".to_string()),
                                }
                            }
                        }
                        Some(_) => self.pos += 1,
                        None => return Err("dangling escape".to_string()),
                    }
                }
                _ => {}
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut digits = 0;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
            digits += 1;
        }
        if digits == 0 {
            return Err(format!("bad number at offset {start}"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let mut frac = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                frac += 1;
            }
            if frac == 0 {
                return Err(format!("bad fraction at offset {start}"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let mut exp = 0;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
                exp += 1;
            }
            if exp == 0 {
                return Err(format!("bad exponent at offset {start}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_context_is_stamped_into_jsonl_and_summary() {
        let mut t = TraceRecorder::new();
        assert_eq!(t.run_context(), None);
        t.set_run_context("simd", "bf16");
        assert_eq!(t.run_context(), Some(("simd", "bf16")));
        let jsonl = t.to_jsonl();
        assert!(
            jsonl.starts_with("{\"type\":\"run\",\"backend\":\"simd\",\"precision\":\"bf16\"}\n"),
            "{jsonl}"
        );
        validate_jsonl(&jsonl).expect("run line must be valid JSON");
        assert!(t.summary().contains("backend simd, precision bf16"));
        // The context is metadata, not an event.
        assert!(t.is_empty());
    }

    /// A step the plan priced at `estimated` bytes that peaked at `peak`.
    fn priced_step(step: usize, peak: usize, estimated: usize) -> StepStats {
        StepStats {
            step,
            loss: 0.25,
            peak_bytes: peak,
            estimated_bytes: estimated,
            ..StepStats::default()
        }
    }

    #[test]
    fn recorder_round_trip_and_jsonl_schema() {
        let mut t = TraceRecorder::new();
        assert!(t.is_empty());
        t.set_epoch(2);
        t.record_span(SpanKind::Sample, None, 0.0, 0.25);
        t.record_span(SpanKind::Forward, Some(7), 0.3, 0.1);
        t.record_mem_events(
            7,
            vec![MemEvent {
                seq: 0,
                at_sec: 0.31,
                total_bytes: 128,
                delta_bytes: 128,
                category: "blocks",
            }],
        );
        let step = priced_step(7, 128, 150);
        t.record_step(step, vec![("blocks", 128), ("labels", 0)]);
        let mut epoch = EpochStats {
            pool_hits: 30,
            pool_misses: 10,
            pool_bytes_recycled: 4096,
            ..EpochStats::default()
        };
        epoch.absorb(&step);
        t.record_epoch(epoch);
        t.record_fault(2, "anomaly_rollback", "anomaly rollback 1: injected non-finite loss at step 8");
        assert_eq!(t.len(), 6);
        assert_eq!(t.fault_records().len(), 1);
        assert_eq!(t.fault_records()[0].epoch, 2);
        assert_eq!(t.spans()[0].epoch, 2);
        assert_eq!(t.spans()[1].step, Some(7));
        assert_eq!((t.steps()[0].epoch, t.steps()[0].stats), (2, step));
        assert_eq!(t.epochs(), &[(2, epoch)]);

        let jsonl = t.to_jsonl();
        let lines = validate_jsonl(&jsonl).expect("exported trace must be valid JSONL");
        assert_eq!(lines, 6);
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"kind\":\"sample\""));
        assert!(jsonl.contains("\"step\":null"));
        assert!(jsonl.contains("\"type\":\"mem\""));
        assert!(jsonl.contains("\"type\":\"step\",\"epoch\":2,\"step\":7,"), "{jsonl}");
        assert!(jsonl.contains("\"peak_bytes\":128,\"estimated_bytes\":150,"), "{jsonl}");
        assert!(jsonl.contains("\"breakdown\":{\"blocks\":128,\"labels\":0}"), "{jsonl}");
        assert!(jsonl.contains("\"type\":\"epoch\",\"epoch\":2,"), "{jsonl}");
        assert!(jsonl.contains("\"pool_bytes_recycled\":4096"));
        assert!(jsonl.contains("\"type\":\"fault\""));
        assert!(jsonl.contains("\"kind\":\"anomaly_rollback\""));

        let summary = t.summary();
        assert!(summary.contains("sample"), "{summary}");
        assert!(summary.contains("peak      128 bytes at epoch 2 step 7 (blocks 128)"), "{summary}");
        assert!(summary.contains("drift     1 records"), "{summary}");
        assert!(summary.contains("all estimates admissible"), "{summary}");
        assert!(summary.contains("(75.0% hit rate), 4096 bytes recycled"), "{summary}");
        assert!(summary.contains("1 recovery-log entries"), "{summary}");
    }

    /// The epoch records carry the workspace pool's counters; the summary
    /// folds them into a hit rate, and an idle pool reads 0 %.
    #[test]
    fn alloc_records_track_epoch_and_hit_rate() {
        let mut t = TraceRecorder::new();
        t.set_epoch(3);
        let stats = EpochStats {
            pool_hits: 90,
            pool_misses: 10,
            pool_bytes_recycled: 1 << 20,
            ..EpochStats::default()
        };
        t.record_epoch(stats);
        assert_eq!(t.epochs(), &[(3, stats)]);
        let jsonl = t.to_jsonl();
        validate_jsonl(&jsonl).expect("epoch lines must be valid JSONL");
        assert!(jsonl.contains("\"type\":\"epoch\",\"epoch\":3,"), "{jsonl}");
        assert!(jsonl.contains("\"pool_bytes_recycled\":1048576"), "{jsonl}");
        let summary = t.summary();
        assert!(summary.contains("pool 90 hits / 10 misses (90.0% hit rate), 1048576 bytes recycled"), "{summary}");

        let mut idle = TraceRecorder::new();
        idle.record_epoch(EpochStats::default());
        let summary = idle.summary();
        assert!(summary.contains("pool 0 hits / 0 misses (0.0% hit rate)"), "{summary}");
    }

    /// The epoch records carry the feature store's counters; they export
    /// to JSONL and fold into the summary. An idle store never misses: no
    /// `features` line, and a 1.0 rate in [`EpochStats`].
    #[test]
    fn featurestore_records_export_and_summarize() {
        let mut t = TraceRecorder::new();
        t.set_epoch(2);
        let stats = EpochStats {
            feature_hits: 75,
            feature_misses: 25,
            feature_pages_in: 5,
            feature_page_in_bytes: 10_240,
            ..EpochStats::default()
        };
        t.record_epoch(stats);
        assert_eq!(t.epochs(), &[(2, stats)]);
        assert!((stats.feature_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(t.len(), 1);
        let jsonl = t.to_jsonl();
        validate_jsonl(&jsonl).expect("epoch lines must be valid JSONL");
        assert!(jsonl.contains("\"feature_pages_in\":5"));
        assert!(jsonl.contains("\"feature_page_in_bytes\":10240"));
        let summary = t.summary();
        assert!(summary.contains("features  1 epochs, 75 hits / 25 misses (75.0% hit rate)"), "{summary}");
        assert!(summary.contains("5 pages in, 10240 bytes read"), "{summary}");

        let mut idle = TraceRecorder::new();
        idle.record_epoch(EpochStats::default());
        let summary = idle.summary();
        assert!(!summary.contains("features"), "an idle store reads nothing: {summary}");
        assert_eq!(EpochStats::default().feature_hit_rate(), 1.0, "an idle store never misses");
    }

    #[test]
    fn drift_ratio_flags_underestimates() {
        let under = priced_step(0, 150, 100);
        assert!((under.drift().unwrap() - 1.5).abs() < 1e-12);
        let mut t = TraceRecorder::new();
        t.record_step(priced_step(1, 90, 100), Vec::new());
        t.record_step(under, Vec::new());
        // An unpriced step is no drift record, whatever its peak.
        t.record_step(priced_step(2, 500, 0), Vec::new());
        let summary = t.summary();
        assert!(summary.contains("drift     2 records, worst measured/estimated 1.5000 at epoch 0 step 0"), "{summary}");
        assert!(summary.contains("UNDERESTIMATES"), "{summary}");
        // Zero estimate never divides by zero.
        assert_eq!(priced_step(0, 5, 0).drift(), None);
    }

    #[test]
    fn timeline_sequences_and_drains() {
        let mut tl = TraceRecorder::new().timeline();
        assert!(tl.events().is_empty());
        tl.record(100, 100, "parameters");
        tl.record(40, -60, "free_all");
        assert_eq!(tl.events().len(), 2);
        assert_eq!(tl.events()[0].seq, 0);
        assert_eq!(tl.events()[1].delta_bytes, -60);
        let drained = tl.drain();
        assert_eq!(drained.len(), 2);
        assert!(tl.events().is_empty());
        tl.record(0, -40, "free_all");
        assert_eq!(tl.events()[0].seq, 2, "sequence survives draining");
    }

    #[test]
    fn validator_accepts_good_and_rejects_bad() {
        assert_eq!(
            validate_jsonl("{\"a\":1}\n[1,2,3]\n\"x\\\"y\\u00e9\"\n-1.5e-3\ntrue\nnull\n").unwrap(),
            6
        );
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
        assert!(validate_jsonl("{\"a\":}").is_err());
        assert!(validate_jsonl("{\"a\":1,}").is_err());
        assert!(validate_jsonl("[1,2").is_err());
        assert!(validate_jsonl("\"unterminated").is_err());
        assert!(validate_jsonl("1.").is_err());
        assert!(validate_jsonl("{} extra").is_err());
        let err = validate_jsonl("{\"ok\":1}\nnot json").unwrap_err();
        assert_eq!(err.0, 2, "error names the offending line");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(validate_jsonl(&nest(MAX_NESTING)), Ok(1));
        let err = validate_jsonl(&format!("{{}}\n{}", nest(MAX_NESTING + 1))).unwrap_err();
        assert_eq!(err.0, 2);
        assert!(err.1.starts_with("nesting deeper than 128"), "{}", err.1);
        let deep = "[".repeat(1_000_000);
        let err = validate_jsonl(&deep).unwrap_err();
        assert!(err.1.starts_with("nesting deeper than 128"), "{}", err.1);
        let objects = "{\"a\":".repeat(1_000_000);
        assert!(validate_jsonl(&objects).unwrap_err().1.starts_with("nesting deeper"));
    }

    /// A real export with every record type.
    fn exported_trace() -> String {
        let mut t = TraceRecorder::new();
        t.set_run_context("simd", "f32");
        for epoch in 0..3 {
            t.set_epoch(epoch);
            t.record_span(SpanKind::Sample, None, 0.0, 0.25);
            t.record_span(SpanKind::Forward, Some(epoch), 0.3, 0.1);
            t.record_mem_events(
                epoch,
                vec![MemEvent {
                    seq: epoch as u64,
                    at_sec: 0.31,
                    total_bytes: 128,
                    delta_bytes: -64,
                    category: "blocks",
                }],
            );
            let step = priced_step(epoch, 128, 150);
            t.record_step(step, vec![("blocks", 128), ("labels", 0)]);
            let mut stats = EpochStats::default();
            stats.absorb(&step);
            t.record_epoch(stats);
            t.record_fault(epoch, "link_stall", "round 3: +0.250s \"stall\"");
        }
        t.to_jsonl()
    }

    /// Seeded byte-level fuzz of the validator over a real export: bit
    /// flips, truncations, splices and runs of `[` / `{` at random
    /// offsets. Every case must come back `Ok` or `Err` — no panic, no
    /// stack overflow. A failing case prints its kind, number and seed.
    #[test]
    fn mutated_traces_validate_to_a_structured_outcome() {
        let valid = exported_trace().into_bytes();
        assert!(validate_jsonl(std::str::from_utf8(&valid).unwrap()).is_ok());
        // SplitMix64: the crate has no RNG dependency.
        let next = |state: &mut u64| {
            *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for case in 0..4000u64 {
            let seed = 0x7ace_f022 ^ case;
            let mut rng = seed;
            let mut at = |bound: usize| (next(&mut rng) % bound as u64) as usize;
            let mut bytes = valid.clone();
            let kind = ["flip", "truncate", "splice", "open-run"][case as usize % 4];
            match kind {
                "flip" => {
                    for _ in 0..1 + at(4) {
                        let bit = at(bytes.len() * 8);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                "truncate" => bytes.truncate(at(valid.len())),
                "splice" => {
                    let (cut, from) = (at(valid.len()), at(valid.len()));
                    bytes.truncate(cut);
                    bytes.extend_from_slice(&valid[from..]);
                }
                _ => {
                    let open = if at(2) == 0 { b'[' } else { b'{' };
                    let longest = if at(8) == 0 { 100_000 } else { 300 };
                    let run = 1 + at(longest);
                    let offset = at(valid.len());
                    bytes.splice(offset..offset, std::iter::repeat_n(open, run));
                }
            }
            let text = String::from_utf8_lossy(&bytes);
            let outcome = std::panic::catch_unwind(|| validate_jsonl(&text));
            assert!(outcome.is_ok(), "case {case} ({kind}, seed {seed:#x}) panicked");
        }
    }

    #[test]
    fn span_kind_names_are_stable() {
        assert_eq!(SpanKind::ALL.len(), 11);
        for kind in SpanKind::ALL {
            assert!(!kind.name().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
    }

    #[test]
    fn sec_at_maps_instants_onto_the_recorder_clock() {
        let tr = TraceRecorder::new();
        let before = Instant::now() - std::time::Duration::from_secs(60);
        assert_eq!(tr.sec_at(before), 0.0, "pre-origin instants clamp to zero");
        let later = Instant::now() + std::time::Duration::from_millis(50);
        let sec = tr.sec_at(later);
        assert!(sec > 0.0 && sec < 60.0, "{sec}");
    }

    #[test]
    fn fault_records_round_trip_through_jsonl_and_summary() {
        let mut tr = TraceRecorder::new();
        tr.record_fault(2, "link_stall", "0.250s stall on all-reduce round 3");
        tr.record_fault(2, "device_fail", "device 1 failed after 2 \"steps\"");
        assert_eq!(tr.fault_records().len(), 2);
        assert_eq!(tr.len(), 2);
        let jsonl = tr.to_jsonl();
        assert_eq!(validate_jsonl(&jsonl).unwrap(), 2, "{jsonl}");
        assert!(jsonl.contains("\"type\":\"fault\""), "{jsonl}");
        assert!(jsonl.contains("\\\"steps\\\""), "quotes must be escaped: {jsonl}");
        let summary = tr.summary();
        assert!(summary.contains("2 recovery-log entries"), "{summary}");
        assert!(summary.contains("epoch 2"), "{summary}");
    }
}
