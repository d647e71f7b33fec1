//! In-memory spans around the public layer calls the benchmark makes.
//!
//! A span records its name (`<layer>.<call>`, e.g. `core.engine.exact_join`),
//! start and end, the enclosing span, the op it belongs to and the
//! allocation events counted while it was open. Spans stay in memory and
//! are written out once, when the run ends. A layer's self time is its
//! spans' durations minus the part covered by their direct children.

use crate::alloc;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub allocs: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span name belongs to: everything before the last `.`.
pub fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Span recorder. When off, `enter`/`exit` do nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    op: u64,
    spans: Vec<Span>,
    /// Open spans: index into `spans` and the allocation count at entry.
    open: Vec<(usize, u64)>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            on: false,
            t0: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording (and allocation counting) on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
        alloc::set_counting(on);
    }

    /// Sets the op id recorded on the spans that follow.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map(|&(ix, _)| ix);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op: self.op,
            allocs: 0,
        });
        self.open.push((self.spans.len() - 1, alloc::count()));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let (ix, allocs0) = self.open.pop().expect("exit without enter");
        let span = &mut self.spans[ix];
        span.end_ns = end;
        span.allocs = alloc::count() - allocs0;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per op: the mean duration in ms of one span named `name`, over the
    /// ops that have at least one, so a metric means one call on every
    /// workload.
    pub fn per_op_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut by_op: BTreeMap<u64, (f64, u32)> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let (ms, calls) = by_op.entry(s.op).or_default();
            *ms += s.dur_ns() as f64 / 1e6;
            *calls += 1;
        }
        by_op
            .into_iter()
            .map(|(op, (ms, calls))| (op, ms / f64::from(calls)))
            .collect()
    }

    /// Per-layer totals over all spans.
    pub fn layers(&self) -> BTreeMap<String, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<String, LayerTotals> = BTreeMap::new();
        let mut ops: BTreeMap<String, std::collections::BTreeSet<u64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let layer = layer_of(s.name);
            let t = out.entry(layer.to_owned()).or_default();
            t.calls += 1;
            t.self_ns += s.dur_ns() - child_ns[i];
            // Inclusive time and allocations count once per outermost span
            // of the layer, so nested same-layer spans are not doubled.
            let nested = s
                .parent
                .is_some_and(|p| layer_of(self.spans[p].name) == layer);
            if !nested {
                t.incl_ns += s.dur_ns();
                t.allocs += s.allocs;
            }
            ops.entry(layer.to_owned()).or_default().insert(s.op);
        }
        for (layer, set) in ops {
            out.get_mut(&layer).expect("layer recorded").ops = set.len() as u64;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                s,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"allocs\":{}}}",
                sp.op, sp.name, sp.start_ns, sp.end_ns, sp.allocs
            )
            .expect("writing to a String cannot fail");
        }
        s
    }
}

/// Totals of one layer's spans.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub calls: u64,
    pub ops: u64,
    pub incl_ns: u64,
    pub self_ns: u64,
    pub allocs: u64,
}

impl LayerTotals {
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.ops.max(1) as f64
    }
}
