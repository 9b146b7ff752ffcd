//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! A span has a name, start, end and parent; the spans of one operation
//! (one build, one edit, one click) share an operation id. Spans stay in
//! memory and are written out once, when the run ends. A span's self time
//! is its duration minus the union of its children's intervals, so
//! overlapping children are not counted twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span opened by [`Tracer::enter`]; close it with [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

/// Records nested spans on one thread. While disabled, `enter`/`exit` cost
/// one branch and record nothing, so traced and untraced operations run
/// the same code.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            enabled: false,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 1,
        }
    }

    /// Turns recording on or off for the spans entered from now on.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span; with no span
    /// open it starts a new operation.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let op = match self.stack.last() {
            Some(&i) => self.spans[i].op,
            None => {
                self.next_op += 1;
                self.next_op - 1
            }
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            id: idx as u32,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans closed out of order");
            self.stack.pop();
            self.spans[idx].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Adds a finished root span recorded elsewhere (e.g. a click timed by
    /// a receiver thread), as its own operation.
    pub fn push_root(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: None,
            op: self.next_op,
            name,
            start_ns,
            end_ns,
        });
        self.next_op += 1;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span (same order as `spans`): its duration minus the
/// union of its children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// One traced operation: its root span's duration and the self time per
/// span name inside it. The root's own self time is listed under
/// [`UNATTRIBUTED`], so the parts always add up to the root's duration.
pub struct OpBreakdown {
    pub root: &'static str,
    pub dur_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
}

/// Name under which a root span's self time is reported.
pub const UNATTRIBUTED: &str = "unattributed";

/// Groups spans by operation into per-name self times.
pub fn breakdown(spans: &[Span]) -> Vec<OpBreakdown> {
    let selfs = self_times(spans);
    let mut ops: BTreeMap<u64, OpBreakdown> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        ops.insert(
            s.op,
            OpBreakdown {
                root: s.name,
                dur_ns: s.dur_ns(),
                self_ns: BTreeMap::new(),
            },
        );
    }
    for (s, own) in spans.iter().zip(selfs) {
        if let Some(op) = ops.get_mut(&s.op) {
            let key = if s.parent.is_none() {
                UNATTRIBUTED
            } else {
                s.name
            };
            *op.self_ns.entry(key).or_default() += own;
        }
    }
    ops.into_values().collect()
}

/// The typical operation among `ops` taken apart: the mean duration and
/// mean self time per name of the operations whose duration ranks in the
/// middle fifth (40th to 60th percentile). The parts add up to the
/// duration exactly, which medians taken per part separately do not.
pub fn median_band(ops: &[&OpBreakdown]) -> Option<(f64, BTreeMap<&'static str, f64>)> {
    if ops.is_empty() {
        return None;
    }
    let mut by_dur: Vec<&&OpBreakdown> = ops.iter().collect();
    by_dur.sort_by_key(|o| o.dur_ns);
    let n = by_dur.len();
    let (lo, hi) = (n * 2 / 5, (n * 3 / 5).max(n * 2 / 5 + 1));
    let band = &by_dur[lo..hi];
    let k = band.len() as f64;
    let mut parts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for op in band {
        for (&name, &ns) in &op.self_ns {
            *parts.entry(name).or_default() += ns as f64 / k;
        }
    }
    let dur = band.iter().map(|o| o.dur_ns as f64).sum::<f64>() / k;
    Some((dur, parts))
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"op":{},"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.op, s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: if parent.is_none() { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Root 0..100; children 10..40 and 30..60 overlap (union 10..60 =
        // 50), plus 70..80 and one sticking out past the root (90..120,
        // clipped to 90..100). Covered = 50 + 10 + 10 = 70.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(0), 70, 80),
            span(4, Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 30);
        assert_eq!(&selfs[1..], &[30, 30, 10, 30]);
    }

    #[test]
    fn nested_children_only_subtract_from_their_parent() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn the_median_band_adds_up_to_its_mean_duration() {
        let op = |dur_ns: u64, a: u64| OpBreakdown {
            root: "edit",
            dur_ns,
            self_ns: [("a", a), (UNATTRIBUTED, dur_ns - a)].into_iter().collect(),
        };
        // Durations 10..=100; the band is the 5th and 6th (50 and 60).
        let ops: Vec<OpBreakdown> = (1..=10).rev().map(|i| op(i * 10, i * 4)).collect();
        let refs: Vec<&OpBreakdown> = ops.iter().collect();
        let (dur, parts) = median_band(&refs).unwrap();
        assert_eq!(dur, 55.0);
        assert_eq!(parts["a"], 22.0);
        assert_eq!(parts.values().sum::<f64>(), dur);
        assert!(median_band(&[]).is_none());
    }

    #[test]
    fn breakdown_parts_add_up_to_the_root() {
        let mut t = Tracer::new(Instant::now());
        t.set_enabled(true);
        let root = t.enter("edit");
        t.span("store", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("refresh", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        t.exit(root);
        t.set_enabled(false);
        t.span("ignored", || ());
        let ops = breakdown(t.spans());
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(op.root, "edit");
        let keys: Vec<_> = op.self_ns.keys().copied().collect();
        assert_eq!(keys, ["refresh", "store", UNATTRIBUTED]);
        assert_eq!(op.self_ns.values().sum::<u64>(), op.dur_ns);
        assert!(op.self_ns["store"] >= 2_000_000);
    }
}
