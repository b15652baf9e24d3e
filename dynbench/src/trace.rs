//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a layer:
//! name, start, end, parent and the id of the window or campaign they
//! belong to. Nothing is written until the run ends. A disabled tracer
//! records nothing, so the untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `comm.stream`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Window or campaign id the span belongs to.
    pub step: u64,
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    step: u64,
}

impl Tracer {
    /// Creates a tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            step: 0,
        }
    }

    /// Sets the window or campaign id stamped on spans opened from now on.
    pub fn set_step(&mut self, step: u64) {
        self.step = step;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            step: self.step,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[idx as usize].end = end;
        out
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON (`dynbench.trace.v1`).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"dynbench.trace.v1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"step\":{}}}",
                s.name, s.start, s.end, parent, s.step
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer over the trees rooted at spans named
/// `root`. A span's layer is its name up to the first `.`; unqualified
/// spans count as the benchmark's own layer, `bench`.
pub fn self_time_by_layer(spans: &[Span], root: &str) -> BTreeMap<String, u64> {
    let mut tree_root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        tree_root[i] = match spans.get(s.parent as usize) {
            Some(_) => tree_root[s.parent as usize],
            None => i,
        };
    }
    let mut out = BTreeMap::new();
    for (i, t) in self_times(spans).into_iter().enumerate() {
        if spans[tree_root[i]].name != root {
            continue;
        }
        let layer = match spans[i].name.split_once('.') {
            Some((layer, _)) => layer.to_string(),
            None => "bench".to_string(),
        };
        *out.entry(layer).or_insert(0) += t;
    }
    out
}

/// Per-step self time of spans named `name`, in ns, one entry per step
/// that has such a span.
pub fn self_time_per_step(spans: &[Span], name: &str) -> Vec<u64> {
    let mut per: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if s.name == name {
            *per.entry(s.step).or_insert(0) += t;
        }
    }
    per.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            step: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // window [0,100): comm.rpc [10,40) with a grandchild [15,25),
        // sched [50,60), and an overlapping sibling [55,70).
        let spans = vec![
            span("window", 0, 100, ROOT),
            span("comm.rpc", 10, 40, 0),
            span("net.inner", 15, 25, 1),
            span("sched.dispatch", 50, 60, 0),
            span("sched.dispatch", 55, 70, 0),
        ];
        let t = self_times(&spans);
        // Children of the window cover [10,40) and [50,70): 50 ns.
        assert_eq!(t, vec![50, 20, 10, 10, 15]);
        let by_layer = self_time_by_layer(&spans, "window");
        assert_eq!(by_layer["sched"], 25);
        assert_eq!(by_layer["bench"], 50);
        assert_eq!(by_layer["net"], 10);
        assert_eq!(by_layer["comm"], 20);
        assert!(self_time_by_layer(&spans, "campaign").is_empty());
        assert_eq!(self_time_per_step(&spans, "comm.rpc"), vec![20]);
        // Self times of a tree always add up to the root's duration when
        // children do not overlap.
        let flat = vec![
            span("root", 0, 90, ROOT),
            span("a", 0, 30, 0),
            span("b", 30, 80, 0),
            span("c", 35, 45, 2),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 90);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        on.set_step(3);
        on.span("outer", |t| t.span("inner", |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].step, 3);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(on.to_json("w", 1).contains("\"parent\":0"));
    }
}
