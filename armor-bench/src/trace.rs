//! The benchmark's own span recorder, used only by the traced run.
//!
//! Spans are opened in the benchmark's code around each call it makes into
//! a workspace crate (the crate is the span's layer). Each span records its
//! name, layer, start, end, parent (the span open on the same thread when it
//! started) and an operation id that ties the spans of one request or pass
//! together. Spans stay in memory until [`write_jsonl`] saves them when the
//! run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// The call that was timed, e.g. `run_grid_stored`.
    pub name: &'static str,
    /// The workspace crate the call went into.
    pub layer: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Operation id shared by the spans of one request or pass.
    pub op: u64,
}

struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        origin: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

fn now_ns() -> u64 {
    recorder().origin.elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    recorder();
    ENABLED.store(on, Ordering::SeqCst);
}

/// An open span; dropping it records the end time.
#[must_use = "a span times the scope it is alive for"]
pub struct Span(Option<usize>);

/// Opens a span over a call into `layer`. Inert while recording is off.
pub fn span(layer: &'static str, name: &'static str, op: u64) -> Span {
    if !ENABLED.load(Ordering::SeqCst) {
        return Span(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let mut spans = recorder().spans.lock().expect("span list poisoned");
    spans.push(SpanRec {
        name,
        layer,
        start_ns,
        end_ns: 0,
        parent,
        op,
    });
    let index = spans.len() - 1;
    drop(spans);
    OPEN.with(|open| open.borrow_mut().push(index));
    Span(Some(index))
}

/// Times `f` under a span.
pub fn timed<T>(layer: &'static str, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    let _span = span(layer, name, op);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&i| i == index) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = recorder().spans.lock() {
            if let Some(s) = spans.get_mut(index) {
                s.end_ns = end_ns;
            }
        }
    }
}

/// A copy of every span recorded so far.
pub fn spans() -> Vec<SpanRec> {
    recorder().spans.lock().expect("span list poisoned").clone()
}

/// Durations in seconds of the finished spans called `name`.
pub fn durations_s(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns > 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .collect()
}

/// Self time per layer, in seconds: each span's duration minus the part of
/// its interval that its child spans cover.
pub fn self_time_by_layer(spans: &[SpanRec]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = children.get_mut(p) {
                c.push((s.start_ns, s.end_ns));
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, mut kids) in spans.iter().zip(children) {
        if s.end_ns < s.start_ns || s.end_ns == 0 {
            continue;
        }
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Writes the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.layer, s.start_ns, s.end_ns, s.op
        ));
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "call",
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            rec("explore", 0, 100, None),
            rec("store", 10, 30, Some(0)),
            rec("store", 20, 40, Some(0)), // overlaps its sibling
            rec("nn", 50, 60, Some(0)),
            rec("tensor", 52, 55, Some(3)),
        ];
        let selfs = self_time_by_layer(&spans);
        let ns = |layer: &str| (selfs[layer] * 1e9).round() as u64;
        assert_eq!(ns("explore"), 100 - 30 - 10);
        assert_eq!(ns("store"), 20 + 20);
        assert_eq!(ns("nn"), 10 - 3);
        assert_eq!(ns("tensor"), 3);
    }
}
