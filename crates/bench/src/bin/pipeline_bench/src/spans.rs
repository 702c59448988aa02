//! Benchmark-side tracing: one span around each call into a layer's
//! public function, kept in a preallocated buffer and written out when
//! the run ends. Nothing here touches the library — spans inside the
//! program are a later change.

use std::io::{self, Write};
use std::time::Instant;

/// What a span was recorded around. Names are the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One whole operation of the workload (a flight, a sweep, a replayed
    /// batch): the parent of every layer span inside it.
    Op,
    TsdbInsert,
    TsdbWindowRead,
    ExportDrain,
    TransportWriteBatch,
    TransportAckWait,
    TransportQuery,
    ControlLockWait,
    ControlTick,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::TsdbInsert => "tsdb.insert",
            Layer::TsdbWindowRead => "tsdb.window_read",
            Layer::ExportDrain => "export.drain",
            Layer::TransportWriteBatch => "transport.write_batch",
            Layer::TransportAckWait => "transport.ack_wait",
            Layer::TransportQuery => "transport.query",
            Layer::ControlLockWait => "control.lock_wait",
            Layer::ControlTick => "control.tick",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder, or `NO_PARENT`.
    pub parent: u32,
    /// Operation the span belongs to; spans of one operation share it.
    pub op: u32,
}

/// A single-thread span recorder with stack-shaped nesting. Disabled, it
/// costs one branch per call; full, it counts what it dropped.
#[derive(Debug)]
pub struct SpanRec {
    origin: Instant,
    spans: Vec<Span>,
    /// Indices of the open spans, innermost last (`NO_PARENT` for one
    /// entered after the buffer filled).
    open: Vec<u32>,
    capacity: usize,
    dropped: u64,
    op: u32,
}

impl SpanRec {
    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self::with_capacity(Instant::now(), 0)
    }

    /// A recorder holding at most `capacity` spans, timed from `origin`.
    pub fn with_capacity(origin: Instant, capacity: usize) -> Self {
        SpanRec {
            origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            capacity,
            dropped: 0,
            op: 0,
        }
    }

    /// Spans entered from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Open a span; every `enter` needs its `exit`.
    pub fn enter(&mut self, layer: Layer) {
        if self.capacity == 0 {
            return;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            self.open.push(NO_PARENT);
            return;
        }
        let now = self.origin.elapsed().as_nanos() as u64;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            op: self.op,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if self.capacity == 0 {
            return;
        }
        let idx = self.open.pop().expect("exit without enter");
        if idx != NO_PARENT {
            self.spans[idx as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append this recorder's spans as JSON lines, tagged with `thread`.
    pub fn write_jsonl(&self, thread: usize, out: &mut impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\":{thread},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                s.op
            )?;
        }
        Ok(())
    }
}

/// Self time and call count of one layer over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub self_ns: u64,
    pub calls: u64,
}

/// Per-layer self times: a span's duration minus the part its direct
/// children cover. Children are nested inside their parent by
/// construction, so the subtraction never goes negative.
pub fn self_times(spans: &[Span]) -> Vec<(Layer, SelfTime)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: Vec<(Layer, SelfTime)> = Vec::new();
    for (s, covered) in spans.iter().zip(&child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(*covered);
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, t)) => {
                t.self_ns += own;
                t.calls += 1;
            }
            None => out.push((
                s.layer,
                SelfTime {
                    self_ns: own,
                    calls: 1,
                },
            )),
        }
    }
    out.sort_by_key(|(l, _)| *l);
    out
}

/// `(layer_ns, op_ns)`: the self time of every layer span that lies
/// inside an `Op` span, and the summed duration of the `Op` spans. Their
/// ratio is the share of the operations' wall time the layers explain;
/// what is left is the benchmark's own loop. Layer spans outside any
/// operation (warm-up) count on neither side.
pub fn attribution(spans: &[Span]) -> (u64, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    let mut in_op = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        in_op[i] = s.layer == Layer::Op || (s.parent != NO_PARENT && in_op[s.parent as usize]);
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let (mut layer_ns, mut op_ns) = (0, 0);
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        if s.layer == Layer::Op {
            op_ns += dur;
        } else if in_op[i] {
            layer_ns += dur.saturating_sub(child_ns[i]);
        }
    }
    (layer_ns, op_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // op [0,100] > drain [10,70] > write [20,50]; op > insert [70,90].
        let spans = [
            span(Layer::Op, 0, 100, NO_PARENT),
            span(Layer::ExportDrain, 10, 70, 0),
            span(Layer::TransportWriteBatch, 20, 50, 1),
            span(Layer::TsdbInsert, 70, 90, 0),
        ];
        let t = self_times(&spans);
        let of = |l: Layer| t.iter().find(|(k, _)| *k == l).unwrap().1;
        assert_eq!(of(Layer::Op).self_ns, 100 - 60 - 20);
        assert_eq!(of(Layer::ExportDrain).self_ns, 60 - 30);
        assert_eq!(of(Layer::TransportWriteBatch).self_ns, 30);
        assert_eq!(
            of(Layer::TsdbInsert),
            SelfTime {
                self_ns: 20,
                calls: 1
            }
        );
        // 30 + 30 + 20 of the op's 100 ns are inside a layer; a layer
        // span outside any operation counts on neither side.
        assert_eq!(attribution(&spans), (80, 100));
        let mut with_warmup = spans.to_vec();
        with_warmup.push(span(Layer::TsdbInsert, 200, 260, NO_PARENT));
        assert_eq!(attribution(&with_warmup), (80, 100));
    }

    #[test]
    fn recorder_nests_by_stack_and_counts_overflow() {
        let mut rec = SpanRec::with_capacity(Instant::now(), 3);
        rec.set_op(7);
        rec.enter(Layer::Op);
        rec.enter(Layer::ExportDrain);
        rec.enter(Layer::TransportWriteBatch);
        rec.exit();
        rec.enter(Layer::TransportWriteBatch); // buffer full: dropped
        rec.exit();
        rec.exit();
        rec.exit();
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(rec.dropped(), 1);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert!(s.iter().all(|x| x.op == 7 && x.end_ns >= x.start_ns));
        assert!(s[0].end_ns >= s[1].end_ns && s[1].end_ns >= s[2].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(2, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = SpanRec::disabled();
        rec.enter(Layer::Op);
        rec.exit();
        assert!(rec.spans().is_empty());
    }
}
