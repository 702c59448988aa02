//! The in-tree sinks: [`CsvSink`], the one human-readable rendering of
//! the export stream (datasets, debugging), and [`MemorySink`], the
//! in-memory staging shape. The normative byte-level encoding lives in
//! [`crate::wire`].

use super::{ExportBatch, ExportRecord, Exporter, Sink, WIRE_VERSION};
use crate::metric::MetricKind;
use crate::tsdb::Tsdb;
use std::io::{self, Write};

/// CSV rendering of the export stream (see `docs/EXPORT_FORMAT.md`):
/// a `format` preamble row, a `batch` header row per batch, then one
/// kind-prefixed row per record. Metric names and units are
/// RFC-4180-quoted when they contain delimiters, quotes, or newlines.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    w: W,
    preamble_done: bool,
}

impl<W: Write> CsvSink<W> {
    /// Sink writing CSV rows to `w`.
    pub fn new(w: W) -> Self {
        CsvSink {
            w,
            preamble_done: false,
        }
    }

    /// Recover the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }

    /// Write the `format` preamble row now if it has not been written
    /// yet (idempotent; the first batch also triggers it). Call this
    /// when a legitimately empty export must still be identifiable as
    /// a valid `moda-export` stream rather than a truncated file.
    pub fn preamble(&mut self) -> io::Result<()> {
        if !self.preamble_done {
            writeln!(self.w, "format,moda-export,{WIRE_VERSION}")?;
            self.w.flush()?;
            self.preamble_done = true;
        }
        Ok(())
    }
}

impl<W: Write> Sink for CsvSink<W> {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        self.preamble()?;
        writeln!(self.w, "batch,{},{}", batch.seq, batch.records.len())?;
        for r in &batch.records {
            match r {
                ExportRecord::Meta { id, meta } => writeln!(
                    self.w,
                    "meta,{},{},{},{},{}",
                    id.0,
                    csv_escape(&meta.name),
                    kind_str(meta.kind),
                    csv_escape(&meta.unit),
                    meta.domain
                )?,
                ExportRecord::Sample { id, t, value } => {
                    writeln!(self.w, "sample,{},{},{}", id.0, t.0, value)?
                }
                ExportRecord::Bucket {
                    id,
                    res,
                    start,
                    count,
                    sum,
                    min,
                    max,
                    last,
                } => writeln!(
                    self.w,
                    "bucket,{},{},{},{count},{sum},{min},{max},{last}",
                    id.0, res.0, start.0
                )?,
                ExportRecord::Sketch {
                    id,
                    res,
                    start,
                    entry,
                } => writeln!(
                    self.w,
                    "sketch,{},{},{},{},{},{}",
                    id.0, res.0, start.0, entry.sign, entry.key, entry.count
                )?,
                ExportRecord::Chunk {
                    id,
                    count,
                    first_t,
                    last_t,
                    bytes,
                } => writeln!(
                    self.w,
                    "chunk,{},{count},{},{},{}",
                    id.0,
                    first_t.0,
                    last_t.0,
                    base64(bytes)
                )?,
            }
        }
        self.w.flush()
    }
}

/// In-memory sink retaining every batch — the test/replay staging shape
/// (and a handy tee: write retained batches into another sink later).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every batch received, in order.
    pub batches: Vec<ExportBatch>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Iterate all retained records across batches, in stream order.
    pub fn records(&self) -> impl Iterator<Item = &ExportRecord> {
        self.batches.iter().flat_map(|b| b.records.iter())
    }

    /// Total retained records.
    pub fn record_count(&self) -> usize {
        self.batches.iter().map(|b| b.records.len()).sum()
    }
}

impl Sink for MemorySink {
    fn write_batch(&mut self, batch: &ExportBatch) -> io::Result<()> {
        self.batches.push(batch.clone());
        Ok(())
    }
}

/// Full snapshot of a store as one CSV export stream (a fresh cursor
/// drained once — the "release an open dataset" shape). Incremental
/// pipelines should hold an [`Exporter`] instead.
pub fn snapshot_csv(db: &Tsdb) -> String {
    let mut out = Vec::new();
    let mut sink = CsvSink::new(&mut out);
    sink.preamble().expect("writing to a Vec cannot fail");
    Exporter::new()
        .drain(db, &mut sink)
        .expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("CSV sink emits UTF-8")
}

fn kind_str(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Gauge => "gauge",
        MetricKind::Counter => "counter",
    }
}

/// Quote a CSV field if it contains a delimiter, quote, or newline
/// (RFC 4180: embedded quotes double).
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Standard-alphabet base64 with `=` padding (RFC 4648) — how chunk
/// payload bytes render in CSV rows. The CSV sink is a write-only
/// archival form, so only encoding lives here; binary consumers take
/// the wire encoding, which carries the bytes raw.
fn base64(bytes: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for group in bytes.chunks(3) {
        let b = [
            group[0],
            *group.get(1).unwrap_or(&0),
            *group.get(2).unwrap_or(&0),
        ];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        let chars = [
            ALPHABET[(n >> 18) as usize & 63],
            ALPHABET[(n >> 12) as usize & 63],
            ALPHABET[(n >> 6) as usize & 63],
            ALPHABET[n as usize & 63],
        ];
        let keep = group.len() + 1;
        for (i, &c) in chars.iter().enumerate() {
            out.push(if i < keep { c as char } else { '=' });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricMeta, SourceDomain};
    use crate::tsdb::Tsdb;
    use moda_sim::SimTime;

    #[test]
    fn snapshot_csv_shape() {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge(
            "node.0.power",
            "W",
            SourceDomain::Hardware,
        ));
        db.insert(id, SimTime::from_secs(1), 100.0);
        db.insert(id, SimTime::from_secs(2), 110.0);
        let csv = snapshot_csv(&db);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "format,moda-export,1");
        assert_eq!(lines[1], "batch,0,3");
        assert_eq!(lines[2], "meta,0,node.0.power,gauge,W,hardware");
        assert_eq!(lines[3], "sample,0,1000,100");
        assert_eq!(lines[4], "sample,0,2000,110");
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn empty_store_exports_preamble_but_no_batches() {
        let db = Tsdb::new();
        // A snapshot of an empty store is still an identifiable (empty)
        // export stream, not a 0-byte file.
        assert_eq!(snapshot_csv(&db), "format,moda-export,1\n");
        let mut sink = MemorySink::new();
        let stats = Exporter::new().drain(&db, &mut sink).unwrap();
        assert!(stats.is_empty(), "{stats:?}");
        assert!(sink.batches.is_empty());
    }

    #[test]
    fn csv_escaping_of_hostile_metric_names() {
        let mut db = Tsdb::new();
        let id = db.register(MetricMeta::gauge(
            "rack,3.temp \"hot\"\nzone",
            "deg,C",
            SourceDomain::Facility,
        ));
        db.insert(id, SimTime::from_secs(1), 3.5);
        let csv = snapshot_csv(&db);
        assert!(
            csv.contains("meta,0,\"rack,3.temp \"\"hot\"\"\nzone\",gauge,\"deg,C\",facility"),
            "bad escaping: {csv}"
        );
        // Helper-level contract (RFC 4180).
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
        assert_eq!(csv_escape("n\nn"), "\"n\nn\"");
        assert_eq!(csv_escape("r\rr"), "\"r\rr\"");
    }
}
