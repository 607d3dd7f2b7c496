//! Record sinks: where emitted spans/events go.
//!
//! * [`RingBufferSink`] — bounded in-memory buffer with a shareable
//!   read handle; what profiles are usually folded from.
//! * [`JsonlSink`] — streams every record as one JSON object per line;
//!   the `--trace` artifact under `results/`.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::record_to_json;
use crate::record::Record;

/// A destination for trace records. Called under the recorder's sink
/// lock — implementations should stay quick.
pub trait Sink: Send {
    /// Receives one record.
    fn record(&mut self, record: &Record);

    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}
}

#[derive(Debug, Default)]
struct RingInner {
    records: VecDeque<Record>,
    capacity: usize,
    dropped: u64,
}

/// Read handle onto a [`RingBufferSink`]'s storage.
#[derive(Debug, Clone)]
pub struct RingBufferHandle(Arc<Mutex<RingInner>>);

impl RingBufferHandle {
    /// Snapshot of the buffered records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let inner = self.0.lock().expect("ring buffer poisoned");
        inner.records.iter().cloned().collect()
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.0.lock().expect("ring buffer poisoned").records.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.0.lock().expect("ring buffer poisoned").dropped
    }

    /// Clears the buffer (keeps capacity).
    pub fn clear(&self) {
        let mut inner = self.0.lock().expect("ring buffer poisoned");
        inner.records.clear();
        inner.dropped = 0;
    }
}

/// Bounded in-memory sink; evicts oldest records once full.
#[derive(Debug)]
pub struct RingBufferSink(RingBufferHandle);

impl RingBufferSink {
    /// Creates the sink plus its read handle.
    pub fn with_capacity(capacity: usize) -> (RingBufferSink, RingBufferHandle) {
        let handle = RingBufferHandle(Arc::new(Mutex::new(RingInner {
            records: VecDeque::with_capacity(capacity.min(4096)),
            capacity: capacity.max(1),
            dropped: 0,
        })));
        (RingBufferSink(handle.clone()), handle)
    }
}

impl Sink for RingBufferSink {
    fn record(&mut self, record: &Record) {
        let mut inner = self.0 .0.lock().expect("ring buffer poisoned");
        if inner.records.len() >= inner.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(record.clone());
    }
}

/// Streams records to a file as JSON Lines.
#[derive(Debug)]
pub struct JsonlSink {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl JsonlSink {
    /// Creates/truncates the file at `path` (creating parent dirs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn create(path: impl AsRef<Path>) -> crate::Result<JsonlSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
            path: path.to_path_buf(),
        })
    }

    /// The file being written.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads a JSONL trace file back into records.
    ///
    /// # Errors
    ///
    /// Propagates I/O and per-line JSON failures.
    pub fn read_records(path: impl AsRef<Path>) -> crate::Result<Vec<Record>> {
        let text = std::fs::read_to_string(path)?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(crate::json::record_from_json)
            .collect()
    }
}

impl Sink for JsonlSink {
    fn record(&mut self, record: &Record) {
        let line = record_to_json(record).render();
        // Trace output is best-effort: a full disk must not take the
        // simulation down with it.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::SpanStart {
                id: 1,
                parent: None,
                name: "a".into(),
                fields: vec![("k".into(), FieldValue::U64(3))],
                t_ns: 10,
                thread: 1,
            },
            Record::Event {
                span: Some(1),
                name: "e".into(),
                fields: vec![],
                t_ns: 20,
                thread: 1,
            },
            Record::SpanEnd {
                id: 1,
                t_ns: 30,
                elapsed_ns: 20,
            },
        ]
    }

    #[test]
    fn ring_buffer_stores_and_evicts() {
        let (mut sink, handle) = RingBufferSink::with_capacity(2);
        for r in sample_records() {
            sink.record(&r);
        }
        assert_eq!(handle.len(), 2, "capacity 2 keeps newest 2");
        assert_eq!(handle.dropped(), 1);
        // Oldest evicted: first stored record is the event.
        assert!(matches!(handle.records()[0], Record::Event { .. }));
        handle.clear();
        assert!(handle.is_empty());
    }

    #[test]
    fn jsonl_writes_and_reads_back() {
        let dir = std::env::temp_dir().join("stco_obs_sink_test");
        let path = dir.join("trace.jsonl");
        let records = sample_records();
        {
            let mut sink = JsonlSink::create(&path).expect("creates");
            assert_eq!(sink.path(), path.as_path());
            for r in &records {
                sink.record(r);
            }
            sink.flush();
        }
        let back = JsonlSink::read_records(&path).expect("reads");
        assert_eq!(back, records);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
