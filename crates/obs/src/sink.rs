//! The JSONL telemetry sink: an optional process-wide destination that
//! receives one JSON object per line as events occur (span exits). No sink
//! is installed by default — recording into the registry never touches I/O
//! unless the embedder asked for it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

static SINK: Mutex<Option<Box<dyn Write + Send>>> = Mutex::new(None);

/// Hand-rolled JSON formatting helpers, shared with the registry's
/// serializers (this crate deliberately has no serde dependency).
pub mod json {
    /// Escapes and quotes `s` as a JSON string literal.
    pub fn string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Formats an `f64` as a JSON number (`null` for NaN/±inf, which JSON
    /// cannot represent).
    pub fn number(v: f64) -> String {
        if v.is_finite() {
            // `{}` on f64 round-trips and never produces exponent-less
            // forms that JSON rejects.
            format!("{v}")
        } else {
            "null".to_string()
        }
    }
}

/// Installs a JSONL sink writing to the file at `path` (truncating it).
/// Replaces any previously installed sink.
pub fn install_jsonl_sink(path: &Path) -> io::Result<()> {
    let file = File::create(path)?;
    install_writer(Box::new(BufWriter::new(file)));
    Ok(())
}

/// Installs an arbitrary writer as the telemetry sink (tests use an
/// in-memory buffer). Replaces any previously installed sink.
pub fn install_writer(w: Box<dyn Write + Send>) {
    let mut sink = SINK.lock().unwrap_or_else(|p| p.into_inner());
    *sink = Some(w);
}

/// Removes and flushes the current sink, if any.
pub fn uninstall_sink() {
    let mut sink = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(mut w) = sink.take() {
        let _ = w.flush();
    }
}

/// Whether a sink is currently installed. Hot paths check this before
/// building event strings.
pub fn sink_active() -> bool {
    SINK.lock().unwrap_or_else(|p| p.into_inner()).is_some()
}

/// Writes one pre-formatted JSON line to the sink, if one is installed.
/// Write errors are swallowed — telemetry must never fail the workload.
pub fn emit_line(line: &str) {
    let mut sink = SINK.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(w) = sink.as_mut() {
        let _ = w.write_all(line.as_bytes());
        let _ = w.write_all(b"\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex as StdMutex};

    /// A Write impl capturing into shared memory so tests can inspect what
    /// the sink received after uninstalling.
    struct Capture(Arc<StdMutex<Vec<u8>>>);
    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json::string("plain"), "\"plain\"");
        assert_eq!(json::string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json::string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json::string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_number_handles_nonfinite() {
        assert_eq!(json::number(1.5), "1.5");
        assert_eq!(json::number(-3.0), "-3");
        assert_eq!(json::number(f64::NAN), "null");
        assert_eq!(json::number(f64::INFINITY), "null");
    }

    #[test]
    fn sink_receives_lines_and_uninstalls() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        install_writer(Box::new(Capture(buf.clone())));
        assert!(sink_active());
        emit_line("{\"type\":\"test\"}");
        uninstall_sink();
        assert!(!sink_active());
        // After uninstall, emits are dropped silently.
        emit_line("{\"type\":\"dropped\"}");
        let got = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(got, "{\"type\":\"test\"}\n");
    }
}
