//! Incremental frame decoding for the event loop.
//!
//! [`FrameBuffer`] accumulates raw bytes from readiness-driven
//! nonblocking reads and yields complete protocol frames. It keeps a
//! *consumed-offset cursor* instead of draining the front of the buffer
//! per frame: a deeply pipelined client used to cost O(n²) — one
//! `Vec::drain` memmove plus one `to_vec` allocation per frame — and now
//! costs amortized O(n) with a single periodic compaction and in-place
//! UTF-8 validation.

use std::io;

use crate::proto;

/// Compact (memmove the tail to the front) once at least this many
/// consumed bytes sit in front of the cursor. Large enough that a deep
/// pipeline of small frames compacts rarely; small enough that the
/// buffer never holds more than one burst's worth of dead bytes.
const COMPACT_AT: usize = 64 * 1024;

/// Longest accepted frame-length header (decimal digits + whitespace).
const MAX_HEADER: usize = 32;

/// A cursor-based frame accumulator. Feed bytes with
/// [`FrameBuffer::extend`], pull frames with [`FrameBuffer::next_frame`].
#[derive(Default)]
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before this offset are already-parsed frames awaiting
    /// compaction; parsing always starts here.
    pos: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly read bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "need more bytes". Errors are unrecoverable for
    /// the connection: an unparsable or oversized length header, or a
    /// payload that is not UTF-8.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<String>> {
        let pending = &self.buf[self.pos..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            if pending.len() > MAX_HEADER {
                return Err(bad("frame length header too long"));
            }
            self.compact_if_due();
            return Ok(None);
        };
        let len: usize = std::str::from_utf8(&pending[..nl])
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| bad("bad frame length header"))?;
        if len > proto::MAX_FRAME {
            return Err(bad("frame exceeds MAX_FRAME"));
        }
        if pending.len() < nl + 1 + len {
            self.compact_if_due();
            return Ok(None);
        }
        // Validate in place, then make exactly one allocation: the
        // returned payload itself.
        let payload = std::str::from_utf8(&pending[nl + 1..nl + 1 + len])
            .map_err(|_| bad("frame is not UTF-8"))?
            .to_owned();
        self.pos += nl + 1 + len;
        self.compact_if_due();
        Ok(Some(payload))
    }

    /// Reclaim consumed bytes: free everything when fully drained,
    /// memmove the live tail forward once enough dead bytes accumulate.
    fn compact_if_due(&mut self) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= COMPACT_AT {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &str) -> Vec<u8> {
        format!("{}\n{payload}", payload.len()).into_bytes()
    }

    #[test]
    fn partial_frame_across_multiple_extends() {
        let mut fb = FrameBuffer::new();
        let bytes = frame("hello world");
        for (i, b) in bytes.iter().enumerate() {
            assert!(fb.next_frame().unwrap().is_none(), "byte {i}");
            fb.extend(&[*b]);
        }
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some("hello world"));
        assert_eq!(fb.buf.len(), 0, "nothing left over");
    }

    #[test]
    fn deep_pipeline_yields_every_frame_in_order() {
        let mut fb = FrameBuffer::new();
        let mut all = Vec::new();
        for n in 0..5_000 {
            all.extend_from_slice(&frame(&format!("payload-{n}")));
        }
        fb.extend(&all);
        for n in 0..5_000 {
            assert_eq!(
                fb.next_frame().unwrap().as_deref(),
                Some(format!("payload-{n}").as_str())
            );
        }
        assert!(fb.next_frame().unwrap().is_none());
        assert_eq!(fb.buf.len(), 0, "fully drained buffer is reclaimed");
    }

    #[test]
    fn compaction_keeps_the_unconsumed_tail_intact() {
        let mut fb = FrameBuffer::new();
        // Push past the compaction threshold with consumed frames, then
        // leave a partial frame straddling the boundary.
        let big = "x".repeat(40 * 1024);
        fb.extend(&frame(&big));
        fb.extend(&frame(&big));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(big.as_str()));
        let tail = frame("tail-payload");
        fb.extend(&tail[..5]);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(big.as_str()));
        assert_eq!(fb.pos, 0, "compacted after crossing the threshold");
        assert!(fb.pos < fb.buf.len(), "the partial tail is still buffered");
        fb.extend(&tail[5..]);
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some("tail-payload"));
    }

    #[test]
    fn bad_headers_and_payloads_are_typed_errors() {
        let mut fb = FrameBuffer::new();
        fb.extend(b"not-a-number\nxx");
        assert!(fb.next_frame().is_err());

        let mut fb = FrameBuffer::new();
        fb.extend(format!("{}\n", proto::MAX_FRAME + 1).as_bytes());
        assert!(fb.next_frame().is_err());

        let mut fb = FrameBuffer::new();
        fb.extend(b"x".repeat(MAX_HEADER + 1).as_slice());
        assert!(fb.next_frame().is_err(), "runaway header rejected");

        let mut fb = FrameBuffer::new();
        fb.extend(b"2\n");
        fb.extend(&[0xff, 0xfe]);
        assert!(fb.next_frame().is_err(), "non-UTF-8 payload rejected");
    }

    #[test]
    fn empty_frames_round_trip() {
        let mut fb = FrameBuffer::new();
        fb.extend(&frame(""));
        fb.extend(&frame("next"));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(""));
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some("next"));
    }
}
