//! Spans recorded by the bench around its calls into each layer, kept
//! in memory and written once, at exit, as a chrome trace.
//!
//! A span's `parent` is the span whose call contains this one's work, so
//! a layer's self time is its duration minus its children's. The
//! children are timed by calling the inner function on its own (nothing
//! inside the server is stamped yet), so nesting here means "is part
//! of", not "was observed inside".

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one request share this id.
    pub request: u32,
    /// Chrome-trace thread lane: 0 = in-process probe, 1.. = connections.
    pub lane: u32,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span on the probe lane; returns its index (for
    /// children to name as parent), its duration in ns, and `f`'s value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (u32, u64, T) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            lane: 0,
        });
        (self.spans.len() as u32 - 1, end_ns - start_ns, value)
    }

    /// Chrome `trace_event` JSON ("X" complete events, µs timestamps).
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"request\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
            )?;
        }
        out.write_all(b"\n]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_valid_json_with_parent_links() {
        let mut t = Trace::new();
        let (outer, _, ()) = t.time("core.translate", 7, None, || ());
        let (_, _, v) = t.time("xpath.parse", 7, Some(outer), || 42);
        assert_eq!(v, 42);
        let mut text = Vec::new();
        t.write_chrome(&mut text).unwrap();
        let json = obs::json::parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let events = json.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("request").unwrap().as_u64(), Some(7));
    }
}
