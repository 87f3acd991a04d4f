//! Per-query span trees.
//!
//! A [`QueryTrace`] is finished data: an arena of closed [`Span`]s, each
//! with its offset and duration already known. Whoever holds the timings
//! builds one on request and appends its spans parents-first; offsets
//! are relative to the start of the query, so a serialized trace is
//! self-contained.

/// Index of a span inside its trace's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub(crate) usize);

impl SpanId {
    /// Arena index (position in [`QueryTrace::spans`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// One timed region of a query's execution.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Arena index of the enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Offset from the start of the query.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Named counters, in insertion order.
    pub counters: Vec<(String, u64)>,
}

/// A tree of timed spans for one query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Usually the query text.
    pub label: String,
    spans: Vec<Span>,
}

impl QueryTrace {
    pub fn new(label: impl Into<String>) -> QueryTrace {
        QueryTrace {
            label: label.into(),
            spans: Vec::new(),
        }
    }

    /// Append a finished span. Its parent, if any, must already be in
    /// the trace, so parents always precede their children.
    pub fn push(&mut self, span: Span) -> SpanId {
        assert!(
            span.parent.is_none_or(|p| p.0 < self.spans.len()),
            "span `{}` names a parent that is not in the trace",
            span.name
        );
        self.spans.push(span);
        SpanId(self.spans.len() - 1)
    }

    /// All spans in the order they were pushed (parents precede children).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Find a span by name (first match in creation order).
    pub fn span_named(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Total duration of the trace: end of the last-ending span.
    pub fn total_ns(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.start_ns + s.dur_ns)
            .max()
            .unwrap_or(0)
    }

    /// One JSON object (single line, no trailing newline) describing the
    /// whole trace. Schema:
    ///
    /// ```json
    /// {"label":"//a/b","total_ns":1234,
    ///  "spans":[{"name":"parse","parent":null,"start_ns":0,"dur_ns":10,
    ///            "counters":{"ppf_count":2}}]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut w = crate::json::Writer::new();
        w.begin_object();
        w.key("label");
        w.string(&self.label);
        w.key("total_ns");
        w.number(self.total_ns());
        w.key("spans");
        w.begin_array();
        for span in &self.spans {
            w.begin_object();
            w.key("name");
            w.string(&span.name);
            w.key("parent");
            match span.parent {
                Some(p) => w.number(p.0 as u64),
                None => w.null(),
            }
            w.key("start_ns");
            w.number(span.start_ns);
            w.key("dur_ns");
            w.number(span.dur_ns);
            w.key("counters");
            w.begin_object();
            for (name, value) in &span.counters {
                w.key(name);
                w.number(*value);
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Indented text rendering for the REPL.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace: {} ({:.3} ms)\n",
            self.label,
            self.total_ns() as f64 / 1e6
        ));
        for span in &self.spans {
            let mut depth = 0;
            let mut p = span.parent;
            while let Some(id) = p {
                depth += 1;
                p = self.spans[id.0].parent;
            }
            out.push_str(&"  ".repeat(depth + 1));
            out.push_str(&format!("{} {:.3} ms", span.name, span.dur_ns as f64 / 1e6));
            if !span.counters.is_empty() {
                let counters: Vec<String> = span
                    .counters
                    .iter()
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect();
                out.push_str(&format!(" [{}]", counters.join(", ")));
            }
            out.push('\n');
        }
        out
    }
}
