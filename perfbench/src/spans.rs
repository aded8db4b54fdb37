//! The benchmark's own spans: workload → cell → app run / reference /
//! layer probe, recorded around the calls it makes into the program and
//! kept in memory until the run ends. They are written out as Chrome
//! trace-event JSON (`chrome://tracing`, Perfetto). Spans inside the
//! program are not recorded here.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder. A disabled recorder records nothing.
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; `enabled: false` makes every call a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        Some(SpanId(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Spans::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// on one track per nesting depth, with the parent's index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut up = s.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.spans[p].parent;
            }
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{depth},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name.replace('"', "'"),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
    }
}
