//! The load generator's side of the wire: one blocking connection per
//! client thread, closed- and open-loop drivers over it, and the check
//! every response goes through.

use std::io::{self, BufReader};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use ppf_server::{proto, Response, Verb};

use crate::workloads::{Query, PIPELINE_MAX};

/// Above the server's 10 s default query deadline: a stuck request ends
/// as a transport error, never as a hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(15);

/// `Sample::query` of a `reload` round trip.
pub const RELOAD: u32 = u32::MAX;

pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Linux, 64-bit: `nfds_t` is `unsigned long`, `time_t` is `i64`.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    pub fn send(&mut self, id: &str, verb: Verb, body: &str) -> io::Result<()> {
        proto::write_frame(
            &mut self.stream,
            &proto::render_request(id, verb, &[], body),
        )
    }

    /// The next response frame and its payload size in bytes.
    pub fn recv(&mut self) -> io::Result<(Response, usize)> {
        let payload = proto::read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))?;
        let resp = proto::parse_response(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok((resp, payload.len()))
    }

    /// One sequential round trip.
    pub fn call(&mut self, id: &str, verb: Verb, body: &str) -> io::Result<Response> {
        self.send(id, verb, body)?;
        let (resp, _) = self.recv()?;
        if resp.id == id {
            Ok(resp)
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response id {:?} does not match request {id:?}", resp.id),
            ))
        }
    }

    /// The `stats` verb's body.
    pub fn stats(&mut self) -> io::Result<String> {
        self.call("stats", Verb::Stats, "")?
            .result
            .map_err(|(kind, msg)| io::Error::other(format!("stats: {} {msg}", kind.as_str())))
    }

    /// Block until a response can be read or `wait` has passed. Socket
    /// read timeouts are rounded to scheduler ticks (up to 10 ms);
    /// `ppoll` takes nanoseconds, and an open-loop sender needs that.
    fn wait_readable(&mut self, wait: Duration) -> bool {
        if !self.reader.buffer().is_empty() {
            return true;
        }
        let mut fd = PollFd {
            fd: self.stream.as_raw_fd(),
            events: 1, // POLLIN
            revents: 0,
        };
        let timeout = Timespec {
            tv_sec: wait.as_secs() as i64,
            tv_nsec: i64::from(wait.subsec_nanos()),
        };
        // SAFETY: `fd` and `timeout` are live, correctly laid-out locals
        // for the duration of the call, `nfds` is 1 to match, and a null
        // signal mask is allowed (it leaves the mask unchanged).
        let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
        // Hang-ups and socket errors also count: the read reports them.
        ready > 0
    }
}

/// One completed round trip. Times are ns from the segment's epoch.
pub struct Sample {
    pub query: u32,
    /// When the latency clock started: the send (closed loop) or the
    /// time the request was due (open loop).
    pub start_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub bytes: u32,
    pub rows: u32,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.start_ns) as f64 / 1e6
    }
}

/// One round trip as the traced run records it, send → full response.
pub struct ClientSpan {
    pub start: Instant,
    pub end: Instant,
    /// The universe index of the query: the id its probe spans share.
    pub request: u32,
    pub lane: u32,
}

/// What one connection did in one segment (warm-up, window, or rung).
#[derive(Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    /// Filled only while `Ctx::record_spans` is on.
    pub spans: Vec<ClientSpan>,
    /// `(query name, what went wrong)` for every failed request.
    pub failures: Vec<(String, String)>,
    pub attempted: u64,
    /// Open loop: requests whose due time passed but that were never
    /// sent, because the rung's hard end came first.
    pub unsent: u64,
}

impl Outcome {
    pub fn absorb(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.spans.extend(other.spans);
        self.failures.extend(other.failures);
        self.attempted += other.attempted;
        self.unsent += other.unsent;
    }
}

/// What a segment's threads share: the oracle and the clock.
pub struct Ctx<'a> {
    pub universe: &'a [Query],
    /// Expected row count per universe entry.
    pub expected: &'a [u32],
    pub epoch: Instant,
    /// Tracing on: keep a span per round trip, not just its latency.
    pub record_spans: bool,
}

impl Ctx<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

struct Pending {
    seq: u64,
    query: u32,
    start_ns: u64,
    sent_ns: u64,
    /// Highest snapshot version this connection had seen when the
    /// request was sent: the answer may not come from an older one.
    floor: u64,
}

/// A query connection with its place in its request stream, kept across
/// the segments of a run.
pub struct Reader {
    conn: Conn,
    lane: u32,
    stream: Vec<u32>,
    pos: usize,
    seq: u64,
    version_floor: u64,
    pending: Vec<Pending>,
}

impl Reader {
    pub fn new(conn: Conn, lane: u32, stream: Vec<u32>) -> Reader {
        Reader {
            conn,
            lane,
            stream,
            pos: 0,
            seq: 0,
            version_floor: 0,
            pending: Vec::with_capacity(PIPELINE_MAX),
        }
    }

    /// Send the stream's next query. `due` starts the latency clock
    /// early (open loop); without it the clock starts at the send.
    fn issue(&mut self, ctx: &Ctx, due: Option<u64>, out: &mut Outcome) -> io::Result<()> {
        let query = self.stream[self.pos % self.stream.len()];
        self.pos += 1;
        self.seq += 1;
        out.attempted += 1;
        let id = format!("c{}-{}", self.lane, self.seq);
        let sent_ns = ctx.ns(Instant::now());
        self.pending.push(Pending {
            seq: self.seq,
            query,
            start_ns: due.unwrap_or(sent_ns),
            sent_ns,
            floor: self.version_floor,
        });
        self.conn
            .send(&id, Verb::Query, &ctx.universe[query as usize].xpath)
    }

    /// Receive one response and check it: known id, `ok`, the oracle's
    /// row count, and a version no older than any seen before the send.
    fn settle(&mut self, ctx: &Ctx, out: &mut Outcome) -> io::Result<()> {
        let (resp, bytes) = self.conn.recv()?;
        let done = Instant::now();
        let done_ns = ctx.ns(done);
        let seq = resp
            .id
            .rsplit_once('-')
            .and_then(|(_, s)| s.parse::<u64>().ok());
        let Some(at) = self.pending.iter().position(|p| Some(p.seq) == seq) else {
            out.failures
                .push(("?".into(), format!("unexpected response id {:?}", resp.id)));
            return Ok(());
        };
        let p = self.pending.swap_remove(at);
        if ctx.record_spans {
            out.spans.push(ClientSpan {
                start: ctx.epoch + Duration::from_nanos(p.sent_ns),
                end: done,
                request: p.query,
                lane: self.lane,
            });
        }
        let name = &ctx.universe[p.query as usize].name;
        let want = ctx.expected[p.query as usize];
        let version = resp.version();
        let rows = match &resp.result {
            Err((kind, msg)) => Err(format!("err {}: {msg}", kind.as_str())),
            Ok(body) => match row_count(body) {
                None => Err(format!("unreadable body {:?}", body.lines().next())),
                Some(n) if n != want => Err(format!("{n} rows, oracle says {want}")),
                Some(_) if version.is_none_or(|v| v < p.floor) => Err(format!(
                    "version {version:?} after this connection saw {}",
                    p.floor
                )),
                Some(n) => Ok(n),
            },
        };
        self.version_floor = self.version_floor.max(version.unwrap_or(0));
        match rows {
            Err(what) => out.failures.push((name.clone(), what)),
            Ok(rows) => out.samples.push(Sample {
                query: p.query,
                start_ns: p.start_ns,
                sent_ns: p.sent_ns,
                done_ns,
                bytes: bytes as u32,
                rows,
            }),
        }
        Ok(())
    }

    /// A broken connection fails everything still in flight on it.
    fn fail_pending(&mut self, ctx: &Ctx, e: &io::Error, out: &mut Outcome) {
        for p in self.pending.drain(..) {
            out.failures.push((
                ctx.universe[p.query as usize].name.clone(),
                format!("transport: {e}"),
            ));
        }
    }

    /// Keep `depth` requests in flight until `until` or until `limit`
    /// requests were sent, whichever comes first; then drain.
    pub fn closed_loop(&mut self, ctx: &Ctx, depth: usize, until: Instant, limit: u64) -> Outcome {
        let mut out = Outcome::default();
        let result = (|| -> io::Result<()> {
            loop {
                while self.pending.len() < depth && out.attempted < limit && Instant::now() < until
                {
                    self.issue(ctx, None, &mut out)?;
                }
                if self.pending.is_empty() {
                    return Ok(());
                }
                self.settle(ctx, &mut out)?;
            }
        })();
        if let Err(e) = result {
            self.fail_pending(ctx, &e, &mut out);
        }
        out
    }

    /// Send each request when it is due (`due` in ns from the epoch),
    /// pipelining up to `PIPELINE_MAX`; a request that is due while the
    /// pipeline is full waits here, and that wait is part of its
    /// latency. Stops sending at `hard_end`, then drains.
    pub fn open_loop(&mut self, ctx: &Ctx, due: &[u64], hard_end: Instant) -> Outcome {
        let mut out = Outcome::default();
        let mut next = 0;
        let result = (|| -> io::Result<()> {
            loop {
                let now = Instant::now();
                if now >= hard_end {
                    break;
                }
                let now_ns = ctx.ns(now);
                while next < due.len() && due[next] <= now_ns && self.pending.len() < PIPELINE_MAX {
                    self.issue(ctx, Some(due[next]), &mut out)?;
                    next += 1;
                }
                let can_send = self.pending.len() < PIPELINE_MAX && next < due.len();
                if !can_send && self.pending.is_empty() {
                    break;
                }
                let wait = if can_send {
                    Duration::from_nanos(due[next].saturating_sub(ctx.ns(Instant::now())))
                } else {
                    hard_end.saturating_duration_since(Instant::now())
                };
                if self.pending.is_empty() {
                    std::thread::sleep(wait);
                } else if self.conn.wait_readable(wait) {
                    self.settle(ctx, &mut out)?;
                }
            }
            while !self.pending.is_empty() {
                self.settle(ctx, &mut out)?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.fail_pending(ctx, &e, &mut out);
        }
        out.unsent = (due.len() - next) as u64;
        out
    }
}

fn row_count(body: &str) -> Option<u32> {
    body.lines().next()?.strip_prefix("rows ")?.parse().ok()
}

/// A reload starts this long after the previous one started (at once,
/// if that one took longer). Back-to-back reloads make the number of
/// swaps in a window — and with it the share of post-swap cold queries
/// that sets the readers' p99, and the memory retired — depend on how
/// fast each happened to be; a period makes it the same in every run. A
/// reload takes 350–600 ms beside readers today, so the writer is busy
/// most of the time.
pub const RELOAD_EVERY: Duration = Duration::from_millis(750);

/// The connection that issues `reload` every [`RELOAD_EVERY`]. Each must
/// answer `ok` with exactly the previous version + 1 (it is the only
/// writer).
pub struct Reloader {
    conn: Conn,
    version: u64,
}

impl Reloader {
    /// `version` = the snapshot the freshly started server serves (1).
    pub fn new(conn: Conn, version: u64) -> Reloader {
        Reloader { conn, version }
    }

    pub fn reload_until(&mut self, ctx: &Ctx, until: Instant) -> Outcome {
        let mut out = Outcome::default();
        let mut next = Instant::now();
        while next < until {
            std::thread::sleep(next.saturating_duration_since(Instant::now()));
            next = next.max(Instant::now()) + RELOAD_EVERY;
            out.attempted += 1;
            let sent_ns = ctx.ns(Instant::now());
            let id = format!("reload-{}", self.version + 1);
            let failure = match self.conn.call(&id, Verb::Reload, "") {
                Err(e) => Some(format!("transport: {e}")),
                Ok(resp) => match (&resp.result, resp.version()) {
                    (Err((kind, msg)), _) => Some(format!("err {}: {msg}", kind.as_str())),
                    (Ok(_), Some(v)) if v == self.version + 1 => {
                        self.version = v;
                        None
                    }
                    (Ok(_), v) => {
                        let what = format!("version {v:?}, expected {}", self.version + 1);
                        self.version = v.unwrap_or(self.version);
                        Some(what)
                    }
                },
            };
            match failure {
                Some(what) => {
                    let transport = what.starts_with("transport");
                    out.failures.push(("reload".into(), what));
                    if transport {
                        break;
                    }
                }
                None => out.samples.push(Sample {
                    query: RELOAD,
                    start_ns: sent_ns,
                    sent_ns,
                    done_ns: ctx.ns(Instant::now()),
                    bytes: 0,
                    rows: 0,
                }),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_count_reads_the_first_body_line() {
        assert_eq!(row_count("rows 2\n17\n19\n"), Some(2));
        assert_eq!(row_count("rows 0\n"), Some(0));
        assert_eq!(row_count("(statically empty)"), None);
        assert_eq!(row_count(""), None);
    }
}
