//! The readiness-driven connection core.
//!
//! A small fixed pool of event-loop threads owns every connection: each
//! loop drives one [`PollBackend`] (epoll on Linux, the portable
//! fallback elsewhere), a map of per-connection state machines, and a
//! coarse timer wheel for idle reaping and close/drain grace periods.
//! Loop 0 additionally owns the listener and deals new connections
//! round-robin across the pool.
//!
//! A connection's life on its loop:
//!
//! * **Readable** — nonblocking reads feed the [`FrameBuffer`]
//!   (partial frames survive arbitrarily many readiness events);
//!   complete frames run through `handle_frame`.
//! * **Writable** — responses land in a per-connection outbound buffer
//!   ([`OutBuf`]); short writes leave the tail buffered and arm write
//!   interest, so no event thread ever blocks in `write`. Query workers
//!   finishing off-loop push their response and ring the loop's wakeup
//!   fd to re-arm write interest.
//! * **Timers** — the idle reap, the close grace for a connection whose
//!   peer vanished mid-query, the admission queue's wait bound and the
//!   drain deadline are timer-wheel checks, not 50 ms sleep ticks: an
//!   idle connection costs zero CPU between its (rare) wheel slots.
//!
//! The event loop never blocks: admission hands a query to a standing
//! worker or parks it in the wait queue without waiting itself, and the
//! loop that parked it arms a wheel entry for the moment its wait runs
//! out.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::frame::FrameBuffer;
use crate::lock;
use crate::poller::{new_poller, Event, Interest, PollBackend, Waker};
use crate::proto::{self, ErrorKind, Response};
use crate::server::{close_conn, handle_frame, open_conn, Inner};

/// Token of loop 0's listener registration. Connection tokens start
/// above it; the poller reserves `u64::MAX` for its wakeup channel.
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Hard cap on one connection's buffered outbound bytes. A client that
/// stops reading while pipelining maximum-size responses is severed
/// rather than allowed to balloon the server (4 MiB frames × the
/// per-connection pipelining cap fits comfortably).
const MAX_OUTBUF: usize = 64 << 20;

/// Upper bound on one `wait` sleep, so drain flags and wheel drift are
/// observed even if every wakeup is lost.
const MAX_WAIT: Duration = Duration::from_secs(1);

// ---------------------------------------------------------------------
// Cross-thread surface: what workers and the accept path touch.
// ---------------------------------------------------------------------

/// One event loop's mailbox: freshly accepted sockets to adopt and
/// tokens whose outbound buffers gained bytes, plus the waker that makes
/// the loop look.
struct LoopShared {
    intake: Mutex<Vec<TcpStream>>,
    notes: Mutex<Vec<u64>>,
    waker: Waker,
}

impl LoopShared {
    fn push_conn(&self, stream: TcpStream) {
        lock(&self.intake).push(stream);
        self.waker.wake();
    }

    fn note(&self, token: u64) {
        let mut notes = lock(&self.notes);
        // Cheap dedup: bursts of pipelined responses note the same
        // connection back to back.
        if notes.last() != Some(&token) {
            notes.push(token);
        }
        drop(notes);
        self.waker.wake();
    }
}

/// Handles to every loop; lives in `Inner` so `trigger_drain` and the
/// accept path can reach them.
pub(crate) struct EventLoops {
    shared: Vec<Arc<LoopShared>>,
}

impl EventLoops {
    pub(crate) fn wake_all(&self) {
        for l in &self.shared {
            l.waker.wake();
        }
    }
}

/// The half of a connection its query workers share with the owning
/// loop: the outbound buffer, the pipelining gauge, and the address to
/// ring. The socket itself stays with the loop.
pub(crate) struct Conn {
    out: Mutex<OutBuf>,
    home: Arc<LoopShared>,
    token: u64,
}

#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    pos: usize,
    /// Requests admitted on this connection whose workers still owe a
    /// completion (the pipelining gauge). It lives under the buffer's
    /// lock so that a response's bytes and its gauge release become
    /// visible to the loop together: whoever sees the bytes — and so
    /// whichever client reads them and pipelines its next request —
    /// also sees the gauge already dropped.
    inflight: usize,
    /// After flushing everything buffered, sever instead of disarming
    /// write interest (chaos mid-write drops).
    sever_after: bool,
    /// Sever immediately, discarding anything buffered (chaos pre-write
    /// drops, outbound-buffer overflow). Workers set this flag and ring;
    /// the owning loop — which owns the socket — closes it. Keeping the
    /// socket single-owner avoids a `try_clone` fd per connection, which
    /// would double the server's fd footprint.
    sever_now: bool,
    /// The event loop destroyed this connection; late worker responses
    /// are discarded instead of accumulating forever.
    gone: bool,
}

impl OutBuf {
    fn pending(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// What a request leaves on the wire.
pub(crate) enum Delivery<'a> {
    /// One complete response frame.
    Frame(&'a Response),
    /// Half a frame, then sever once it is on the wire (chaos
    /// `drop=P:mid`).
    SeveredPrefix(&'a Response),
    /// Nothing: sever now, discarding anything buffered (chaos
    /// `drop=P:pre|post`).
    Sever,
}

impl Conn {
    fn new(home: Arc<LoopShared>, token: u64) -> Conn {
        Conn {
            out: Mutex::new(OutBuf::default()),
            home,
            token,
        }
    }

    /// `(requests in flight, outbound bytes pending)`, read together.
    pub(crate) fn load(&self) -> (usize, usize) {
        let out = lock(&self.out);
        (out.inflight, out.pending())
    }

    /// Count one admitted request against the pipelining gauge. Only
    /// the owning loop calls this, so its `load` → `begin_request` pair
    /// cannot be overtaken by another increment.
    pub(crate) fn begin_request(&self) {
        lock(&self.out).inflight += 1;
    }

    /// Queue a response that no worker owes (verbs answered on the loop,
    /// rejections before admission) and ring the loop.
    pub(crate) fn write_response(&self, resp: &Response) {
        self.queue(Delivery::Frame(resp), false);
        self.ring();
    }

    /// A begun request's last act on this connection: queue what it
    /// delivers and drop the gauge in one critical section — the one
    /// `flush_conn` takes. Does not ring; the caller rings once its
    /// other resources are released (see `server::complete`).
    pub(crate) fn finish_request(&self, delivery: Delivery<'_>) {
        self.queue(delivery, true);
    }

    fn queue(&self, delivery: Delivery<'_>, finishes: bool) {
        // Rendered before the lock, so the critical section is a copy.
        let rendered = match delivery {
            Delivery::Frame(resp) => Some((resp.render(), false)),
            Delivery::SeveredPrefix(resp) => Some((resp.render(), true)),
            Delivery::Sever => None,
        };
        let mut out = lock(&self.out);
        if finishes {
            out.inflight -= 1;
        }
        if out.gone {
            return;
        }
        let Some((payload, severed)) = rendered else {
            out.sever_now = true;
            return;
        };
        if payload.len() > proto::MAX_FRAME {
            return; // mirrors write_frame's refusal; server bodies are capped anyway
        }
        if out.pending() + payload.len() > MAX_OUTBUF {
            // The peer stopped reading; drop the buffer and sever.
            obs::Registry::global().incr("server.outbuf_overflow", 1);
            out.bytes.clear();
            out.pos = 0;
            out.sever_now = true;
            return;
        }
        let cut = if severed {
            payload.len() / 2
        } else {
            payload.len()
        };
        let _ = writeln!(out.bytes, "{}", payload.len()); // a Vec write cannot fail
        out.bytes.extend_from_slice(&payload.as_bytes()[..cut]);
        out.sever_after |= severed;
    }

    /// Make the owning loop look at this connection: flush what is
    /// buffered, act on a sever flag, re-check a closing connection's
    /// gauge.
    pub(crate) fn ring(&self) {
        self.home.note(self.token);
    }
}

// ---------------------------------------------------------------------
// Timer wheel.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerKind {
    /// Re-check a connection's idle deadline (lazy: re-armed from its
    /// actual `last_activity` when it fires early).
    Idle,
    /// Force-close a connection that kept in-flight queries past its
    /// grace (peer EOF mid-query, or a drain hitting its deadline).
    CloseGrace,
    /// A query this loop left in the admission queue reaches the end of
    /// its wait: shed whatever is overdue there.
    QueueWait,
}

/// A single-level hashed timer wheel: 256 slots × 250 ms ≈ a 64 s
/// horizon, wide enough for the default idle timeout. Entries past the
/// horizon simply wrap and stay put when their slot comes round early —
/// a few spurious checks per minute per connection, each O(1). The slot
/// of the current tick is re-read on every advance, so an entry fires
/// at its deadline, not at the end of its slot.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(u64, TimerKind, Instant)>>,
    granularity: Duration,
    epoch: Instant,
    /// The absolute tick of the last advance; its slot may still hold
    /// entries due later in that tick.
    cursor: u64,
    len: usize,
}

impl TimerWheel {
    pub(crate) fn new(now: Instant) -> TimerWheel {
        TimerWheel::with_shape(now, 256, Duration::from_millis(250))
    }

    pub(crate) fn with_shape(now: Instant, slots: usize, granularity: Duration) -> TimerWheel {
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity,
            epoch: now,
            cursor: 0,
            len: 0,
        }
    }

    fn tick_of(&self, t: Instant) -> u64 {
        (t.saturating_duration_since(self.epoch).as_nanos() / self.granularity.as_nanos().max(1))
            as u64
    }

    /// When absolute tick `tick` begins.
    fn tick_start(&self, tick: u64) -> Instant {
        let ticks = u32::try_from(tick).unwrap_or(u32::MAX);
        self.epoch + self.granularity.saturating_mul(ticks)
    }

    pub(crate) fn insert(&mut self, deadline: Instant, token: u64, kind: TimerKind) {
        // Never behind the cursor, or it would only fire after a full
        // wrap of the wheel.
        let tick = self.tick_of(deadline).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.slots[slot].push((token, kind, deadline));
        self.len += 1;
    }

    /// Advance to `now`, returning every entry whose deadline passed.
    /// Entries still ahead — later in the current tick, or wrapped —
    /// stay in their slot.
    pub(crate) fn advance(&mut self, now: Instant) -> Vec<(u64, TimerKind)> {
        let target = self.tick_of(now).max(self.cursor);
        let mut due = Vec::new();
        let n = self.slots.len() as u64;
        for tick in self.cursor..=target.min(self.cursor + n - 1) {
            let slot = &mut self.slots[(tick % n) as usize];
            let before = slot.len();
            slot.retain(|&(token, kind, deadline)| {
                let fired = deadline <= now;
                if fired {
                    due.push((token, kind));
                }
                !fired
            });
            self.len -= before - slot.len();
        }
        self.cursor = target;
        due
    }

    /// Time until the earliest entry of the nearest armed slot is due
    /// (no later than that slot's end, where wrapped entries get their
    /// re-check), if any entries exist.
    pub(crate) fn next_timeout(&self, now: Instant) -> Option<Duration> {
        if self.len == 0 {
            return None;
        }
        let n = self.slots.len() as u64;
        (self.cursor..self.cursor + n).find_map(|tick| {
            let earliest = self.slots[(tick % n) as usize]
                .iter()
                .map(|&(_, _, deadline)| deadline)
                .min()?;
            let wake = earliest.clamp(self.tick_start(tick), self.tick_start(tick + 1));
            Some(wake.saturating_duration_since(now))
        })
    }
}

// ---------------------------------------------------------------------
// The event loop itself.
// ---------------------------------------------------------------------

struct ConnState {
    stream: TcpStream,
    conn: Arc<Conn>,
    fb: FrameBuffer,
    last_activity: Instant,
    /// Current poller registration includes write interest.
    write_armed: bool,
    /// Peer sent EOF or the protocol decided to stop reading; close
    /// once in-flight queries and the outbound buffer drain.
    closing: bool,
    /// A [`TimerKind::CloseGrace`] entry is armed for this token.
    grace_armed: bool,
}

/// Build one poller and mailbox per event loop. The handles go into
/// `Inner` before any loop thread exists, so a drain arriving with the
/// very first connection can already wake every loop.
pub(crate) fn build_loops(n: usize) -> io::Result<(EventLoops, Vec<Box<dyn PollBackend>>)> {
    let mut pollers = Vec::with_capacity(n);
    let mut shared = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = new_poller()?;
        shared.push(Arc::new(LoopShared {
            intake: Mutex::new(Vec::new()),
            notes: Mutex::new(Vec::new()),
            waker: poller.waker(),
        }));
        pollers.push(poller);
    }
    Ok((EventLoops { shared }, pollers))
}

/// Spawn one thread per poller built by [`build_loops`]. Loop 0 owns
/// the listener.
pub(crate) fn spawn_event_loops(
    inner: &Arc<Inner>,
    pollers: Vec<Box<dyn PollBackend>>,
    listener: TcpListener,
) -> io::Result<Vec<std::thread::JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let mut threads = Vec::with_capacity(pollers.len());
    let mut listener = Some(listener);
    for (idx, poller) in pollers.into_iter().enumerate() {
        let inner = inner.clone();
        let listener = listener.take();
        threads.push(
            std::thread::Builder::new()
                .name(format!("ppfd-loop-{idx}"))
                .spawn(move || run_loop(idx, poller, listener, inner))?,
        );
    }
    Ok(threads)
}

fn run_loop(
    idx: usize,
    mut poller: Box<dyn PollBackend>,
    mut listener: Option<TcpListener>,
    inner: Arc<Inner>,
) {
    let reg = obs::Registry::global();
    let home = inner.event.shared[idx].clone();
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut wheel = TimerWheel::new(Instant::now());
    let mut next_token = FIRST_CONN_TOKEN;
    let mut rr = idx; // round-robin cursor for dealt connections
    let mut events: Vec<Event> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    if let Some(l) = &listener {
        if poller
            .register(fd_of(l), LISTENER_TOKEN, Interest::Read)
            .is_err()
        {
            eprintln!("ppfd: event loop {idx} cannot watch the listener; refusing connections");
            listener = None;
        }
    }

    loop {
        let now = Instant::now();
        let draining = inner.draining.load(SeqCst);
        if draining {
            if drain_deadline.is_none() {
                drain_deadline = Some(now + inner.cfg.drain_grace * 2 + Duration::from_secs(1));
                if let Some(l) = listener.take() {
                    let _ = poller.deregister(fd_of(&l), LISTENER_TOKEN);
                    drop(l); // stop accepting immediately
                }
            }
            // Close everything quiescent; keep connections with in-flight
            // queries (their workers still owe responses) until the
            // deadline.
            let quiescent: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.conn.load() == (0, 0))
                .map(|(&t, _)| t)
                .collect();
            for token in quiescent {
                destroy(&mut conns, &mut poller, &inner, token);
            }
            if conns.is_empty() {
                break;
            }
            if drain_deadline.is_some_and(|d| now >= d) {
                let all: Vec<u64> = conns.keys().copied().collect();
                for token in all {
                    destroy(&mut conns, &mut poller, &inner, token);
                }
                break;
            }
        }

        let timeout = wheel
            .next_timeout(now)
            .unwrap_or(MAX_WAIT)
            .min(MAX_WAIT)
            .max(Duration::from_millis(1));
        events.clear();
        if let Err(e) = poller.wait(&mut events, Some(timeout)) {
            eprintln!("ppfd: event loop {idx} poll failed: {e}; shutting the loop down");
            break;
        }

        for &ev in &events {
            if ev.token == LISTENER_TOKEN {
                accept_burst(&inner, &mut listener, &mut rr);
                continue;
            }
            if ev.hangup {
                destroy(&mut conns, &mut poller, &inner, ev.token);
                continue;
            }
            if ev.readable {
                handle_readable(&inner, &mut conns, &mut poller, &mut wheel, ev.token);
            }
            if ev.writable && conns.contains_key(&ev.token) {
                flush_conn(&inner, &mut conns, &mut poller, &mut wheel, ev.token);
            }
        }

        // Adopt dealt connections.
        let fresh = std::mem::take(&mut *lock(&home.intake));
        for stream in fresh {
            adopt(
                &inner,
                &mut conns,
                &mut poller,
                &mut wheel,
                &home,
                &mut next_token,
                stream,
            );
        }

        // Workers finished queries: flush their responses, re-arming
        // write interest for whatever does not fit the socket buffer.
        let notes = std::mem::take(&mut *lock(&home.notes));
        for token in notes {
            if conns.contains_key(&token) {
                flush_conn(&inner, &mut conns, &mut poller, &mut wheel, token);
            }
        }

        // Timer-wheel checks: idle reaping and close graces.
        let now = Instant::now();
        for (token, kind) in wheel.advance(now) {
            match kind {
                TimerKind::Idle => {
                    // Lazy check: reap only when truly idle past the
                    // deadline, otherwise re-arm from the real one.
                    let rearm_at = {
                        let Some(c) = conns.get_mut(&token) else {
                            continue;
                        };
                        let deadline = c.last_activity + inner.cfg.idle_timeout;
                        let quiescent = c.conn.load().0 == 0;
                        if quiescent && now >= deadline {
                            None
                        } else if quiescent {
                            Some(deadline)
                        } else {
                            Some(now + inner.cfg.idle_timeout)
                        }
                    };
                    match rearm_at {
                        None => {
                            reg.incr("server.idle_reaped", 1);
                            destroy(&mut conns, &mut poller, &inner, token);
                        }
                        Some(at) => wheel.insert(at, token, TimerKind::Idle),
                    }
                }
                TimerKind::CloseGrace => {
                    let expire = {
                        let Some(c) = conns.get_mut(&token) else {
                            continue;
                        };
                        c.grace_armed = false;
                        c.closing
                    };
                    if expire {
                        destroy(&mut conns, &mut poller, &inner, token);
                    }
                }
                // Whichever loop gets there first sheds every overdue
                // job, whoever queued it; each answer rings its own loop.
                TimerKind::QueueWait => inner.admission.expire(now),
            }
        }
    }

    // Loop teardown: anything still tracked is released so gauges and
    // counters stay truthful even on an abnormal exit.
    let leftovers: Vec<u64> = conns.keys().copied().collect();
    for token in leftovers {
        destroy(&mut conns, &mut poller, &inner, token);
    }
}

/// Accept until the listener would block, dealing connections across
/// the loops round-robin. Runs only on loop 0.
fn accept_burst(inner: &Arc<Inner>, listener: &mut Option<TcpListener>, rr: &mut usize) {
    let reg = obs::Registry::global();
    let Some(l) = listener.as_ref() else {
        return;
    };
    loop {
        match l.accept() {
            Ok((stream, _peer)) => {
                if inner.draining.load(SeqCst) {
                    continue; // dropped: the drain already refused new work
                }
                reg.incr("server.accepted", 1);
                let cap = inner.cfg.max_conns;
                if cap > 0 && inner.active_conns.load(SeqCst) >= cap {
                    reg.incr("server.shed", 1);
                    reg.incr("server.shed.max_conns", 1);
                    // Best-effort typed rejection: the socket buffer of a
                    // fresh connection always has room for one frame.
                    let resp =
                        Response::err("-", ErrorKind::Overload, format!("shed: max_conns ({cap})"));
                    let _ = stream.set_nonblocking(true);
                    let _ = (&stream).write_all(
                        {
                            let p = resp.render();
                            format!("{}\n{p}", p.len()).into_bytes()
                        }
                        .as_slice(),
                    );
                    continue;
                }
                open_conn(inner);
                let loops = &inner.event.shared;
                loops[*rr % loops.len()].push_conn(stream);
                *rr = rr.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Take ownership of a dealt connection: nonblocking socket, poller
/// registration, state machine, idle timer.
fn adopt(
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    poller: &mut Box<dyn PollBackend>,
    wheel: &mut TimerWheel,
    home: &Arc<LoopShared>,
    next_token: &mut u64,
    stream: TcpStream,
) {
    let token = *next_token;
    *next_token += 1;
    if stream.set_nonblocking(true).is_err() {
        close_conn(inner);
        return;
    }
    stream.set_nodelay(true).ok();
    if poller
        .register(fd_of(&stream), token, Interest::Read)
        .is_err()
    {
        close_conn(inner);
        return;
    }
    let conn = Arc::new(Conn::new(home.clone(), token));
    let now = Instant::now();
    wheel.insert(now + inner.cfg.idle_timeout, token, TimerKind::Idle);
    conns.insert(
        token,
        ConnState {
            stream,
            conn,
            fb: FrameBuffer::new(),
            last_activity: now,
            write_armed: false,
            closing: false,
            grace_armed: false,
        },
    );
}

/// Drain the socket into the frame buffer and run every complete frame.
fn handle_readable(
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    poller: &mut Box<dyn PollBackend>,
    wheel: &mut TimerWheel,
    token: u64,
) {
    let reg = obs::Registry::global();
    let mut fatal = false;
    let closing;
    {
        let Some(c) = conns.get_mut(&token) else {
            return;
        };
        let mut buf = [0u8; 16 * 1024];
        loop {
            match c.stream.read(&mut buf) {
                Ok(0) => {
                    c.closing = true;
                    break;
                }
                Ok(n) => {
                    c.fb.extend(&buf[..n]);
                    if n < buf.len() {
                        break; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    fatal = true;
                    break;
                }
            }
        }
        if !fatal {
            loop {
                match c.fb.next_frame() {
                    Ok(Some(payload)) => {
                        c.last_activity = Instant::now();
                        if let Some(deadline) = handle_frame(inner, &c.conn, &payload) {
                            wheel.insert(deadline, token, TimerKind::QueueWait);
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        reg.incr("server.proto_errors", 1);
                        c.conn
                            .write_response(&Response::err("-", ErrorKind::Proto, e.to_string()));
                        c.closing = true;
                        break;
                    }
                }
            }
        }
        closing = c.closing;
    }
    if fatal {
        destroy(conns, poller, inner, token);
    } else if closing {
        begin_close(inner, conns, poller, wheel, token);
    }
}

/// Start closing: immediate if quiescent and flushed, otherwise wait for
/// in-flight workers under a grace deadline.
fn begin_close(
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    poller: &mut Box<dyn PollBackend>,
    wheel: &mut TimerWheel,
    token: u64,
) {
    // Flush whatever is already buffered (typed proto errors, the tail
    // of pipelined responses) before deciding.
    flush_conn(inner, conns, poller, wheel, token);
    let Some(c) = conns.get_mut(&token) else {
        return;
    };
    if c.conn.load() == (0, 0) {
        destroy(conns, poller, inner, token);
    } else if !c.grace_armed {
        c.grace_armed = true;
        wheel.insert(
            Instant::now() + inner.cfg.drain_grace,
            token,
            TimerKind::CloseGrace,
        );
    }
}

/// Write as much buffered outbound as the socket accepts; arm or disarm
/// write interest to match what remains.
fn flush_conn(
    inner: &Arc<Inner>,
    conns: &mut HashMap<u64, ConnState>,
    poller: &mut Box<dyn PollBackend>,
    wheel: &mut TimerWheel,
    token: u64,
) {
    let mut dead = false;
    let mut close_now = false;
    {
        let Some(c) = conns.get_mut(&token) else {
            return;
        };
        let mut out = lock(&c.conn.out);
        if out.sever_now {
            dead = true;
        }
        while !dead && out.pending() > 0 {
            // `&TcpStream` is `Write`, so the sink borrow and the stream
            // write coexist.
            match (&c.stream).write(&out.bytes[out.pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    out.pos += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if !dead && out.pending() == 0 {
            out.bytes.clear();
            out.pos = 0;
            if out.sever_after {
                dead = true;
            }
        }
        // Read together under the lock: a worker finishing now either
        // shows both its bytes and its gauge drop, or neither.
        let drained = out.pending() == 0;
        let quiescent = drained && out.inflight == 0;
        drop(out);
        if dead {
            let _ = c.stream.shutdown(std::net::Shutdown::Both);
        } else {
            let want_write = !drained;
            if want_write != c.write_armed {
                let interest = if want_write {
                    Interest::ReadWrite
                } else {
                    Interest::Read
                };
                if poller.reregister(fd_of(&c.stream), token, interest).is_ok() {
                    c.write_armed = want_write;
                }
            }
            if quiescent && c.closing {
                close_now = true;
            } else if c.closing && !c.grace_armed {
                c.grace_armed = true;
                wheel.insert(
                    Instant::now() + inner.cfg.drain_grace,
                    token,
                    TimerKind::CloseGrace,
                );
            }
        }
    }
    if dead || close_now {
        destroy(conns, poller, inner, token);
    }
}

/// Tear one connection down: deregister, mark the sink gone so late
/// worker responses are discarded, release the connection gauge.
fn destroy(
    conns: &mut HashMap<u64, ConnState>,
    poller: &mut Box<dyn PollBackend>,
    inner: &Arc<Inner>,
    token: u64,
) {
    let Some(c) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(fd_of(&c.stream), token);
    let mut out = lock(&c.conn.out);
    out.gone = true;
    out.bytes.clear();
    out.pos = 0;
    drop(out);
    close_conn(inner);
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The completion invariant, from the loop's side of the lock: a
    /// request's bytes are never visible while it still holds the gauge,
    /// and its gauge never drops before its bytes are there.
    #[test]
    fn response_bytes_and_gauge_release_are_one_step() {
        let (loops, _pollers) = build_loops(1).expect("poller");
        let conn = Arc::new(Conn::new(loops.shared[0].clone(), FIRST_CONN_TOKEN));
        let worker = {
            let conn = conn.clone();
            std::thread::spawn(move || {
                for _ in 0..20_000 {
                    // The loop's part: wait for an empty buffer, admit one.
                    while conn.load() != (0, 0) {
                        std::hint::spin_loop();
                    }
                    conn.begin_request();
                    conn.finish_request(Delivery::Frame(&Response::ok("r", "")));
                }
            })
        };
        let mut flushed = 0;
        while flushed < 20_000 {
            let mut out = lock(&conn.out);
            assert!(
                out.inflight == 0 || out.pending() == 0,
                "bytes visible while their request still holds the gauge"
            );
            if out.inflight == 0 && out.pending() > 0 {
                out.bytes.clear();
                out.pos = 0;
                flushed += 1;
            }
        }
        worker.join().expect("worker");
        assert_eq!(conn.load(), (0, 0));
    }

    #[test]
    fn wheel_fires_due_entries_once() {
        let t0 = Instant::now();
        let mut w = TimerWheel::with_shape(t0, 16, Duration::from_millis(10));
        w.insert(t0 + Duration::from_millis(25), 1, TimerKind::Idle);
        w.insert(t0 + Duration::from_millis(95), 2, TimerKind::CloseGrace);
        assert!(w.advance(t0 + Duration::from_millis(10)).is_empty());
        let due = w.advance(t0 + Duration::from_millis(40));
        assert_eq!(due, vec![(1, TimerKind::Idle)]);
        assert!(w.advance(t0 + Duration::from_millis(50)).is_empty());
        let due = w.advance(t0 + Duration::from_millis(120));
        assert_eq!(due, vec![(2, TimerKind::CloseGrace)]);
        assert!(w.next_timeout(t0 + Duration::from_millis(121)).is_none());
    }

    #[test]
    fn wheel_entries_past_the_horizon_wrap_and_still_fire() {
        let t0 = Instant::now();
        // Horizon = 16 × 10ms = 160ms; the entry sits 3 wraps out.
        let mut w = TimerWheel::with_shape(t0, 16, Duration::from_millis(10));
        w.insert(t0 + Duration::from_millis(500), 9, TimerKind::Idle);
        let mut fired = Vec::new();
        for step in 1..=60 {
            fired.extend(w.advance(t0 + Duration::from_millis(step * 10)));
        }
        assert_eq!(fired, vec![(9, TimerKind::Idle)]);
    }

    #[test]
    fn wheel_fires_an_entry_at_its_deadline_not_at_its_slots_end() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut w = TimerWheel::new(t0);
        assert!(w.next_timeout(t0).is_none());
        // Both deadlines fall inside the current 250 ms tick.
        w.insert(t0 + ms(50), 1, TimerKind::QueueWait);
        w.insert(t0 + ms(120), 2, TimerKind::QueueWait);
        assert_eq!(w.next_timeout(t0), Some(ms(50)));
        assert!(w.advance(t0 + ms(49)).is_empty());
        assert_eq!(w.advance(t0 + ms(50)), vec![(1, TimerKind::QueueWait)]);
        assert_eq!(w.next_timeout(t0 + ms(50)), Some(ms(70)));
        assert_eq!(w.advance(t0 + ms(130)), vec![(2, TimerKind::QueueWait)]);
        assert!(w.next_timeout(t0 + ms(130)).is_none());
    }
}
