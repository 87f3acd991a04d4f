//! Event-core behaviours that only show up at the socket level: partial
//! frames split across readiness events, short-write resumption through
//! the outbound buffer, timer-wheel idle reaping, and the completion
//! order that keeps a well-behaved client out of its own way. (That
//! connections and queries cost no threads is asserted in
//! `spawn_failures.rs`, whose tests do not overlap other servers.)

use std::io::Write;
use std::time::{Duration, Instant};

use ppf_core::{SharedEngine, XmlDb};
use ppf_server::{proto, serve, AdmissionPolicy, Client, ServerConfig, ServerHandle, Verb};
use xmlschema::parse_schema;

const IO: Duration = Duration::from_secs(10);

fn engine(books: usize) -> SharedEngine {
    let schema = parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id = title\n\
         title : text\n",
    )
    .expect("schema");
    let mut db = XmlDb::new(&schema).expect("db");
    let mut xml = String::from("<lib>");
    for i in 0..books {
        xml.push_str(&format!("<book id='b{i}'><title>T{i}</title></book>"));
    }
    xml.push_str("</lib>");
    db.load_xml(&xml).expect("load");
    db.finalize().expect("indexes");
    SharedEngine::new(db)
}

fn start(books: usize, cfg: ServerConfig) -> (ServerHandle, String) {
    let handle = serve(engine(books), "127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

#[test]
fn health_names_the_event_core() {
    let (handle, addr) = start(5, ServerConfig::default());
    assert!(
        handle.core().starts_with("async("),
        "core: {}",
        handle.core()
    );
    let mut c = Client::connect(&addr, IO).expect("connect");
    let body = c
        .request("h", Verb::Health, &[], "")
        .expect("io")
        .result
        .expect("health ok");
    assert!(body.contains("core: async("), "health body: {body}");
    stop(handle);
}

/// A frame trickled in byte-sized chunks crosses many readiness events;
/// the per-connection [`FrameBuffer`] must accumulate it and answer as
/// if it had arrived whole.
#[test]
fn partial_frame_across_many_readiness_events() {
    let (handle, addr) = start(7, ServerConfig::default());
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    raw.set_read_timeout(Some(IO)).unwrap();
    raw.set_nodelay(true).unwrap();

    let payload = proto::render_request("slow-feed", Verb::Query, &[], "/lib/book");
    let framed = format!("{}\n{payload}", payload.len()).into_bytes();
    // Feed the frame in three slices with real pauses, so the event loop
    // sees separate readable events with an incomplete buffer between.
    let cuts = [framed.len() / 3, 2 * framed.len() / 3, framed.len()];
    let mut sent = 0;
    for cut in cuts {
        raw.write_all(&framed[sent..cut]).unwrap();
        raw.flush().unwrap();
        sent = cut;
        std::thread::sleep(Duration::from_millis(60));
    }

    let mut reader = std::io::BufReader::new(raw);
    let frame = proto::read_frame(&mut reader)
        .expect("read")
        .expect("response");
    let resp = proto::parse_response(&frame).expect("parse");
    assert_eq!(resp.id, "slow-feed");
    assert!(resp.result.expect("ok").starts_with("rows 7\n"));
    stop(handle);
}

/// Pipeline several large responses while the client is not reading:
/// the kernel buffers fill, the event loop takes a short write, parks
/// the tail in the outbound buffer under write interest, and resumes
/// when the client drains. Every byte must arrive, in order.
#[test]
fn short_writes_resume_without_losing_bytes() {
    let (handle, addr) = start(
        30_000,
        ServerConfig {
            per_conn_cap: 8,
            // Six pipelined heavyweight queries on however few cores CI
            // grants: nothing here should queue-timeout.
            max_inflight: 8,
            queue_wait: Duration::from_secs(10),
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&addr, IO).expect("connect");
    const PIPELINED: usize = 6;
    for n in 0..PIPELINED {
        c.send(&format!("big{n}"), Verb::Query, &[], "/lib/book")
            .expect("send");
    }
    // Let the responses (~200 KB each) pile up against a non-reading
    // client so the outbound buffers actually engage.
    std::thread::sleep(Duration::from_millis(400));
    let mut seen = Vec::new();
    for _ in 0..PIPELINED {
        let resp = c.recv().expect("recv");
        let body = resp.result.expect("ok");
        assert!(body.starts_with("rows 30000\n"), "truncated response");
        // One id per line after the header — a short-changed tail would
        // show up as a wrong line count.
        assert_eq!(body.lines().count(), 30_001, "response tail missing");
        seen.push(resp.id);
    }
    // Responses may complete out of order (parallel workers) but none
    // may be lost or duplicated.
    seen.sort();
    let mut want: Vec<String> = (0..PIPELINED).map(|n| format!("big{n}")).collect();
    want.sort();
    assert_eq!(seen, want);
    stop(handle);
}

/// The timer wheel reaps a connection that stays silent past
/// `idle_timeout` — no 50 ms polling loop involved.
#[test]
fn idle_connections_are_reaped_by_the_timer_wheel() {
    let (handle, addr) = start(
        5,
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    );
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    // Well past the idle deadline plus wheel granularity, but far short
    // of hanging the suite if the reap never comes.
    raw.set_read_timeout(Some(Duration::from_secs(15))).unwrap();
    let payload = proto::render_request("warm", Verb::Query, &[], "/lib/book");
    raw.write_all(format!("{}\n{payload}", payload.len()).as_bytes())
        .unwrap();
    let mut reader = std::io::BufReader::new(raw);
    let frame = proto::read_frame(&mut reader)
        .expect("read")
        .expect("response");
    assert!(proto::parse_response(&frame).expect("parse").result.is_ok());
    // Now go silent: the next read must end in EOF (the reap), not a
    // read timeout.
    let t0 = Instant::now();
    match proto::read_frame(&mut reader) {
        Ok(None) | Err(_) => {} // EOF or reset: reaped
        Ok(Some(frame)) => panic!("unexpected frame instead of a reap: {frame}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(14),
        "read timed out rather than being reaped"
    );
    stop(handle);
}

/// A counter's value in a `stats` body (0 when it was never touched).
fn counter(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.trim().strip_prefix(name)?.trim().parse().ok())
        .unwrap_or(0)
}

/// One slot, shed policy, one strictly sequential client: each request
/// is sent only after the previous response was read, so the previous
/// worker must already have given its admission slot back — a response
/// that reaches the client before the slot is free sheds the next
/// request on `busy`.
#[test]
fn sequential_client_is_never_shed_by_its_own_previous_request() {
    let (handle, addr) = start(
        1,
        ServerConfig {
            max_inflight: 1,
            policy: AdmissionPolicy::Shed,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&addr, IO).expect("connect");
    for n in 0..2_000 {
        let resp = c
            .request(&format!("s{n}"), Verb::Query, &[], "/lib")
            .expect("io");
        assert!(resp.result.is_ok(), "request {n}: {:?}", resp.result);
    }
    let stats = c.request("st", Verb::Stats, &[], "").expect("io").result;
    assert_eq!(counter(&stats.expect("stats ok"), "server.shed.busy"), 0);
    stop(handle);
}

/// A client pipelining at exactly `per_conn_cap` sends a request only
/// after reading a response, so it never has more than the cap
/// outstanding — unless the server lets a response out before dropping
/// that request's pipelining gauge.
#[test]
fn pipelining_at_the_connection_cap_is_never_shed() {
    const DEPTH: usize = 2;
    const QUERIES: usize = 20_000;
    let (handle, addr) = start(
        1,
        ServerConfig {
            per_conn_cap: DEPTH,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(&addr, IO).expect("connect");
    for n in 0..QUERIES + DEPTH {
        if n >= DEPTH {
            let resp = c.recv().expect("recv");
            assert!(resp.result.is_ok(), "{}: {:?}", resp.id, resp.result);
        }
        if n < QUERIES {
            c.send(&format!("p{n}"), Verb::Query, &[], "/lib")
                .expect("send");
        }
    }
    let stats = c.request("st", Verb::Stats, &[], "").expect("io").result;
    assert_eq!(
        counter(&stats.expect("stats ok"), "server.shed.conn_cap"),
        0
    );
    stop(handle);
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;

    /// Drain with a query in flight: the shutdown ack arrives, the slow
    /// query still completes inside the grace period, and only then does
    /// the loop retire the connection.
    #[test]
    fn drain_waits_for_inflight_queries() {
        let (handle, addr) = start(10, ServerConfig::default());
        handle.install_chaos("slow=1:300 seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        c.send("slowpoke", Verb::Query, &[], "/lib/book")
            .expect("send");
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        let resp = c.recv().expect("the drain must not cut an admitted query");
        assert_eq!(resp.id, "slowpoke");
        assert!(resp.result.expect("ok").starts_with("rows 10\n"));
        handle.join();
    }
}
