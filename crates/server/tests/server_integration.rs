//! End-to-end protocol tests: a real `serve()` loop on a loopback port,
//! exercised through the bundled [`Client`].
//!
//! The chaos-gated tests at the bottom (run with `--features chaos`) use
//! deterministic fault probabilities (`slow=1`, `panic=1`, `drop=1:pre`)
//! so every assertion is about guaranteed behaviour, not sampling.

use std::time::Duration;

use ppf_core::{SharedEngine, XmlDb};
use ppf_server::{serve, Client, ErrorKind, ServerConfig, ServerHandle, Verb};
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
fn read_verbs_round_trip() {
    let (handle, addr) = start(600, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");

    let resp = c.request("q1", Verb::Query, &[], "/lib/book").expect("io");
    let body = resp.result.expect("query ok");
    assert!(body.starts_with("rows 600\n"), "unexpected body: {body}");

    let resp = c
        .request("e1", Verb::Explain, &[], "/lib/book")
        .expect("io");
    assert!(!resp.result.expect("explain ok").is_empty());

    let resp = c
        .request("a1", Verb::Analyze, &[], "/lib/book")
        .expect("io");
    let body = resp.result.expect("analyze ok");
    assert!(body.contains("rows"), "analyze body lacks actuals: {body}");

    let resp = c.request("s1", Verb::Stats, &[], "").expect("io");
    let body = resp.result.expect("stats ok");
    assert!(body.contains("server.queries"), "stats body: {body}");

    let resp = c.request("h1", Verb::Health, &[], "").expect("io");
    let body = resp.result.expect("health ok");
    assert!(body.contains("status: ok"), "health body: {body}");

    stop(handle);
}

#[test]
fn engine_errors_come_back_typed() {
    let (handle, addr) = start(10, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");

    let resp = c.request("bad", Verb::Query, &[], "///").expect("io");
    let (kind, _) = resp.result.expect_err("bad XPath must fail");
    assert_eq!(kind, ErrorKind::Parse);

    // maxrows below the result size trips the engine's row limit.
    let resp = c
        .request("cap", Verb::Query, &[("maxrows", "3")], "/lib/book")
        .expect("io");
    let (kind, _) = resp.result.expect_err("row budget must trip");
    assert_eq!(kind, ErrorKind::Limit);

    // The connection is still healthy after both errors.
    let resp = c.request("ok", Verb::Query, &[], "/lib/book").expect("io");
    assert!(resp.result.expect("ok").starts_with("rows 10\n"));

    stop(handle);
}

#[test]
fn oversized_results_are_truncated_not_dropped() {
    let cfg = ServerConfig {
        max_response_rows: 10,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(120, cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");
    let body = c
        .request("t", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .expect("ok");
    assert!(body.starts_with("rows 120\n"), "body: {body}");
    assert!(body.ends_with("truncated 110\n"), "body: {body}");
    stop(handle);
}

#[test]
fn malformed_requests_get_proto_errors() {
    let (handle, addr) = start(10, ServerConfig::default());

    // Well-framed but unparsable header: typed proto error, conn stays up.
    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("x", Verb::Query, &[], "/lib/book").expect("io");
    assert!(resp.result.is_ok());
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.set_read_timeout(Some(IO)).unwrap();
        let payload = "id-without-a-verb";
        raw.write_all(format!("{}\n{payload}", payload.len()).as_bytes())
            .unwrap();
        let mut reader = std::io::BufReader::new(raw.try_clone().unwrap());
        let frame = ppf_server::proto::read_frame(&mut reader)
            .expect("frame")
            .expect("response");
        let resp = ppf_server::proto::parse_response(&frame).expect("parse");
        let (kind, _) = resp.result.expect_err("must be an error");
        assert_eq!(kind, ErrorKind::Proto);

        // Broken framing (unparsable length header): proto error, close.
        raw.write_all(b"notalength\n").unwrap();
        // The server may sever before the error lands; if a frame does
        // arrive, it must be the typed proto error.
        if let Ok(Some(frame)) = ppf_server::proto::read_frame(&mut reader) {
            let resp = ppf_server::proto::parse_response(&frame).expect("parse");
            assert_eq!(resp.result.expect_err("err").0, ErrorKind::Proto);
        }
    }
    stop(handle);
}

#[test]
fn slowlog_records_queries_with_phase_breakdown() {
    // A zero threshold logs every query, so one query is enough to make
    // the log deterministic.
    let cfg = ServerConfig {
        slow_query: Duration::ZERO,
        slowlog_capacity: 8,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(50, cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");

    // Before any query the log is empty but the verb still answers.
    let body = c
        .request("sl0", Verb::Slowlog, &[], "")
        .expect("io")
        .result
        .expect("slowlog ok");
    assert!(body.contains("slowlog empty"), "body: {body}");

    assert!(c
        .request("q1", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .is_ok());
    // Errors are logged too, with their typed outcome.
    assert!(c
        .request("q2", Verb::Query, &[("maxrows", "3")], "/lib/book")
        .expect("io")
        .result
        .is_err());

    let body = c
        .request("sl1", Verb::Slowlog, &[], "")
        .expect("io")
        .result
        .expect("slowlog ok");
    assert!(body.contains("newest first"), "body: {body}");
    assert!(body.contains("/lib/book"), "query text missing: {body}");
    assert!(body.contains("exec="), "phase breakdown missing: {body}");
    assert!(body.contains("rows=50"), "row count missing: {body}");
    assert!(body.contains(" limit "), "error outcome missing: {body}");
    // Newest first: the failed q2 renders before the successful q1.
    let q2_pos = body.find(" q2 ").expect("q2 logged");
    let q1_pos = body.find(" q1 ").expect("q1 logged");
    assert!(q2_pos < q1_pos, "not newest-first: {body}");

    // Satellite: per-verb latency histograms show up in `stats`.
    let stats = c
        .request("st", Verb::Stats, &[], "")
        .expect("io")
        .result
        .expect("stats ok");
    assert!(
        stats.contains("server.verb_ns.query"),
        "per-verb histogram missing: {stats}"
    );
    assert!(
        stats.contains("engine.query_ns"),
        "engine latency histogram missing: {stats}"
    );
    stop(handle);
}

#[test]
fn slowlog_ring_is_bounded_and_can_be_disabled() {
    let cfg = ServerConfig {
        slow_query: Duration::ZERO,
        slowlog_capacity: 2,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(5, cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");
    for n in 0..5 {
        assert!(c
            .request(&format!("q{n}"), Verb::Query, &[], "/lib/book")
            .expect("io")
            .result
            .is_ok());
    }
    let body = c
        .request("sl", Verb::Slowlog, &[], "")
        .expect("io")
        .result
        .expect("slowlog ok");
    assert!(body.contains("2 of cap 2"), "ring not bounded: {body}");
    assert!(
        body.contains(" q4 ") && body.contains(" q3 "),
        "body: {body}"
    );
    assert!(!body.contains(" q0 "), "oldest entry not evicted: {body}");
    stop(handle);

    // Capacity zero disables logging entirely.
    let cfg = ServerConfig {
        slow_query: Duration::ZERO,
        slowlog_capacity: 0,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(5, cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");
    assert!(c
        .request("q", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .is_ok());
    let body = c
        .request("sl", Verb::Slowlog, &[], "")
        .expect("io")
        .result
        .expect("slowlog ok");
    assert!(body.contains("slowlog empty"), "body: {body}");
    stop(handle);
}

#[test]
fn cancel_of_unknown_id_is_not_found() {
    let (handle, addr) = start(10, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");
    let body = c
        .request("c1", Verb::Cancel, &[], "no-such-query")
        .expect("io")
        .result
        .expect("cancel ok");
    assert_eq!(body, "not-found");
    stop(handle);
}

#[test]
fn per_connection_cap_sheds_typed_overload() {
    // A cap of zero makes the very first query overload — deterministic.
    let cfg = ServerConfig {
        per_conn_cap: 0,
        ..ServerConfig::default()
    };
    let (handle, addr) = start(10, cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("q", Verb::Query, &[], "/lib/book").expect("io");
    let (kind, msg) = resp.result.expect_err("must shed");
    assert_eq!(kind, ErrorKind::Overload);
    assert!(kind.is_retryable());
    assert!(msg.contains("conn_cap"), "msg: {msg}");
    stop(handle);
}

#[test]
fn shutdown_drains_and_rejects_new_work() {
    let (handle, addr) = start(10, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");
    assert!(c
        .request("q1", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .is_ok());

    // Pipeline the drain and a query behind it: the query must be turned
    // away with the typed shutdown kind (or the conn closed under us —
    // also a legal drain outcome).
    c.send("bye", Verb::Shutdown, &[], "").expect("send");
    // The drain can tear the connection down before this pipelined send
    // lands (broken pipe) — also a legal outcome, like the recv below.
    let late_sent = c.send("late", Verb::Query, &[], "/lib/book").is_ok();
    let resp = c.recv().expect("shutdown ack");
    assert_eq!(resp.id, "bye");
    assert_eq!(resp.result.expect("ok"), "draining");
    // An I/O error here means the drain already tore the conn down —
    // also a legal outcome.
    if late_sent {
        if let Ok(resp) = c.recv() {
            assert_eq!(resp.id, "late");
            let (kind, _) = resp.result.expect_err("must be rejected");
            assert_eq!(kind, ErrorKind::Shutdown);
        }
    }

    handle.join();
    // The listener is gone: new connections must fail outright or be
    // unable to complete a request.
    if let Ok(mut late) = Client::connect(&addr, Duration::from_millis(500)) {
        assert!(late.request("post", Verb::Health, &[], "").is_err());
    }
}

#[cfg(not(feature = "chaos"))]
#[test]
fn chaos_verb_is_unsupported_without_the_feature() {
    let (handle, addr) = start(10, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("ch", Verb::Chaos, &[], "panic=1").expect("io");
    let (kind, msg) = resp.result.expect_err("must be unsupported");
    assert_eq!(kind, ErrorKind::Unsupported);
    assert!(msg.contains("chaos"), "msg: {msg}");
    assert!(handle.install_chaos("panic=1").is_err());
    stop(handle);
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use ppf_server::AdmissionPolicy;

    #[test]
    fn slow_fault_forces_overload_on_a_full_server() {
        let cfg = ServerConfig {
            max_inflight: 1,
            queue_depth: 0,
            policy: AdmissionPolicy::Shed,
            per_conn_cap: 8,
            ..ServerConfig::default()
        };
        let (handle, addr) = start(10, cfg);
        handle.install_chaos("slow=1:300 seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        for n in 0..4 {
            c.send(&format!("q{n}"), Verb::Query, &[], "/lib/book")
                .expect("send");
        }
        let mut ok = 0;
        let mut overload = 0;
        for _ in 0..4 {
            match c.recv().expect("recv").result {
                Ok(_) => ok += 1,
                Err((ErrorKind::Overload, _)) => overload += 1,
                Err((kind, msg)) => panic!("unexpected {kind:?}: {msg}"),
            }
        }
        // One query holds the only slot (sleeping 300ms); the other
        // three arrive while it sleeps and are shed.
        assert_eq!(ok, 1);
        assert_eq!(overload, 3);
        stop(handle);
    }

    /// One worker: the query after the panic can only be served by the
    /// thread that contained it.
    #[test]
    fn panic_fault_is_contained_and_server_survives() {
        let cfg = ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        };
        let (handle, addr) = start(10, cfg);
        handle.install_chaos("panic=1 seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        let resp = c
            .request("boom", Verb::Query, &[], "/lib/book")
            .expect("io");
        let (kind, msg) = resp.result.expect_err("must fail");
        assert_eq!(kind, ErrorKind::Exec);
        assert!(msg.contains("panic contained"), "msg: {msg}");

        handle.install_chaos("off").expect("chaos off");
        let resp = c
            .request("fine", Verb::Query, &[], "/lib/book")
            .expect("io");
        assert!(resp.result.expect("ok").starts_with("rows 10\n"));
        stop(handle);
    }

    /// A queued request's wait is bounded by `queue_wait` even while the
    /// only worker stays busy: the owning loop's timer sheds it, it does
    /// not wait for the slot to come free and then learn it is late.
    #[test]
    fn queued_request_times_out_while_the_only_worker_is_busy() {
        let cfg = ServerConfig {
            max_inflight: 1,
            queue_wait: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let (handle, addr) = start(10, cfg);
        handle.install_chaos("slow=1:600 seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        c.send("hog", Verb::Query, &[], "/lib/book").expect("send");
        let t0 = std::time::Instant::now();
        c.send("late", Verb::Query, &[], "/lib/book").expect("send");
        let resp = c.recv().expect("recv");
        let waited = t0.elapsed();
        assert_eq!(resp.id, "late", "the shed must overtake the slow query");
        let (kind, msg) = resp.result.expect_err("must be shed");
        assert_eq!(kind, ErrorKind::Overload);
        assert!(msg.contains("timed out waiting"), "msg: {msg}");
        assert!(
            waited < Duration::from_millis(350),
            "shed after {waited:?}: at the worker's pace, not the timer's"
        );
        let resp = c.recv().expect("recv");
        assert_eq!(resp.id, "hog");
        assert!(resp.result.is_ok());
        stop(handle);
    }

    /// Drain with one query running and one queued behind it: both are
    /// answered, and `join` returns — every worker exited.
    #[test]
    fn drain_answers_the_running_and_the_queued_query() {
        let cfg = ServerConfig {
            max_inflight: 1,
            queue_wait: Duration::from_secs(10),
            ..ServerConfig::default()
        };
        let (handle, addr) = start(10, cfg);
        handle.install_chaos("slow=1:300 seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        c.send("running", Verb::Query, &[], "/lib/book")
            .expect("send");
        c.send("queued", Verb::Query, &[], "/lib/book")
            .expect("send");
        // Both are admitted once `health` (answered in order on the same
        // connection's loop) reports them.
        let body = c
            .request("h", Verb::Health, &[], "")
            .expect("io")
            .result
            .expect("health ok");
        assert!(body.contains("inflight: 1\nwaiting: 1"), "health: {body}");
        handle.shutdown();
        for want in ["running", "queued"] {
            let resp = c.recv().expect("the drain must not cut an admitted query");
            assert_eq!(resp.id, want);
            assert!(resp.result.expect("ok").starts_with("rows 10\n"));
        }
        handle.join();
    }

    /// Ids are the clients' to choose: two connections using the same
    /// one must not clobber each other's cancel-table entry.
    #[test]
    fn cancel_reaches_every_query_sharing_an_id() {
        let cfg = ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        };
        let (handle, addr) = start(10, cfg);
        handle.install_chaos("slow=1:400 seed=1").expect("chaos on");
        let mut a = Client::connect(&addr, IO).expect("connect a");
        let mut b = Client::connect(&addr, IO).expect("connect b");
        let mut killer = Client::connect(&addr, IO).expect("connect killer");
        a.send("q1", Verb::Query, &[], "/lib/book").expect("send");
        // `a`'s query is registered once its own loop has answered this.
        assert!(a.send("ha", Verb::Health, &[], "").is_ok());
        b.send("q1", Verb::Query, &[], "/lib/book").expect("send");
        b.request("hb", Verb::Health, &[], "").expect("io");
        assert_eq!(a.recv().expect("health").id, "ha");
        let body = killer
            .request("k", Verb::Cancel, &[], "q1")
            .expect("io")
            .result
            .expect("cancel ok");
        assert_eq!(body, "cancelled");
        for victim in [&mut a, &mut b] {
            let resp = victim.recv().expect("victim response");
            assert_eq!(resp.id, "q1");
            let (kind, _) = resp.result.expect_err("both must be cancelled");
            assert_eq!(kind, ErrorKind::Cancelled);
        }
        // Each completion removed its own entry, not its namesake's.
        let body = killer
            .request("k2", Verb::Cancel, &[], "q1")
            .expect("io")
            .result
            .expect("cancel ok");
        assert_eq!(body, "not-found");
        stop(handle);
    }

    #[test]
    fn cancel_reaches_an_inflight_query() {
        let (handle, addr) = start(10, ServerConfig::default());
        handle.install_chaos("slow=1:500 seed=1").expect("chaos on");
        let mut a = Client::connect(&addr, IO).expect("connect a");
        let mut b = Client::connect(&addr, IO).expect("connect b");
        a.send("victim", Verb::Query, &[], "/lib/book")
            .expect("send");
        std::thread::sleep(Duration::from_millis(100));
        let body = b
            .request("killer", Verb::Cancel, &[], "victim")
            .expect("io")
            .result
            .expect("cancel ok");
        assert_eq!(body, "cancelled");
        let resp = a.recv().expect("victim response");
        assert_eq!(resp.id, "victim");
        let (kind, _) = resp.result.expect_err("must be cancelled");
        assert_eq!(kind, ErrorKind::Cancelled);
        stop(handle);
    }

    #[test]
    fn drop_fault_severs_and_the_server_keeps_serving() {
        let (handle, addr) = start(10, ServerConfig::default());
        handle.install_chaos("drop=1:pre seed=1").expect("chaos on");
        let mut c = Client::connect(&addr, IO).expect("connect");
        c.send("gone", Verb::Query, &[], "/lib/book").expect("send");
        assert!(c.recv().is_err(), "connection must be severed");

        handle.install_chaos("off").expect("chaos off");
        let mut c2 = Client::connect(&addr, IO).expect("reconnect");
        let resp = c2
            .request("after", Verb::Query, &[], "/lib/book")
            .expect("io");
        assert!(resp.result.expect("ok").starts_with("rows 10\n"));
        stop(handle);
    }
}
