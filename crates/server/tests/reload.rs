//! End-to-end hot-reload tests: the `reload` verb swaps snapshots under
//! live traffic, failures leave the old snapshot serving, responses are
//! version-stamped, and `health` reports the serving snapshot.
//!
//! The chaos-gated tests at the bottom (run with `--features chaos`) use
//! probability-1 `reload_fault` specs so every assertion is about
//! guaranteed behaviour, not sampling.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use ppf_core::{ReloadError, SharedEngine, XmlDb};
use ppf_server::{
    serve, serve_with_reload, Client, ErrorKind, ReloadFn, ServerConfig, ServerHandle, Verb,
};
use xmlschema::{parse_schema, Schema};

const IO: Duration = Duration::from_secs(10);

fn schema() -> Schema {
    parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id = title\n\
         title : text\n",
    )
    .expect("schema")
}

fn build_db(books: usize) -> Result<XmlDb, ReloadError> {
    let mut db = XmlDb::new(&schema())?;
    let mut xml = String::from("<lib>");
    for i in 0..books {
        xml.push_str(&format!("<book id='b{i}'><title>T{i}</title></book>"));
    }
    xml.push_str("</lib>");
    db.load_xml(&xml)?;
    db.finalize()?;
    Ok(db)
}

/// Serve with a reload source that grows by one book per rebuild, so
/// each swap is observable in the row count.
fn start_reloadable(books: usize, cfg: ServerConfig) -> (ServerHandle, String, Arc<AtomicUsize>) {
    let rebuilds = Arc::new(AtomicUsize::new(0));
    let counter = rebuilds.clone();
    let reloader: ReloadFn = Arc::new(move || {
        let n = books + 1 + counter.fetch_add(1, SeqCst);
        build_db(n)
    });
    let engine = SharedEngine::new(build_db(books).expect("seed db"));
    let handle = serve_with_reload(engine, "127.0.0.1:0", cfg, Some(reloader)).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr, rebuilds)
}

fn stop(handle: ServerHandle) {
    handle.shutdown();
    handle.join();
}

fn rows(body: &str) -> usize {
    body.strip_prefix("rows ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("rows header")
}

#[test]
fn reload_verb_swaps_and_stamps_versions() {
    let (handle, addr, _) = start_reloadable(3, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");

    let resp = c.request("q1", Verb::Query, &[], "/lib/book").expect("io");
    assert_eq!(resp.version(), Some(1), "first snapshot is version 1");
    assert_eq!(rows(&resp.result.expect("ok")), 3);

    let resp = c.request("r1", Verb::Reload, &[], "").expect("io");
    assert_eq!(resp.version(), Some(2));
    let body = resp.result.expect("reload ok");
    assert!(body.starts_with("reloaded\n"), "body: {body}");
    assert!(body.contains("snapshot_version: 2"), "body: {body}");
    assert!(body.contains("documents: 1"), "body: {body}");

    let resp = c.request("q2", Verb::Query, &[], "/lib/book").expect("io");
    assert_eq!(resp.version(), Some(2));
    assert_eq!(
        rows(&resp.result.expect("ok")),
        4,
        "one book grown per rebuild"
    );

    // explain/analyze pin the same serving snapshot and stamp it too.
    let resp = c
        .request("e1", Verb::Explain, &[], "/lib/book")
        .expect("io");
    assert_eq!(resp.version(), Some(2));
    assert!(!resp.result.expect("explain ok").is_empty());

    stop(handle);
}

#[test]
fn health_reports_the_serving_snapshot() {
    let (handle, addr, _) = start_reloadable(5, ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");

    let body = c
        .request("h1", Verb::Health, &[], "")
        .expect("io")
        .result
        .expect("ok");
    assert!(body.contains("snapshot_version: 1"), "body: {body}");
    assert!(body.contains("documents: 1"), "body: {body}");
    assert!(body.contains("loaded_at_unix: "), "body: {body}");
    assert!(body.contains("tables: "), "body: {body}");
    assert!(body.contains("rows: "), "body: {body}");
    // Derived state is reported for the pinned snapshot: every table
    // analyzed at finalize, no filter scan memoized before any query.
    assert!(!body.contains("stats_tables: 0"), "body: {body}");
    assert!(body.contains("filter_memo_entries: 0"), "body: {body}");

    c.request("r1", Verb::Reload, &[], "")
        .expect("io")
        .result
        .expect("reload ok");
    let resp = c.request("h2", Verb::Health, &[], "").expect("io");
    assert_eq!(resp.version(), Some(2));
    let body = resp.result.expect("ok");
    assert!(body.contains("snapshot_version: 2"), "body: {body}");

    stop(handle);
}

#[test]
fn reload_without_a_source_is_unsupported() {
    let engine = SharedEngine::new(build_db(2).expect("db"));
    let handle = serve(engine, "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("r1", Verb::Reload, &[], "").expect("io");
    let (kind, msg) = resp.result.expect_err("must be unsupported");
    assert_eq!(kind, ErrorKind::Unsupported);
    assert!(msg.contains("no reload source"), "msg: {msg}");
    stop(handle);
}

#[test]
fn failed_reload_leaves_old_snapshot_serving() {
    let fail = Arc::new(AtomicUsize::new(1));
    let gate = fail.clone();
    let reloader: ReloadFn = Arc::new(move || {
        if gate.load(SeqCst) == 1 {
            return Err(ReloadError::io("disk on fire"));
        }
        build_db(9)
    });
    let engine = SharedEngine::new(build_db(4).expect("db"));
    let handle = serve_with_reload(
        engine,
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(reloader),
    )
    .expect("bind");
    let addr = handle.addr().to_string();
    let mut c = Client::connect(&addr, IO).expect("connect");

    let baseline = c
        .request("q1", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .expect("ok");

    let resp = c.request("r1", Verb::Reload, &[], "").expect("io");
    let (kind, msg) = resp.result.expect_err("reload must fail");
    assert_eq!(kind, ErrorKind::Exec);
    assert!(msg.contains("disk on fire"), "msg: {msg}");

    // Byte-identical replay from the untouched old snapshot.
    let resp = c.request("q2", Verb::Query, &[], "/lib/book").expect("io");
    assert_eq!(resp.version(), Some(1));
    assert_eq!(resp.result.expect("ok"), baseline);

    // Clearing the gate lets the very next reload land.
    fail.store(0, SeqCst);
    let resp = c.request("r2", Verb::Reload, &[], "").expect("io");
    assert_eq!(resp.version(), Some(2));
    resp.result.expect("reload ok");
    let resp = c.request("q3", Verb::Query, &[], "/lib/book").expect("io");
    assert_eq!(rows(&resp.result.expect("ok")), 9);

    stop(handle);
}

#[test]
fn reload_refused_while_draining() {
    let (handle, addr, _) = start_reloadable(2, ServerConfig::default());

    // Server-side refusal on the SIGHUP path once a drain has begun.
    handle.shutdown();
    let err = handle.reload().expect_err("draining must refuse reload");
    assert_eq!(err, ReloadError::Draining);
    assert_eq!(err.kind(), "draining");
    assert!(!err.is_retryable());

    let _ = addr;
    handle.join();
}

#[test]
fn handle_reload_works_like_the_verb() {
    let (handle, addr, _) = start_reloadable(2, ServerConfig::default());
    assert_eq!(handle.reload().expect("reload"), 2);
    assert_eq!(handle.reload().expect("reload"), 3);

    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("q1", Verb::Query, &[], "/lib/book").expect("io");
    assert_eq!(resp.version(), Some(3));
    assert_eq!(rows(&resp.result.expect("ok")), 4, "2 books + 2 rebuilds");
    stop(handle);
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;

    #[test]
    fn injected_reload_panic_and_io_faults_never_disturb_serving() {
        let (handle, addr, _) = start_reloadable(3, ServerConfig::default());
        let mut c = Client::connect(&addr, IO).expect("connect");
        let baseline = c
            .request("q0", Verb::Query, &[], "/lib/book")
            .expect("io")
            .result
            .expect("ok");

        for (spec, expect_msg) in [
            ("reload_fault=panic:1", "panic"),
            ("reload_fault=io:1", "I/O"),
        ] {
            c.request("ch", Verb::Chaos, &[], spec)
                .expect("io")
                .result
                .expect("chaos armed");
            let resp = c.request("r", Verb::Reload, &[], "").expect("io");
            let (kind, msg) = resp.result.expect_err("injected fault must fail reload");
            assert_eq!(kind, ErrorKind::Exec);
            assert!(msg.contains(expect_msg), "spec {spec}: msg {msg}");

            // Old snapshot still serving, byte-identical.
            let resp = c.request("q", Verb::Query, &[], "/lib/book").expect("io");
            assert_eq!(resp.version(), Some(1));
            assert_eq!(resp.result.expect("ok"), baseline);
        }

        // Chaos off: reload succeeds on the first clean attempt.
        c.request("ch", Verb::Chaos, &[], "off")
            .expect("io")
            .result
            .expect("chaos off");
        let resp = c.request("r", Verb::Reload, &[], "").expect("io");
        assert_eq!(resp.version(), Some(2));
        resp.result.expect("reload ok");

        stop(handle);
    }

    #[test]
    fn slow_reload_stages_off_the_serving_path() {
        let (handle, addr, _) = start_reloadable(3, ServerConfig::default());
        let mut c = Client::connect(&addr, IO).expect("connect");
        c.request("ch", Verb::Chaos, &[], "reload_fault=slow:1:300")
            .expect("io")
            .result
            .expect("chaos armed");

        // Pipeline the reload, then run queries on a second connection
        // while it stages: they must answer promptly from version 1.
        c.send("r", Verb::Reload, &[], "").expect("send");
        let mut c2 = Client::connect(&addr, IO).expect("connect");
        let t0 = std::time::Instant::now();
        let resp = c2.request("q1", Verb::Query, &[], "/lib/book").expect("io");
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "query must not wait out the 300ms staging sleep"
        );
        assert_eq!(resp.version(), Some(1));
        assert_eq!(rows(&resp.result.expect("ok")), 3);

        let resp = c.recv().expect("reload response");
        assert_eq!(resp.id, "r");
        assert_eq!(resp.version(), Some(2));
        resp.result.expect("slow reload still lands");

        stop(handle);
    }
}
