//! Thread-spawn exhaustion: the server must shed the one affected
//! request with a typed `[overload]` error and keep serving.
//!
//! The injection hook is a process-global countdown, so every test
//! that arms it lives in this file, serializes on a mutex and consumes
//! every armed failure before exiting — in any other test binary a
//! parallel test's spawn would eat the armed failure.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use ppf_core::{SharedEngine, XmlDb};
use ppf_server::server::test_hooks;
use ppf_server::{
    serve, serve_with_reload, Client, ErrorKind, ReloadFn, ServerConfig, ServerHandle, Verb,
};
use xmlschema::parse_schema;

const IO: Duration = Duration::from_secs(10);

fn serialize() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn db() -> XmlDb {
    let schema = parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id = title\n\
         title : text\n",
    )
    .expect("schema");
    let mut db = XmlDb::new(&schema).expect("db");
    db.load_xml("<lib><book id='b0'><title>T</title></book></lib>")
        .expect("load");
    db.finalize().expect("indexes");
    db
}

fn start(cfg: ServerConfig) -> (ServerHandle, String) {
    let handle = serve(SharedEngine::new(db()), "127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn failed_query_worker_spawn_sheds_and_the_server_survives() {
    let _gate = serialize();
    let (handle, addr) = start(ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");
    // Prove the connection is fully adopted before arming, so the armed
    // failure hits the worker spawn of the query sent after it.
    assert!(c
        .request("warm", Verb::Query, &[], "/lib/book")
        .expect("io")
        .result
        .is_ok());

    test_hooks::fail_next_spawns(1);
    let resp = c
        .request("doomed", Verb::Query, &[], "/lib/book")
        .expect("io");
    let (kind, msg) = resp.result.expect_err("spawn failure must shed");
    assert_eq!(kind, ErrorKind::Overload);
    assert!(kind.is_retryable(), "clients must be told to retry");
    assert!(msg.contains("spawn"), "msg: {msg}");

    // The very same connection works on retry: nothing leaked, nothing
    // died, the pipelining gauge was released.
    let resp = c
        .request("retry", Verb::Query, &[], "/lib/book")
        .expect("io");
    assert!(resp.result.expect("ok").starts_with("rows 1\n"));

    // The reservation bookkeeping reconciled: shed + spawn_failures
    // counters moved, and no query slot is stuck.
    let stats = c
        .request("st", Verb::Stats, &[], "")
        .expect("io")
        .result
        .expect("stats ok");
    assert!(
        stats.contains("server.spawn_failures"),
        "spawn_failures counter missing: {stats}"
    );
    assert!(
        stats.contains("server.shed.spawn"),
        "shed.spawn counter missing: {stats}"
    );

    test_hooks::fail_next_spawns(0);
    handle.shutdown();
    handle.join();
}

#[test]
fn failed_reload_worker_spawn_sheds_with_typed_overload() {
    let _gate = serialize();
    let reloader: ReloadFn = Arc::new(|| Ok(db()));
    let handle = serve_with_reload(
        SharedEngine::new(db()),
        "127.0.0.1:0",
        ServerConfig::default(),
        Some(reloader),
    )
    .expect("bind");
    let mut c = Client::connect(&handle.addr().to_string(), IO).expect("connect");

    // Round-trip once before arming the hook, so the connection is
    // adopted and the armed failure meets the reload worker's spawn.
    c.request("h0", Verb::Health, &[], "")
        .expect("io")
        .result
        .expect("ok");

    test_hooks::fail_next_spawns(1);
    let resp = c.request("r1", Verb::Reload, &[], "").expect("io");
    let (kind, msg) = resp.result.expect_err("must shed");
    assert_eq!(kind, ErrorKind::Overload);
    assert!(msg.contains("reload worker"), "msg: {msg}");

    // The shed released the connection's pipelining slot: both queries
    // and reloads still work.
    let resp = c.request("q1", Verb::Query, &[], "/lib/book").expect("io");
    assert!(resp.result.expect("ok").starts_with("rows 1\n"));
    let resp = c.request("r2", Verb::Reload, &[], "").expect("io");
    assert_eq!(resp.version(), Some(2));
    resp.result.expect("reload ok");

    test_hooks::fail_next_spawns(0);
    handle.shutdown();
    handle.join();
}
