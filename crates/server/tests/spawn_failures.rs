//! The server's threads: what happens when one cannot be spawned, and
//! that nothing but start-up spawns any.
//!
//! Thread-spawn exhaustion at start-up must fail `serve` cleanly;
//! afterwards the server must shed the one affected request with a typed
//! `[overload]` error and keep serving. Neither connections nor queries
//! may grow the thread count.
//!
//! The injection hook is a process-global countdown and the thread
//! census is process-wide, so every test that arms the one or takes the
//! other lives in this file, serializes on a mutex and consumes every
//! armed failure before exiting — in any other test binary a parallel
//! test's spawn would eat the armed failure, and its server would show
//! up in the census. The hook exists only in `chaos` builds, so the
//! tests that arm it run only there.

#[cfg(feature = "chaos")]
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use ppf_core::{SharedEngine, XmlDb};
use ppf_server::{serve, Client, ServerConfig, ServerHandle, Verb};
#[cfg(feature = "chaos")]
use ppf_server::{serve_with_reload, server::test_hooks, ErrorKind, ReloadFn};
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

/// Live server threads of this process, by thread name — every thread
/// the server starts is `ppfd-*`; the detached drain helper, which may
/// outlive `join` by a moment, is not counted. (Linux; elsewhere the
/// census is empty and the checks vacuous.)
fn server_threads() -> usize {
    if !cfg!(target_os = "linux") {
        return 0;
    }
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("ppfd-") && !name.starts_with("ppfd-drain"))
        .count()
}

/// The census once it reaches `want`, or after two seconds. A thread
/// names itself when it first runs, so on a loaded host a just-spawned
/// worker can still be anonymous; a joined thread can stay in the task
/// list for a moment while the kernel finishes its exit. A leaked or
/// missing thread never settles.
fn settled_server_threads(want: usize) -> usize {
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while server_threads() != want && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    server_threads()
}

/// Whether every server thread is gone.
fn no_server_threads() -> bool {
    settled_server_threads(0) == 0
}

/// Query workers are started with the server, so spawn exhaustion is a
/// start-up failure: `serve` reports it instead of panicking, and no
/// thread of the half-started server is left behind.
#[cfg(feature = "chaos")]
#[test]
fn failed_worker_spawn_fails_serve_and_leaks_no_thread() {
    let _gate = serialize();
    let engine = SharedEngine::new(db());
    assert!(no_server_threads(), "another server is still up");

    test_hooks::fail_next_spawns(1);
    let err = match serve(engine.clone(), "127.0.0.1:0", ServerConfig::default()) {
        Ok(_) => panic!("serve must fail when a worker cannot start"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("spawn"), "err: {err}");
    assert!(no_server_threads(), "a failed start left threads behind");

    // The hook is spent and nothing was poisoned: the next start serves,
    // and its drain joins every worker it started.
    let (handle, addr) = start(ServerConfig::default());
    let mut c = Client::connect(&addr, IO).expect("connect");
    let resp = c.request("q", Verb::Query, &[], "/lib/book").expect("io");
    assert!(resp.result.expect("ok").starts_with("rows 1\n"));
    handle.shutdown();
    handle.join();
    assert!(no_server_threads(), "join left workers behind");
}

/// The scalability point of the event core and of the worker set, in
/// one census: event loops plus `max_inflight` workers are all the
/// threads there are — before load, with 64 idle connections parked,
/// with 8 queries pipelined, and after 2 000 sequential ones.
#[test]
fn threads_grow_with_neither_connections_nor_queries() {
    let _gate = serialize();
    let cfg = ServerConfig {
        per_conn_cap: 8,
        // Half of the pipelined batch queues behind the other half.
        queue_wait: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let workers = format!("workers: {}\n", cfg.max_inflight);
    let fixed = if cfg!(target_os = "linux") {
        cfg.event_threads + cfg.max_inflight
    } else {
        0
    };
    assert!(no_server_threads(), "another server is still up");
    let (handle, addr) = start(cfg);
    let mut c = Client::connect(&addr, IO).expect("connect");
    let health = c.request("h", Verb::Health, &[], "").expect("io").result;
    let health = health.expect("health ok");
    assert!(health.contains(&workers), "health: {health}");
    assert_eq!(settled_server_threads(fixed), fixed, "before load");

    let mut idlers = Vec::new();
    for _ in 0..64 {
        idlers.push(Client::connect(&addr, IO).expect("connect"));
    }
    // They are all live connections, not half-open ghosts.
    let mut probe = idlers.pop().unwrap();
    let body = probe
        .request("h", Verb::Health, &[], "")
        .expect("io")
        .result;
    let conns: usize = body
        .expect("health ok")
        .lines()
        .find_map(|l| l.strip_prefix("active_conns: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("active_conns line");
    assert!(conns >= 64, "expected >= 64 active conns, saw {conns}");
    assert_eq!(server_threads(), fixed, "64 idle connections");

    // With chaos compiled in the pipelined queries are held in flight
    // while the census is taken; without it they are merely fast.
    let chaos = handle.install_chaos("slow=1:100 seed=1").is_ok();
    for n in 0..8 {
        c.send(&format!("p{n}"), Verb::Query, &[], "/lib/book")
            .expect("send");
    }
    let first = c.recv().expect("recv");
    assert!(first.result.is_ok());
    let during = server_threads();
    for _ in 1..8 {
        assert!(c.recv().expect("recv").result.is_ok());
    }
    assert_eq!(during, fixed, "8 pipelined queries");
    if chaos {
        handle.install_chaos("off").expect("chaos off");
    }

    for n in 0..2_000 {
        let resp = c
            .request(&format!("s{n}"), Verb::Query, &[], "/lib/book")
            .expect("io");
        assert!(resp.result.is_ok(), "request {n}: {:?}", resp.result);
    }
    assert_eq!(server_threads(), fixed, "after 2000 queries");
    drop(idlers);
    handle.shutdown();
    handle.join();
    assert!(no_server_threads(), "join left threads behind");
}

#[cfg(feature = "chaos")]
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
