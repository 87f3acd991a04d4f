//! `ppfd` — the PPF XPath daemon: one [`ppf_core::SharedEngine`] served
//! over TCP with admission control, per-query deadlines, hot reload of
//! the data source (SIGHUP or the protocol `reload` verb), and graceful
//! drain on SIGTERM/SIGINT or the protocol `shutdown` verb.
//!
//! ```text
//! ppfd --schema library.dsl data.xml            # serve loaded documents
//! ppfd --xmark 0.05 --listen 127.0.0.1:7878     # serve a generated XMark doc
//! ppfd --xmark 0.02 --max-inflight 4 --policy shed
//! kill -HUP $(pidof ppfd)                       # rebuild + swap the snapshot
//! ```
//!
//! The bound address is announced on stdout as `ppfd listening on ADDR`
//! (scripts wait for that line). On drain the final metrics snapshot is
//! written to stderr and the process exits 0.
//!
//! SIGHUP (or `reload`) rebuilds the startup data source — re-reading
//! document files from disk, or regenerating the XMark document — into a
//! staging store off the serving path, then swaps it in atomically.
//! In-flight queries finish on the snapshot they pinned; any reload
//! failure (missing file, malformed XML, panic) leaves the old snapshot
//! serving and is reported on stderr with a typed kind.
//!
//! Chaos builds (`--features chaos`) additionally accept `--chaos SPEC`
//! to install a fault plan at startup; see `ppf_server::fault` for the
//! spec grammar (including `reload_fault=...` load-path faults).

use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::time::Duration;

use ppf_core::{ReloadError, SharedEngine, XmlDb};
use ppf_server::{serve_with_reload, AdmissionPolicy, ReloadFn, ServerConfig};

/// Set from the signal handler; polled by the main loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Set by SIGHUP; the main loop turns it into one reload attempt.
static RELOAD: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(sig: i32) {
    // SIGHUP = 1 everywhere we run; everything else we registered means
    // "drain". Only atomics in here (async-signal-safe).
    if sig == 1 {
        RELOAD.store(true, SeqCst);
    } else {
        SHUTDOWN.store(true, SeqCst);
    }
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: the handler only stores to atomics, which is
    // async-signal-safe; `signal` itself is a plain libc call.
    unsafe {
        signal(SIGTERM, on_signal as *const () as usize);
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGHUP, on_signal as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

const USAGE: &str =
    "usage: ppfd [--schema FILE | --dtd FILE | --xsd FILE doc.xml... | --xmark SCALE [--seed N]]\n\
     [--listen ADDR] [--threads N] [--max-inflight N] [--queue-depth N]\n\
     [--queue-wait-ms MS] [--policy queue|shed] [--per-conn N]\n\
     [--deadline-ms MS|0] [--idle-ms MS] [--drain-ms MS] [--chaos SPEC]\n\
     [--slow-ms MS] [--slowlog-cap N] [--metrics-every-ms MS]\n\
     [--event-threads N] [--max-conns N|0]\n\
     --max-inflight N  queries executing at once; also the number of query\n\
     \x20                 worker threads started with the server (default 2x pool)";

/// The startup data-source recipe, kept so SIGHUP / the `reload` verb
/// can rebuild the exact same source into a fresh staging snapshot.
#[derive(Clone)]
enum Source {
    XMark {
        scale: f64,
        seed: u64,
    },
    /// Schema plus document paths: a reload re-reads every file from
    /// disk, so editing the documents and sending SIGHUP picks them up.
    Docs {
        schema: xmlschema::Schema,
        paths: Vec<String>,
    },
}

/// Parse → shred → finalize the source into a staging [`XmlDb`],
/// entirely off the serving path. Shared by startup and every reload;
/// failures classify onto the [`ReloadError`] taxonomy (I/O for
/// unreadable files, parse for malformed XML, shred for store errors).
fn build_db(source: &Source) -> Result<XmlDb, ReloadError> {
    let mut db = match source {
        Source::XMark { scale, seed } => {
            let doc = xmark::generate_xmark(xmark::XMarkConfig {
                scale: *scale,
                seed: *seed,
            });
            let mut db = XmlDb::new(&xmark::xmark_schema())?;
            db.load(&doc)?;
            db
        }
        Source::Docs { schema, paths } => {
            let mut db = XmlDb::new(schema)?;
            for path in paths {
                let xml = std::fs::read_to_string(path)
                    .map_err(|e| ReloadError::io(format!("cannot read {path}: {e}")))?;
                db.load_xml(&xml)?;
            }
            db
        }
    };
    db.finalize()?;
    Ok(db)
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut listen = "127.0.0.1:7878".to_string();
    let mut schema: Option<xmlschema::Schema> = None;
    let mut docs: Vec<String> = Vec::new();
    let mut xmark_scale: Option<f64> = None;
    let mut seed: u64 = 42;
    let mut threads: Option<usize> = None;
    let mut chaos: Option<String> = None;
    let mut cfg = ServerConfig::default();

    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--listen" => listen = value(&arg)?,
            "--xmark" => {
                xmark_scale = Some(
                    value(&arg)?
                        .parse()
                        .map_err(|_| "--xmark wants a scale factor".to_string())?,
                )
            }
            "--seed" => {
                seed = value(&arg)?
                    .parse()
                    .map_err(|_| "--seed wants an integer".to_string())?
            }
            "--threads" => {
                threads = Some(
                    value(&arg)?
                        .parse()
                        .map_err(|_| "--threads wants an integer".to_string())?,
                )
            }
            "--max-inflight" => cfg.max_inflight = parse_num(&value(&arg)?, &arg)?,
            "--queue-depth" => cfg.queue_depth = parse_num(&value(&arg)?, &arg)?,
            "--queue-wait-ms" => {
                cfg.queue_wait = Duration::from_millis(parse_num(&value(&arg)?, &arg)? as u64)
            }
            "--per-conn" => cfg.per_conn_cap = parse_num(&value(&arg)?, &arg)?,
            "--deadline-ms" => {
                let ms: u64 = parse_num(&value(&arg)?, &arg)? as u64;
                cfg.default_deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--idle-ms" => {
                cfg.idle_timeout = Duration::from_millis(parse_num(&value(&arg)?, &arg)? as u64)
            }
            "--drain-ms" => {
                cfg.drain_grace = Duration::from_millis(parse_num(&value(&arg)?, &arg)? as u64)
            }
            "--policy" => {
                cfg.policy = match value(&arg)?.as_str() {
                    "queue" => AdmissionPolicy::Queue,
                    "shed" => AdmissionPolicy::Shed,
                    other => return Err(format!("--policy queue|shed, got {other:?}")),
                }
            }
            "--slow-ms" => {
                cfg.slow_query = Duration::from_millis(parse_num(&value(&arg)?, &arg)? as u64)
            }
            "--slowlog-cap" => cfg.slowlog_capacity = parse_num(&value(&arg)?, &arg)?,
            "--metrics-every-ms" => {
                let ms: u64 = parse_num(&value(&arg)?, &arg)? as u64;
                cfg.metrics_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--event-threads" => cfg.event_threads = parse_num(&value(&arg)?, &arg)?.max(1),
            "--max-conns" => cfg.max_conns = parse_num(&value(&arg)?, &arg)?,
            "--chaos" => chaos = Some(value(&arg)?),
            "--schema" | "--dtd" | "--xsd" => {
                let path = value(&arg)?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                let parsed = match arg.as_str() {
                    "--schema" => xmlschema::parse_schema(&text),
                    "--dtd" => xmlschema::parse_dtd(&text),
                    _ => xmlschema::parse_xsd(&text),
                }
                .map_err(|e| e.to_string())?;
                schema = Some(parsed);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other if !other.starts_with('-') => docs.push(other.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }

    if let Some(n) = threads {
        ppf_pool::set_threads(n);
    }

    let source = match (xmark_scale, schema) {
        (Some(scale), None) => {
            eprintln!("generating XMark document at scale {scale} (seed {seed})");
            Source::XMark { scale, seed }
        }
        (None, Some(schema)) => {
            if docs.is_empty() {
                return Err(format!("no documents to load\n{USAGE}"));
            }
            Source::Docs {
                schema,
                paths: docs,
            }
        }
        (Some(_), Some(_)) => return Err("--xmark and --schema are mutually exclusive".into()),
        (None, None) => return Err(format!("no data source\n{USAGE}")),
    };
    let db = build_db(&source).map_err(|e| e.to_string())?;
    eprintln!(
        "{} relations, {} rows total; pool threads: {}",
        db.db().len(),
        db.db().total_rows(),
        ppf_pool::current_threads()
    );

    install_signal_handlers();
    let engine = SharedEngine::new(db);
    let reload_source = source.clone();
    let reloader: ReloadFn = Arc::new(move || build_db(&reload_source));
    let handle = serve_with_reload(engine, &listen, cfg, Some(reloader))
        .map_err(|e| format!("cannot bind {listen}: {e}"))?;
    if let Some(spec) = chaos {
        let summary = handle
            .install_chaos(&spec)
            .map_err(|e| format!("--chaos: {e}"))?;
        eprintln!("{summary}");
    }
    eprintln!("connection core: {}", handle.core());
    // Announce readiness on stdout: scripts block on this exact prefix.
    println!("ppfd listening on {}", handle.addr());
    use std::io::Write;
    std::io::stdout().flush().ok();

    while !SHUTDOWN.load(SeqCst) && !handle.is_draining() {
        if RELOAD.swap(false, SeqCst) {
            eprintln!("SIGHUP received; reloading data source");
            match handle.reload() {
                Ok(version) => eprintln!("reload complete: serving snapshot v{version}"),
                Err(e) => eprintln!("reload failed [{}]: {e} (old snapshot kept)", e.kind()),
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if SHUTDOWN.load(SeqCst) {
        eprintln!("signal received; draining");
    }
    handle.shutdown();
    handle.join();

    // Flush the final counters where operators (and the CI smoke step)
    // can see them.
    eprintln!("--- final metrics ---");
    eprint!("{}", obs::Registry::global().snapshot().render());
    eprintln!("ppfd: drained cleanly");
    Ok(())
}

fn parse_num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} wants a non-negative integer, got {s:?}"))
}
