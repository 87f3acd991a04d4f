//! `ppf-stress` — a load-generating client for `ppfd`.
//!
//! Opens K connections, drives a mixed XMark workload through each, and
//! treats the failure modes `ppfd` is designed to produce as expected:
//! `[overload]` rejections trigger exponential-backoff retry, connection
//! drops (chaos faults, idle reaping) trigger reconnect. At the end it
//! pulls the server's metrics snapshot and reconciles what it observed
//! against the server's own counters.
//!
//! ```text
//! ppf-stress --addr 127.0.0.1:7878 --conns 8 --requests 50
//! ppf-stress --chaos "panic=0.05 drop=0.05 slow=0.1:80 seed=7" --expect-shed --shutdown
//! ppf-stress --reload-storm --reloads 20 --chaos "reload_fault=io:0.3 seed=3"
//! ```
//!
//! `--reload-storm` adds a thread hammering the `reload` verb while the
//! query workers run, then reconciles snapshot identity: every ok
//! response must carry exactly one `version=` stamp, the server's
//! `engine.reload_swaps` / `engine.reload_failures` / `engine.reload_busy`
//! counters must match what the storm client observed, and under a
//! reload-only chaos spec the query stream must stay error-free.
//!
//! Exit status is 0 only if every request reached a typed outcome (no
//! untyped protocol garbage), every reconciliation check passed, and —
//! with `--shutdown` — the server acknowledged the drain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ppf_server::{Client, ErrorKind, Verb};

const USAGE: &str =
    "usage: ppf-stress [--addr ADDR] [--conns K] [--requests N] [--timeout-ms MS]\n\
     [--seed N] [--chaos SPEC] [--cancel-storm] [--expect-shed] [--shutdown]\n\
     [--idle-conns N] [--reload-storm] [--reloads N]";

/// Retry/backoff schedule for `[overload]` responses.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
const BACKOFF_CAP: Duration = Duration::from_millis(500);
const MAX_RETRIES: u32 = 8;

#[derive(Clone)]
struct Config {
    addr: String,
    conns: usize,
    requests: usize,
    timeout_ms: u64,
    seed: u64,
    chaos: Option<String>,
    cancel_storm: bool,
    expect_shed: bool,
    shutdown: bool,
    /// Extra connections opened before the workload and held silent for
    /// its whole duration — pressure-tests idle-connection scalability
    /// alongside the chaos soak.
    idle_conns: usize,
    /// Hammer the `reload` verb while the workload runs and reconcile
    /// snapshot versions afterwards.
    reload_storm: bool,
    /// How many reloads the storm thread issues.
    reloads: usize,
}

/// What one worker saw, summed across its requests.
#[derive(Default)]
struct Tally {
    ok: u64,
    /// Typed `err` responses by kind tag (after retries for overload).
    errors: BTreeMap<&'static str, u64>,
    /// Overload responses that were retried (not final outcomes).
    overload_retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    gave_up: u64,
    /// I/O or framing failures that forced a reconnect.
    disconnects: u64,
    /// `exec` errors whose message marks a contained worker panic.
    panics_observed: u64,
    /// Cancel verbs acknowledged (cancel-storm mode).
    cancels_sent: u64,
    /// Snapshot versions stamped on ok responses, with counts.
    versions: BTreeMap<u64, u64>,
    /// Ok responses that arrived without a `version=` stamp.
    missing_version: u64,
}

impl Tally {
    fn fold(&mut self, other: Tally) {
        self.ok += other.ok;
        for (k, v) in other.errors {
            *self.errors.entry(k).or_insert(0) += v;
        }
        self.overload_retries += other.overload_retries;
        self.gave_up += other.gave_up;
        self.disconnects += other.disconnects;
        self.panics_observed += other.panics_observed;
        self.cancels_sent += other.cancels_sent;
        for (v, n) in other.versions {
            *self.versions.entry(v).or_insert(0) += n;
        }
        self.missing_version += other.missing_version;
    }
}

/// What the reload-storm thread saw, reconciled at the end against the
/// server's `engine.reload_*` counters.
#[derive(Default)]
struct StormTally {
    /// Reloads acknowledged ok — each one is a client-observed swap.
    swaps: u64,
    /// Typed reload failures (chaos faults, bad source) — not busy.
    failures: u64,
    /// `[overload]` busy refusals (another reload mid-stage).
    busy: u64,
    /// Reloads refused because the server was draining.
    refused_draining: u64,
    /// I/O failures that forced the storm connection to reconnect.
    disconnects: u64,
    /// Highest snapshot version any reload response was stamped with.
    max_version: u64,
}

/// xorshift64* — deterministic per-worker workload mixing without any
/// clock or external RNG dependency.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("ppf-stress: FAIL: {e}");
            std::process::exit(1);
        }
    }
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        addr: "127.0.0.1:7878".to_string(),
        conns: 8,
        requests: 50,
        timeout_ms: 5_000,
        seed: 1,
        chaos: None,
        cancel_storm: false,
        expect_shed: false,
        shutdown: false,
        idle_conns: 0,
        reload_storm: false,
        reloads: 20,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| -> Result<String, String> {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value(&arg)?,
            "--conns" => cfg.conns = num(&value(&arg)?, &arg)?,
            "--requests" => cfg.requests = num(&value(&arg)?, &arg)?,
            "--timeout-ms" => cfg.timeout_ms = num(&value(&arg)?, &arg)? as u64,
            "--seed" => cfg.seed = num(&value(&arg)?, &arg)? as u64,
            "--chaos" => cfg.chaos = Some(value(&arg)?),
            "--cancel-storm" => cfg.cancel_storm = true,
            "--expect-shed" => cfg.expect_shed = true,
            "--shutdown" => cfg.shutdown = true,
            "--idle-conns" => cfg.idle_conns = num(&value(&arg)?, &arg)?,
            "--reload-storm" => cfg.reload_storm = true,
            "--reloads" => cfg.reloads = num(&value(&arg)?, &arg)?,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(cfg)
}

fn num(s: &str, flag: &str) -> Result<usize, String> {
    s.parse()
        .map_err(|_| format!("{flag} wants a non-negative integer, got {s:?}"))
}

fn run() -> Result<(), String> {
    let cfg = parse_args()?;
    let io_timeout = Duration::from_millis(cfg.timeout_ms + 5_000);

    // Install the fault plan (if any) over a control connection before
    // the workers start, so every worker request is exposed to it.
    if let Some(spec) = &cfg.chaos {
        let mut ctl = Client::connect(&cfg.addr, io_timeout)
            .map_err(|e| format!("cannot connect to {}: {e}", cfg.addr))?;
        let resp = ctl
            .request("chaos-setup", Verb::Chaos, &[], spec)
            .map_err(|e| format!("chaos install failed: {e}"))?;
        match resp.result {
            Ok(summary) => eprintln!("chaos: {summary}"),
            Err((kind, msg)) => {
                return Err(format!(
                    "chaos install rejected ({}) — {msg}",
                    kind.as_str()
                ))
            }
        }
    }

    // Park the idle herd before the workload starts so the whole soak —
    // chaos faults included — runs with the event loops also carrying N
    // silent connections. They are held open until after reconciliation.
    let mut idlers: Vec<Client> = Vec::with_capacity(cfg.idle_conns);
    for n in 0..cfg.idle_conns {
        let c = Client::connect(&cfg.addr, io_timeout)
            .map_err(|e| format!("idle conn {n}/{} failed: {e}", cfg.idle_conns))?;
        idlers.push(c);
    }
    if cfg.idle_conns > 0 {
        eprintln!("ppf-stress: parked {} idle connections", cfg.idle_conns);
    }

    let queries: Vec<String> = xmark::xmark_queries()
        .into_iter()
        .map(|(_, q)| q.to_string())
        .collect();
    let queries = Arc::new(queries);
    let shed_seen = Arc::new(AtomicU64::new(0));

    eprintln!(
        "ppf-stress: {} connections x {} requests against {}",
        cfg.conns, cfg.requests, cfg.addr
    );
    let started = Instant::now();
    let mut workers = Vec::new();
    for conn in 0..cfg.conns {
        let cfg = cfg.clone();
        let queries = Arc::clone(&queries);
        let shed_seen = Arc::clone(&shed_seen);
        workers.push(
            std::thread::Builder::new()
                .name(format!("stress-{conn}"))
                .spawn(move || worker(conn, &cfg, &queries, &shed_seen, io_timeout))
                .map_err(|e| format!("spawn failed: {e}"))?,
        );
    }
    let storm = if cfg.reload_storm {
        let cfg = cfg.clone();
        eprintln!("ppf-stress: reload storm of {} reloads", cfg.reloads);
        Some(
            std::thread::Builder::new()
                .name("reload-storm".to_string())
                .spawn(move || reload_storm(&cfg, io_timeout))
                .map_err(|e| format!("spawn failed: {e}"))?,
        )
    } else {
        None
    };
    let mut total = Tally::default();
    for w in workers {
        match w.join() {
            Ok(t) => total.fold(t),
            Err(_) => return Err("a worker thread panicked".to_string()),
        }
    }
    let storm = match storm {
        Some(handle) => match handle.join() {
            Ok(t) => Some(t),
            Err(_) => return Err("the reload-storm thread panicked".to_string()),
        },
        None => None,
    };
    let elapsed = started.elapsed();

    // Pull the server's own view and reconcile.
    let mut ctl = Client::connect(&cfg.addr, io_timeout)
        .map_err(|e| format!("cannot reconnect for stats: {e}"))?;
    if cfg.reload_storm {
        // One probe after the storm has fully drained: it must be served
        // from the final snapshot, which also guarantees the version set
        // spans the storm even if the workers raced ahead of it.
        let resp = ctl
            .request("storm-probe", Verb::Query, &[], "/site")
            .map_err(|e| format!("post-storm probe failed: {e}"))?;
        let version = resp.version();
        record(&mut total, version, &resp.result);
    }
    let stats = match ctl
        .request("stats-final", Verb::Stats, &[], "")
        .map_err(|e| format!("stats request failed: {e}"))?
        .result
    {
        Ok(body) => body,
        Err((kind, msg)) => return Err(format!("stats rejected ({}) — {msg}", kind.as_str())),
    };

    let issued = (cfg.conns * cfg.requests) as u64;
    let typed_errors: u64 = total.errors.values().sum();
    println!("--- ppf-stress summary ---");
    println!("elapsed           {:.2}s", elapsed.as_secs_f64());
    println!("requests issued   {issued}");
    println!("ok                {}", total.ok);
    for (kind, n) in &total.errors {
        println!("err {kind:<13} {n}");
    }
    println!("overload retries  {}", total.overload_retries);
    println!("gave up           {}", total.gave_up);
    println!("disconnects       {}", total.disconnects);
    println!("panics contained  {}", total.panics_observed);
    if cfg.cancel_storm {
        println!("cancels sent      {}", total.cancels_sent);
    }

    let mut failures: Vec<String> = Vec::new();

    // Every issued request must end in a typed outcome: ok, a typed err,
    // an abandoned retry loop, or a disconnect mid-request. Nothing may
    // be simply unaccounted for.
    let accounted = total.ok + typed_errors + total.gave_up + total.disconnects;
    if accounted < issued {
        failures.push(format!(
            "{} of {issued} requests have no typed outcome",
            issued - accounted
        ));
    }

    let shed = counter(&stats, "server.shed");
    if cfg.expect_shed && shed == 0 {
        failures.push("expected server.shed > 0 under forced overload, got 0".to_string());
    }
    let overloads_seen = total.overload_retries + shed_seen.load(Relaxed);
    if shed > 0 && overloads_seen == 0 {
        failures.push(format!(
            "server counted {shed} sheds but no client saw an overload response"
        ));
    }

    if cfg.chaos.is_some() {
        let faults_panic = counter(&stats, "server.faults.panic");
        let faults_drop = counter(&stats, "server.faults.drop");
        if total.panics_observed > faults_panic {
            failures.push(format!(
                "observed {} contained panics but server injected only {faults_panic}",
                total.panics_observed
            ));
        }
        if faults_drop > 0 && total.disconnects == 0 {
            failures.push(format!(
                "server injected {faults_drop} connection drops but no client disconnected"
            ));
        }
        if counter(&stats, "server.panics_contained") < faults_panic {
            failures.push(format!(
                "server.panics_contained {} < server.faults.panic {faults_panic} — a panic escaped?",
                counter(&stats, "server.panics_contained")
            ));
        }
    }

    // Reconcile snapshot identity after a reload storm: the server's own
    // reload counters must match what the storm client observed, and
    // every ok response must have been attributable to exactly one
    // snapshot version.
    if let Some(storm) = &storm {
        let srv_attempts = counter(&stats, "engine.reload_attempts");
        let srv_swaps = counter(&stats, "engine.reload_swaps");
        let srv_failures = counter(&stats, "engine.reload_failures");
        let srv_busy = counter(&stats, "engine.reload_busy");
        let distinct = total.versions.len();
        let stamped: u64 = total.versions.values().sum();

        println!("--- reload storm ---");
        println!("swaps observed    {}", storm.swaps);
        println!("failures observed {}", storm.failures);
        println!("busy refusals     {}", storm.busy);
        println!("draining refusals {}", storm.refused_draining);
        println!("storm disconnects {}", storm.disconnects);
        println!("versions seen     {distinct} distinct across {stamped} ok responses");
        println!("engine.reload_attempts {srv_attempts}");
        println!("engine.reload_swaps    {srv_swaps}");
        println!("engine.reload_failures {srv_failures}");
        println!("engine.reload_busy     {srv_busy}");

        if total.missing_version > 0 {
            failures.push(format!(
                "{} ok responses carried no snapshot version stamp",
                total.missing_version
            ));
        }
        if srv_attempts != srv_swaps + srv_failures + srv_busy {
            failures.push(format!(
                "reload accounting broken: {srv_attempts} attempts != \
                 {srv_swaps} swaps + {srv_failures} failures + {srv_busy} busy"
            ));
        }
        // With an intact storm connection every reload outcome was
        // observed, so the two ledgers must agree exactly. (A severed
        // connection can lose a response whose reload still landed.)
        if storm.disconnects == 0 {
            if srv_swaps != storm.swaps {
                failures.push(format!(
                    "server counted {srv_swaps} snapshot swaps but the storm observed {}",
                    storm.swaps
                ));
            }
            if srv_failures != storm.failures {
                failures.push(format!(
                    "server counted {srv_failures} reload failures but the storm observed {}",
                    storm.failures
                ));
            }
            if srv_busy != storm.busy {
                failures.push(format!(
                    "server counted {srv_busy} busy refusals but the storm observed {}",
                    storm.busy
                ));
            }
        }
        // The post-storm probe pinned the final snapshot, so the highest
        // version any client saw is exactly the seed version plus every
        // swap — no response may claim a snapshot that never served.
        let max_seen = total
            .versions
            .keys()
            .max()
            .copied()
            .unwrap_or(0)
            .max(storm.max_version);
        if max_seen != 1 + srv_swaps {
            failures.push(format!(
                "highest stamped version {max_seen} != 1 + {srv_swaps} swaps"
            ));
        }
        if srv_swaps >= 3 && distinct < 2 {
            failures.push(format!(
                "{srv_swaps} swaps landed but clients saw only {distinct} distinct version(s)"
            ));
        }
        // Under a reload-only fault plan the query stream must be
        // collateral-free: reload failures stay on the reload path.
        if cfg.chaos.as_deref().is_some_and(is_reload_only_spec) {
            if typed_errors > 0 {
                failures.push(format!(
                    "{typed_errors} query errors under a reload-only fault plan"
                ));
            }
            if total.disconnects > 0 {
                failures.push(format!(
                    "{} disconnects under a reload-only fault plan",
                    total.disconnects
                ));
            }
        }
    }

    // The idle herd must have survived the entire soak: probe one parked
    // connection end-to-end and check the server still counts them all.
    if !idlers.is_empty() {
        let probe = idlers.last_mut().unwrap();
        match probe.request("idle-probe", Verb::Health, &[], "") {
            Ok(resp) => match resp.result {
                Ok(body) => {
                    let live: usize = body
                        .lines()
                        .find_map(|l| l.strip_prefix("active_conns: "))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    // The control conn + the herd must all still be up.
                    if live < idlers.len() {
                        failures.push(format!(
                            "only {live} active conns after the soak; {} idlers were parked",
                            idlers.len()
                        ));
                    }
                    println!(
                        "idle conns        {} parked, {live} live on server",
                        idlers.len()
                    );
                }
                Err((kind, msg)) => failures.push(format!(
                    "idle-conn health probe rejected ({}) — {msg}",
                    kind.as_str()
                )),
            },
            Err(e) => failures.push(format!("an idle connection did not survive the soak: {e}")),
        }
    }

    println!("server.accepted   {}", counter(&stats, "server.accepted"));
    println!("server.queries    {}", counter(&stats, "server.queries"));
    println!("server.shed       {shed}");
    println!(
        "server.panics     {}",
        counter(&stats, "server.panics_contained")
    );

    if cfg.shutdown {
        let resp = ctl
            .request("drain", Verb::Shutdown, &[], "")
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        match resp.result {
            Ok(body) => println!("shutdown          acknowledged ({body})"),
            Err((kind, msg)) => {
                failures.push(format!("shutdown rejected ({}) — {msg}", kind.as_str()))
            }
        }
    }

    if failures.is_empty() {
        println!("ppf-stress: PASS");
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Hammer the `reload` verb from one dedicated connection, ~25ms apart,
/// while the query workers run. Every outcome is typed: an ok response
/// is a client-observed swap, `[overload]` is the engine's busy refusal,
/// `[shutdown]` is the drain refusal, anything else is a reload failure
/// (chaos fault, bad source). Counts are reconciled against the
/// server's own `engine.reload_*` counters afterwards.
fn reload_storm(cfg: &Config, io_timeout: Duration) -> StormTally {
    let mut tally = StormTally::default();
    let mut client: Option<Client> = None;
    for n in 0..cfg.reloads {
        let c = match &mut client {
            Some(c) => c,
            None => match Client::connect(&cfg.addr, io_timeout) {
                Ok(c) => client.insert(c),
                Err(_) => {
                    tally.disconnects += 1;
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            },
        };
        let id = format!("storm-{n}");
        match c.request(&id, Verb::Reload, &[], "") {
            Ok(resp) => {
                if let Some(v) = resp.version() {
                    tally.max_version = tally.max_version.max(v);
                }
                match resp.result {
                    Ok(_) => tally.swaps += 1,
                    Err((ErrorKind::Overload, _)) => tally.busy += 1,
                    Err((ErrorKind::Shutdown, _)) => tally.refused_draining += 1,
                    Err(_) => tally.failures += 1,
                }
            }
            Err(_) => {
                client = None;
                tally.disconnects += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    tally
}

/// Drive one connection's worth of workload. Never panics: every error
/// path is counted and the worker moves on to its next request.
fn worker(
    conn: usize,
    cfg: &Config,
    queries: &[String],
    shed_seen: &AtomicU64,
    io_timeout: Duration,
) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(cfg.seed.wrapping_add(conn as u64).wrapping_mul(0x9e37_79b9));
    let mut client: Option<Client> = None;

    'requests: for n in 0..cfg.requests {
        let id = format!("c{conn}-{n}");
        let query = &queries[rng.below(queries.len() as u64) as usize];
        // Mostly queries, with explain/analyze sprinkled in to exercise
        // every read verb under load.
        let verb = match rng.below(10) {
            0 => Verb::Explain,
            1 => Verb::Analyze,
            _ => Verb::Query,
        };
        let timeout = cfg.timeout_ms.to_string();
        let options: [(&str, &str); 2] = [("timeout", &timeout), ("maxrows", "200000")];

        let mut backoff = BACKOFF_BASE;
        let mut attempts = 0u32;
        loop {
            // (Re)connect lazily; a refused connection during drain or
            // after a chaos drop counts as a disconnect and ends this
            // worker's run early rather than spinning.
            let c = match &mut client {
                Some(c) => c,
                None => match Client::connect(&cfg.addr, io_timeout) {
                    Ok(c) => client.insert(c),
                    Err(_) => {
                        tally.disconnects += 1;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        attempts += 1;
                        if attempts > MAX_RETRIES {
                            tally.gave_up += cfg.requests as u64 - n as u64;
                            break 'requests;
                        }
                        continue;
                    }
                },
            };

            // Occasionally pipeline a cancel at the in-flight query to
            // exercise the cancellation path under load.
            if cfg.cancel_storm && rng.below(5) == 0 && verb == Verb::Query {
                if c.send(&id, verb, &options, query).is_err() {
                    client = None;
                    tally.disconnects += 1;
                    continue;
                }
                let cancel_id = format!("{id}-cancel");
                let _ = c.send(&cancel_id, Verb::Cancel, &[], &id);
                tally.cancels_sent += 1;
                // Two responses come back in completion order.
                let mut seen_query = false;
                for _ in 0..2 {
                    match c.recv() {
                        Ok(resp) if resp.id == id => {
                            seen_query = true;
                            record(&mut tally, resp.version(), &resp.result);
                        }
                        Ok(_) => {}
                        Err(_) => {
                            client = None;
                            tally.disconnects += 1;
                            break;
                        }
                    }
                }
                if !seen_query && client.is_some() {
                    // Cancel response arrived but the query's never did;
                    // treat as a protocol-level loss.
                    tally.disconnects += 1;
                    client = None;
                }
                break;
            }

            match c.request(&id, verb, &options, query) {
                Ok(resp) => {
                    let version = resp.version();
                    match resp.result {
                        Err((ErrorKind::Overload, _)) => {
                            shed_seen.fetch_add(1, Relaxed);
                            attempts += 1;
                            if attempts > MAX_RETRIES {
                                tally.gave_up += 1;
                                break;
                            }
                            tally.overload_retries += 1;
                            std::thread::sleep(backoff);
                            backoff = (backoff * 2).min(BACKOFF_CAP);
                        }
                        other => {
                            record(&mut tally, version, &other);
                            break;
                        }
                    }
                }
                Err(_) => {
                    // Severed mid-request (chaos drop, idle reap, drain).
                    client = None;
                    tally.disconnects += 1;
                    break;
                }
            }
        }
    }
    tally
}

fn record(tally: &mut Tally, version: Option<u64>, result: &Result<String, (ErrorKind, String)>) {
    match result {
        Ok(_) => {
            tally.ok += 1;
            // Every successful read must be attributable to exactly one
            // serving snapshot.
            match version {
                Some(v) => *tally.versions.entry(v).or_insert(0) += 1,
                None => tally.missing_version += 1,
            }
        }
        Err((kind, msg)) => {
            *tally.errors.entry(kind.as_str()).or_insert(0) += 1;
            if *kind == ErrorKind::Exec && msg.contains("panic contained") {
                tally.panics_observed += 1;
            }
        }
    }
}

/// True when a chaos spec injects faults only into the reload path
/// (`reload_fault=...` tokens, plus `seed=`), so the query stream is
/// expected to run completely clean.
fn is_reload_only_spec(spec: &str) -> bool {
    let mut tokens = spec.split_whitespace().peekable();
    tokens.peek().is_some()
        && tokens.all(|t| t.starts_with("reload_fault=") || t.starts_with("seed="))
}

/// Pull one counter out of a rendered registry snapshot; 0 if absent.
fn counter(stats: &str, name: &str) -> u64 {
    for line in stats.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some(name) {
            if let Some(v) = parts.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        }
    }
    0
}
