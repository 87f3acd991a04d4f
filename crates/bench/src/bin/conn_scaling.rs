//! Connection-scaling gate for the event-driven server core: holds 100,
//! 1 000 and 10 000 idle connections against a real `ppfd` process,
//! recording the server's resident thread count and probe-query latency
//! at each tier, and emits `BENCH_5.json` with the table (plus the
//! per-crate Rust line counts that produced it).
//!
//! The server runs as a child process (`ppfd` from the same target
//! directory), for two reasons. First, fd budget: this environment caps
//! `RLIMIT_NOFILE` at a hard 20 000 even for root, and 10 000
//! in-process connections would need two fds each; split across two
//! processes each side fits. Second, measurement hygiene: reading
//! `/proc/<ppfd>/status` counts only the server's threads — the bench's
//! own client machinery cannot pollute the number being gated.
//!
//! Exit is non-zero when the invariant fails: the server must hold the
//! largest tier with no more than `event_threads + 8` resident threads
//! over its idle baseline — connections are rows in the loops' maps, not
//! stacks. Probe latency is recorded, not gated: `serve_bench`'s
//! `tiny_path` workload is the front-end latency gate.
//!
//! `PPF_CONN_TIERS=100,1000` overrides the tier list for quick local
//! runs; the committed artifact must come from the full list.

use std::fmt::Write as _;
use std::io::BufRead;
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ppf_server::{Client, ServerConfig, Verb};

const OUTPUT_PATH: &str = "BENCH_5.json";
const DEFAULT_TIERS: &[usize] = &[100, 1_000, 10_000];
/// Probe requests per tier.
const PROBE_REQUESTS: usize = 200;
/// Resident-thread allowance over the idle baseline: event loops + the
/// metrics thread + transient query workers.
const THREAD_SLACK: usize = 8;
/// Connections opened per batch before waiting for the server to adopt
/// them — paces the client against accept/spawn throughput.
const CONNECT_BATCH: usize = 256;
/// The probe query: one row against the generated XMark document.
const PROBE_QUERY: &str = "/site";

fn tiers() -> Vec<usize> {
    match std::env::var("PPF_CONN_TIERS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => DEFAULT_TIERS.to_vec(),
    }
}

/// Raise this process's soft `RLIMIT_NOFILE` to its hard limit. Plain
/// libc symbols, no crate dependency — the same pattern `ppfd` uses for
/// `signal`. Returns the resulting soft limit.
#[cfg(unix)]
fn raise_nofile() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    const RLIMIT_NOFILE: i32 = 7;
    unsafe {
        let mut cur = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut cur) != 0 {
            return 0;
        }
        if cur.cur < cur.max {
            let lim = RLimit {
                cur: cur.max,
                max: cur.max,
            };
            if setrlimit(RLIMIT_NOFILE, &lim) == 0 {
                return cur.max;
            }
        }
        cur.cur
    }
}

#[cfg(not(unix))]
fn raise_nofile() -> u64 {
    u64::MAX
}

/// Resident thread count of the server process.
#[cfg(target_os = "linux")]
fn server_threads(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(not(target_os = "linux"))]
fn server_threads(_pid: u32) -> usize {
    0
}

struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Launch `ppfd` (from this binary's own target directory) on an
/// ephemeral port and wait for its readiness line.
fn spawn_server() -> Result<Server, String> {
    let ppfd = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("ppfd")))
        .filter(|p| p.exists())
        .ok_or("ppfd not found next to conn_scaling — build the workspace bins first")?;
    let mut cmd = Command::new(ppfd);
    cmd.args([
        "--xmark",
        "0.001",
        "--listen",
        "127.0.0.1:0",
        // The herd must not be reaped mid-bench.
        "--idle-ms",
        "3600000",
    ]);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().map_err(|e| format!("spawn ppfd: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { return };
            if let Some(addr) = line.strip_prefix("ppfd listening on ") {
                let _ = tx.send(addr.trim().to_string());
                // Keep draining so the child never blocks on a full pipe.
            }
        }
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(addr) => Ok(Server { child, addr }),
        Err(_) => {
            let _ = child.kill();
            Err("ppfd did not announce readiness within 60s".into())
        }
    }
}

/// Poll the server's health view until it counts `want` live conns.
fn wait_active(probe: &mut Client, want: usize, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let body = probe
            .request("adopt-wait", Verb::Health, &[], "")
            .map_err(|e| format!("health probe failed: {e}"))?
            .result
            .map_err(|(k, m)| format!("health rejected ({}): {m}", k.as_str()))?;
        let live: usize = body
            .lines()
            .find_map(|l| l.strip_prefix("active_conns: "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        if live >= want {
            return Ok(());
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "server adopted only {live}/{want} connections in {deadline:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Grow the idle herd to `target` connections, pacing against adoption.
fn grow_herd(
    herd: &mut Vec<TcpStream>,
    addr: &str,
    target: usize,
    probe: &mut Client,
) -> Result<(), String> {
    while herd.len() < target {
        let batch = CONNECT_BATCH.min(target - herd.len());
        for _ in 0..batch {
            let s = TcpStream::connect(addr)
                .map_err(|e| format!("idle conn {} failed: {e}", herd.len()))?;
            herd.push(s);
        }
        // +1: the probe client is a connection too.
        wait_active(probe, herd.len() + 1, Duration::from_secs(120))?;
    }
    Ok(())
}

/// One latency round: PROBE_REQUESTS sequential queries, p50/p99 in µs.
fn probe_latency(probe: &mut Client) -> Result<(f64, f64), String> {
    let mut lat_us: Vec<f64> = Vec::with_capacity(PROBE_REQUESTS);
    for n in 0..PROBE_REQUESTS {
        let t0 = Instant::now();
        let resp = probe
            .request(&format!("p{n}"), Verb::Query, &[], PROBE_QUERY)
            .map_err(|e| format!("probe query failed: {e}"))?;
        resp.result
            .map_err(|(k, m)| format!("probe rejected ({}): {m}", k.as_str()))?;
        lat_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |p: f64| lat_us[((lat_us.len() as f64 * p) as usize).min(lat_us.len() - 1)];
    Ok((pick(0.50), pick(0.99)))
}

/// What the server looked like at one tier.
struct TierRow {
    conns: usize,
    threads: usize,
    p50_us: f64,
    p99_us: f64,
}

struct Run {
    baseline_threads: usize,
    rows: Vec<TierRow>,
}

/// Run one server through every tier. The herd only grows between
/// tiers; connections are dropped (and the server drained) at the end.
fn run_tiers(tiers: &[usize]) -> Result<Run, String> {
    let server = spawn_server()?;
    let pid = server.child.id();
    let io = Duration::from_secs(30);
    let mut probe =
        Client::connect(&server.addr, io).map_err(|e| format!("probe connect failed: {e}"))?;
    // Warm the query path (plan caches, first worker spawn) before any
    // baseline or latency observation.
    probe
        .request("warm", Verb::Query, &[], PROBE_QUERY)
        .map_err(|e| format!("warm-up failed: {e}"))?
        .result
        .map_err(|(k, m)| format!("warm-up rejected ({}): {m}", k.as_str()))?;
    std::thread::sleep(Duration::from_millis(200));
    let baseline_threads = server_threads(pid);

    let mut herd: Vec<TcpStream> = Vec::new();
    let mut rows = Vec::new();
    for &tier in tiers {
        let t0 = Instant::now();
        grow_herd(&mut herd, &server.addr, tier, &mut probe)?;
        eprintln!(
            "  {tier} conns held after {:.1}s",
            t0.elapsed().as_secs_f64()
        );
        let (p50, p99) = probe_latency(&mut probe)?;
        // Query workers are per-request and short-lived; let the last
        // one retire before counting resident threads.
        std::thread::sleep(Duration::from_millis(300));
        rows.push(TierRow {
            conns: tier,
            threads: server_threads(pid),
            p50_us: p50,
            p99_us: p99,
        });
    }

    drop(herd);
    // Graceful drain; the Drop impl kills the child if this stalls.
    let _ = probe.request("drain", Verb::Shutdown, &[], "");
    drop(probe);
    let mut server = server;
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(60) {
        match server.child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) => std::thread::sleep(Duration::from_millis(100)),
            Err(_) => break,
        }
    }
    Ok(Run {
        baseline_threads,
        rows,
    })
}

fn emit_run(s: &mut String, run: &Run) {
    writeln!(s, "  \"async\": {{").unwrap();
    writeln!(s, "    \"baseline_threads\": {},", run.baseline_threads).unwrap();
    writeln!(s, "    \"tiers\": [").unwrap();
    for (i, r) in run.rows.iter().enumerate() {
        writeln!(
            s,
            "      {{ \"conns\": {}, \"threads\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1} }}{}",
            r.conns,
            r.threads,
            r.p50_us,
            r.p99_us,
            if i + 1 < run.rows.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(s, "    ]").unwrap();
    writeln!(s, "  }}").unwrap();
}

fn main() {
    let tiers = tiers();
    if tiers.is_empty() {
        eprintln!("conn_scaling: PPF_CONN_TIERS parsed to nothing");
        std::process::exit(1);
    }
    let max_tier = *tiers.iter().max().unwrap();
    // One client fd per connection, plus stdio/probe headroom. The
    // server pays its own fds in its own process.
    let nofile = raise_nofile();
    if nofile < (max_tier as u64) + 64 {
        eprintln!("conn_scaling: RLIMIT_NOFILE {nofile} too low for {max_tier} client conns");
        std::process::exit(1);
    }
    if !cfg!(target_os = "linux") {
        // Thread accounting reads /proc; without it the gates are
        // meaningless. Emit nothing rather than a vacuous pass.
        eprintln!("conn_scaling: skipped (needs /proc)");
        return;
    }

    eprintln!("conn_scaling: tiers {tiers:?}, nofile {nofile}");
    let run = match run_tiers(&tiers) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conn_scaling FAILED: {e}");
            std::process::exit(1);
        }
    };

    // The gate: the largest tier is held in O(event_threads) resident
    // threads.
    let event_threads = ServerConfig::default().event_threads;
    let ceiling = event_threads + THREAD_SLACK;
    let last = run.rows.last().unwrap();
    let thread_delta = last.threads.saturating_sub(run.baseline_threads);
    let failure = (thread_delta > ceiling).then(|| {
        format!(
            "server grew {thread_delta} threads holding {} conns \
             (allowed: event_threads {event_threads} + {THREAD_SLACK})",
            last.conns
        )
    });
    let gate_outcome = match &failure {
        None => "pass".to_string(),
        Some(f) => format!("fail: {f}"),
    };

    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"conn_scaling\",").unwrap();
    writeln!(
        s,
        "  \"cores_hw\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )
    .unwrap();
    writeln!(s, "  \"event_threads\": {event_threads},").unwrap();
    writeln!(s, "  \"gate_outcome\": \"{gate_outcome}\",").unwrap();
    writeln!(s, "  \"gates\": {{").unwrap();
    writeln!(s, "    \"async_thread_ceiling\": {ceiling},").unwrap();
    writeln!(s, "    \"async_thread_delta\": {thread_delta}").unwrap();
    writeln!(s, "  }},").unwrap();
    let lines: Vec<String> = ppf_bench::rust_lines()
        .iter()
        .map(|(krate, n)| format!("\"{krate}\": {n}"))
        .collect();
    writeln!(s, "  \"rust_lines\": {{ {} }},", lines.join(", ")).unwrap();
    emit_run(&mut s, &run);
    writeln!(s, "}}").unwrap();
    std::fs::write(OUTPUT_PATH, &s).expect("write BENCH_5.json");

    println!("conn_scaling:");
    println!(
        "  {:>7} {:>8} {:>10} {:>10}",
        "conns", "threads", "p50", "p99"
    );
    for r in &run.rows {
        println!(
            "  {:>7} {:>8} {:>8.1}µs {:>8.1}µs",
            r.conns, r.threads, r.p50_us, r.p99_us
        );
    }
    println!(
        "  thread delta at {} conns: {thread_delta} (ceiling {ceiling})",
        last.conns
    );

    match failure {
        None => println!("conn_scaling: OK ({OUTPUT_PATH} written)"),
        Some(f) => {
            eprintln!("conn_scaling FAILED: {f}");
            std::process::exit(1);
        }
    }
}
