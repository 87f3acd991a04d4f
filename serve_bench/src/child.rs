//! The server under test: build `ppfd` from the checkout, run it as a
//! child on an ephemeral port, read its memory from `/proc`, and stop it
//! through the protocol.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ppf_server::Verb;

use crate::client::Conn;
use crate::workloads::{DOC_SCALE, DOC_SEED};

const START_TIMEOUT: Duration = Duration::from_secs(30);
/// `ppfd` polls for a drain every 100 ms and gives stragglers 2 × 2 s.
const EXIT_GRACE: Duration = Duration::from_secs(8);

/// The flags every run serves with; everything else is `ppfd`'s default.
pub fn ppfd_flags() -> Vec<String> {
    [
        "--xmark",
        &DOC_SCALE.to_string(),
        "--seed",
        &DOC_SEED.to_string(),
        "--listen",
        "127.0.0.1:0",
    ]
    .map(String::from)
    .to_vec()
}

/// `cargo build --release --bin ppfd` in the checkout (a no-op once
/// built), so the daemon measured is always this tree's, optimised.
pub fn build_ppfd(root: &Path, tmp: &Path) -> Result<PathBuf, String> {
    let log_path = tmp.join("build_ppfd.log");
    let log =
        std::fs::File::create(&log_path).map_err(|e| format!("{}: {e}", log_path.display()))?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--bin", "ppfd"])
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(log.try_clone().map_err(|e| e.to_string())?)
        .stderr(log)
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        return Err(format!("building ppfd failed ({status}):\n{text}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = root.join(target).join("release").join("ppfd");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing after the build", bin.display()))
    }
}

pub struct Child {
    proc: std::process::Child,
    pub addr: String,
    /// Spawn → `ppfd listening on` (generate + shred + finalize + stats).
    pub setup_s: f64,
    stdout: Option<JoinHandle<()>>,
}

impl Child {
    /// Start `ppfd`; stdout and stderr land in `<tmp>/ppfd_<tag>.{out,err}`.
    pub fn spawn(ppfd: &Path, tmp: &Path, tag: &str) -> Result<Child, String> {
        let err_log = std::fs::File::create(tmp.join(format!("ppfd_{tag}.err")))
            .map_err(|e| format!("cannot create the ppfd log: {e}"))?;
        let mut out_log = std::fs::File::create(tmp.join(format!("ppfd_{tag}.out")))
            .map_err(|e| format!("cannot create the ppfd log: {e}"))?;
        let t0 = Instant::now();
        let mut proc = Command::new(ppfd)
            .args(ppfd_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", ppfd.display()))?;
        let pipe = proc.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Tee stdout to the log until EOF; hand over the readiness line.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = writeln!(out_log, "{line}");
                if let Some(addr) = line.strip_prefix("ppfd listening on ") {
                    let _ = tx.send((addr.trim().to_string(), Instant::now()));
                }
            }
        });
        match rx.recv_timeout(START_TIMEOUT) {
            Ok((addr, ready)) => Ok(Child {
                proc,
                addr,
                setup_s: ready.duration_since(t0).as_secs_f64(),
                stdout: Some(stdout),
            }),
            Err(_) => {
                let _ = proc.kill();
                let _ = proc.wait();
                let _ = stdout.join();
                Err(format!(
                    "ppfd did not announce its address within {START_TIMEOUT:?} (see ppfd_{tag}.err)"
                ))
            }
        }
    }

    /// A `kB` field of `/proc/<pid>/status` in MiB (`VmRSS`, `VmHWM`),
    /// or a plain count (`Threads`) as is.
    pub fn proc_status(&self, field: &str) -> f64 {
        let text =
            std::fs::read_to_string(format!("/proc/{}/status", self.proc.id())).unwrap_or_default();
        text.lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
            .and_then(|rest| {
                let mut parts = rest.split_whitespace();
                let n: f64 = parts.next()?.parse().ok()?;
                Some(if parts.next() == Some("kB") {
                    n / 1024.0
                } else {
                    n
                })
            })
            .unwrap_or(0.0)
    }

    fn join_stdout(&mut self) {
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }

    /// Drain through the `shutdown` verb; kill after the grace period.
    /// `Err` means the exit was not clean (it still has exited).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr)
            .and_then(|mut c| c.call("bye", Verb::Shutdown, ""))
            .map_err(|e| format!("shutdown verb failed: {e}"));
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            match self.proc.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => {
                    let _ = self.proc.kill();
                    let _ = self.proc.wait();
                    break Err(format!(
                        "ppfd still running {EXIT_GRACE:?} after shutdown; killed"
                    ));
                }
                Err(e) => break Err(format!("waiting for ppfd: {e}")),
            }
        };
        self.join_stdout();
        asked?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("ppfd exited with {s}")),
        }
    }
}

/// A run that ends early (error or panic) must not leave a daemon behind.
impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
        self.join_stdout();
    }
}
