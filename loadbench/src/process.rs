//! The system under test as separate processes: one-shot `failctl`
//! commands timed from outside, and a `faild` server that is always
//! shut down and reaped.

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use failserver::client::Connection;
use failserver::Endpoint;

use crate::Res;

/// The client deadline: an operation with no result after this long
/// has failed.
pub const DEADLINE: Duration = Duration::from_secs(30);

/// The real `failctl` binary, found next to this executable. Every path
/// it is given is absolute, and it inherits this process's working
/// directory: changing it would make the standard library fork the
/// whole benchmark process instead of spawning the child directly.
#[derive(Debug, Clone)]
pub struct Failctl {
    exe: PathBuf,
}

impl Failctl {
    pub fn locate() -> Res<Failctl> {
        let me = std::env::current_exe().map_err(|e| format!("locating loadbench: {e}"))?;
        let exe = me.with_file_name("failctl");
        if !exe.is_file() {
            return Err(format!(
                "{} not found: build it first (`cargo build --release -p failctl` into the same target directory)",
                exe.display()
            ));
        }
        Ok(Failctl { exe })
    }

    /// Runs one command to completion and returns its wall time in ms
    /// (spawn to reaped exit) and its stdout. A non-zero exit, a stdout
    /// that is not UTF-8, or no exit within [`DEADLINE`] is an error.
    pub fn run(&self, args: &[String]) -> Res<(f64, String)> {
        let start = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning failctl: {e}"))?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let mut stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let (mut out, mut err) = (Vec::new(), Vec::new());
            let read = stdout
                .read_to_end(&mut out)
                .and_then(|_| stderr.read_to_end(&mut err));
            let _ = tx.send(read.map(|_| (out, err)));
        });
        let received = rx.recv_timeout(DEADLINE);
        if received.is_err() {
            let _ = child.kill();
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for failctl: {e}"));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let _ = reader.join();
        let status = status?;
        let (out, err) = match received {
            Ok(Ok(pair)) => pair,
            Ok(Err(e)) => return Err(format!("reading failctl output: {e}")),
            Err(_) => {
                return Err(format!(
                    "failctl {} gave no result within {DEADLINE:?}",
                    args.join(" ")
                ))
            }
        };
        if !status.success() {
            return Err(format!(
                "failctl {} exited with {status}: {}",
                args.join(" "),
                String::from_utf8_lossy(&err).trim()
            ));
        }
        let out = String::from_utf8(out).map_err(|_| "failctl stdout is not UTF-8".to_string())?;
        Ok((ms, out))
    }

    /// Starts `failctl serve --listen 127.0.0.1:0` (every other flag at
    /// its default) and waits for its ready line. Returns the server and
    /// the spawn-to-ready time in seconds.
    pub fn serve(&self) -> Res<(Faild, f64)> {
        let start = Instant::now();
        let mut child = Command::new(&self.exe)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning faild: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // Own the child before anything can fail, so it is always reaped.
        let mut faild = Faild {
            child,
            stdout,
            addr: String::new(),
        };
        let mut ready = String::new();
        faild
            .stdout
            .read_line(&mut ready)
            .map_err(|e| format!("reading faild's ready line: {e}"))?;
        let secs = start.elapsed().as_secs_f64();
        let doc = failtypes::JsonValue::parse(ready.trim())
            .map_err(|e| format!("faild ready line {ready:?}: {e}"))?;
        faild.addr = doc
            .get("endpoint")
            .and_then(failtypes::JsonValue::as_str)
            .and_then(|e| e.strip_prefix("tcp:"))
            .ok_or_else(|| format!("faild ready line without a tcp endpoint: {ready:?}"))?
            .to_string();
        Ok((faild, secs))
    }
}

/// A running `faild`. Dropping it kills and reaps the process; a clean
/// stop goes through [`Faild::shutdown`].
#[derive(Debug)]
pub struct Faild {
    child: Child,
    // Held open so the server can print its exit summary.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Faild {
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A blocking client connection for one-off commands.
    pub fn connect(&self) -> Res<Connection> {
        Connection::connect(&Endpoint::tcp(self.addr.as_str())).map_err(|e| e.to_string())
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kib / 1024.0)
    }

    /// Sends `shutdown` and waits for the process to exit cleanly.
    pub fn shutdown(mut self) -> Res<()> {
        let line = failapi::wire::encode_simple(0, "shutdown");
        self.connect()?
            .roundtrip(&line)
            .map_err(|e| e.to_string())?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for faild: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("faild exited with {status}"))
        }
    }
}

impl Drop for Faild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
