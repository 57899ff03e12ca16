//! `failctl serve` out of file descriptors: the listener stays readable
//! while `accept` fails with EMFILE, so a server that keeps polling it
//! spins a core. It must idle instead, and accept the queued clients
//! once connections close.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use failapi::wire;

/// Descriptors the server may hold: a few for itself, the rest for
/// connections.
const FD_LIMIT: usize = 32;
/// More clients than the server can hold open at once.
const CLIENTS: usize = 40;
/// Clients closed to free descriptors for the queued ones.
const CLOSED: usize = 35;

/// The server's user plus system CPU time, in clock ticks.
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("reads the stat");
    // Fields after the parenthesised command name: state is field 3,
    // utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> u64 { fields[n - 3].parse().expect("a tick count") };
    field(14) + field(15)
}

/// Kills the server however the test ends.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

#[test]
fn an_exhausted_descriptor_table_idles_and_recovers_when_connections_close() {
    let script = format!("ulimit -n {FD_LIMIT}; exec \"$0\" serve --listen 127.0.0.1:0");
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(script)
        .arg(env!("CARGO_BIN_EXE_failctl"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawns the server");
    let stdout = child.stdout.take().expect("piped stdout");
    let server = Server(child);
    let mut ready = String::new();
    BufReader::new(stdout)
        .read_line(&mut ready)
        .expect("reads the ready line");
    let addr = ready
        .split("\"tcp:")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("a tcp ready line: {ready}"))
        .to_string();

    // The kernel completes every handshake into the listen backlog; the
    // server accepts until its descriptors run out.
    let mut clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(&addr).expect("connects"))
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    // Exhausted, the server must not spin on its readable listener.
    let pid = server.0.id();
    let (start, ticks) = (Instant::now(), cpu_ticks(pid));
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(pid) - ticks;
    let wall = start.elapsed().as_secs_f64();
    // Linux reports `/proc` times in USER_HZ ticks, 100 per second.
    let cpu = used as f64 / 100.0;
    assert!(
        cpu < 0.1 * wall,
        "the server burned {cpu:.2} s of CPU in {wall:.2} s while out of descriptors"
    );

    // The last client is still queued; its ping is answered once
    // earlier connections close.
    let mut queued = clients.pop().expect("clients");
    queued
        .write_all(format!("{}\n", wire::encode_simple(7, "ping")).as_bytes())
        .expect("sends a ping");
    clients.drain(..CLOSED).for_each(drop);
    queued
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("sets a deadline");
    let mut line = String::new();
    BufReader::new(&queued)
        .read_line(&mut line)
        .expect("the queued client is answered within 1 s");
    let reply = wire::parse_response(line.trim_end()).expect("a reply");
    assert_eq!(reply.output, "pong\n");
    drop(clients);
    drop(server);
}
