//! The serve workloads: one `faild`, one generator thread (plus a helper
//! that only reads the socket, see [`TcpLink`]) and one pipelined TCP
//! connection. An open-loop phase sends at a fixed rate and times each
//! request from when it was *due*; a saturation phase then holds a
//! fixed number of requests outstanding.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use failapi::{OutputFormat, QueryRequest, QuerySource};
use failindex::IndexMode;

use crate::cli::{SETUP_REPS, WHERE};
use crate::inputs::{self, Workdir};
use crate::process::{Failctl, Faild, DEADLINE};
use crate::reference;
use crate::stats::{self, Samples};
use crate::{Metric, Outcome, Res, Tally};

/// Fixed offered load of `serve-fleet`, in requests per second.
const FLEET_RATE: f64 = 4000.0;
/// Fixed offered load of `serve-year`, in requests per second.
const YEAR_RATE: f64 = 50.0;
/// Requests held outstanding in the saturation phase.
const SATURATION_DEPTH: usize = 32;
/// Share of a run spent in the open-loop phase; saturation gets the rest.
const OPEN_SHARE: f64 = 0.75;

/// One side of the generator's connection. Time is measured from the
/// start of the phase; a fake implementation drives the scheduler tests.
pub trait Link {
    fn now(&mut self) -> Duration;
    /// Sends the request at rotation position `seq`.
    fn send(&mut self, seq: u64) -> io::Result<()>;
    /// Waits until `deadline` for the next complete reply line; returns
    /// it with the time it arrived.
    fn recv_until(&mut self, deadline: Duration) -> io::Result<Option<(Vec<u8>, Duration)>>;
}

/// Checks a reply to request `seq`, which may reflect any input stage
/// from `first` (in effect when it was sent) to `last` (when its reply
/// arrived). Returns the reply's `cached` flag.
pub type Check<'a> = dyn FnMut(u64, &[u8], usize, usize) -> Res<bool> + 'a;

/// An open-loop schedule: `rate × duration` requests at fixed spacing,
/// plus input events (appends) fired at the given phase times.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    pub rate: f64,
    pub duration: Duration,
    pub events: Vec<Duration>,
}

#[derive(Debug, Default)]
pub struct OpenLoopStats {
    /// Due-time latency per request (`+inf` for a failed one).
    pub latency: Samples,
    /// How late the generator sent each request.
    pub late: Samples,
    /// Most requests outstanding at once.
    pub backlog_max: usize,
    /// Requests sent.
    pub sent: u64,
}

struct Pending {
    seq: u64,
    due: Duration,
    sent: Duration,
    stage: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Fails every outstanding request (deadline expired).
fn fail_all(inflight: &mut VecDeque<Pending>, tally: &mut Tally) -> usize {
    let n = inflight.len();
    for p in inflight.drain(..) {
        tally.fail(format!(
            "request {} got no reply within {DEADLINE:?}",
            p.seq
        ));
    }
    n
}

/// Runs an open-loop phase. Requests are sent at their due times; in
/// between, the generator reads replies with a deadline set to the next
/// due time or event. A request that misses the client deadline fails,
/// together with everything queued behind it on the connection.
pub fn open_loop(
    link: &mut dyn Link,
    plan: &OpenLoop,
    first_seq: u64,
    tally: &mut Tally,
    on_event: &mut dyn FnMut(usize) -> Res<()>,
    check: &mut Check<'_>,
) -> Res<OpenLoopStats> {
    let total = (plan.rate * plan.duration.as_secs_f64()).round() as u64;
    let due = |i: u64| Duration::from_secs_f64(i as f64 / plan.rate);
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut stats = OpenLoopStats::default();
    let (mut next, mut stage) = (0u64, 0usize);
    loop {
        let now = link.now();
        if stage < plan.events.len() && plan.events[stage] <= now {
            on_event(stage)?;
            stage += 1;
            continue;
        }
        if next < total && due(next) <= now {
            link.send(first_seq + next)
                .map_err(|e| format!("sending: {e}"))?;
            stats.late.push(ms(now - due(next)));
            inflight.push_back(Pending {
                seq: first_seq + next,
                due: due(next),
                sent: now,
                stage,
            });
            stats.backlog_max = stats.backlog_max.max(inflight.len());
            next += 1;
            stats.sent = next;
            continue;
        }
        let expiry = inflight.front().map(|p| p.sent + DEADLINE);
        if expiry.is_some_and(|t| t <= now) {
            for _ in 0..fail_all(&mut inflight, tally) {
                stats.latency.push_failed();
            }
            break;
        }
        if next >= total && inflight.is_empty() && stage >= plan.events.len() {
            break;
        }
        let wake = [
            (next < total).then(|| due(next)),
            plan.events.get(stage).copied(),
            expiry,
        ]
        .into_iter()
        .flatten()
        .min()
        .expect("a send, an event or a reply is pending");
        if let Some((reply, at)) = link
            .recv_until(wake)
            .map_err(|e| format!("receiving: {e}"))?
        {
            let p = inflight
                .pop_front()
                .ok_or("reply with no request outstanding")?;
            match check(p.seq, &reply, p.stage, stage) {
                Ok(_) => {
                    tally.ok();
                    stats.latency.push(ms(at.saturating_sub(p.due)));
                }
                Err(e) => {
                    tally.fail(e);
                    stats.latency.push_failed();
                }
            }
        }
    }
    Ok(stats)
}

/// Runs a saturation phase: `depth` requests outstanding, a new one
/// sent as each reply arrives, for `duration`. Returns the completions
/// within the window and their rate per second.
pub fn saturate(
    link: &mut dyn Link,
    depth: usize,
    duration: Duration,
    first_seq: u64,
    stage: usize,
    tally: &mut Tally,
    check: &mut Check<'_>,
) -> Res<(u64, f64)> {
    let start = link.now();
    let end = start + duration;
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut seq = first_seq;
    let mut completed = 0u64;
    let mut send = |link: &mut dyn Link, inflight: &mut VecDeque<Pending>| -> Res<()> {
        let now = link.now();
        link.send(seq).map_err(|e| format!("sending: {e}"))?;
        inflight.push_back(Pending {
            seq,
            due: now,
            sent: now,
            stage,
        });
        seq += 1;
        Ok(())
    };
    for _ in 0..depth {
        send(link, &mut inflight)?;
    }
    while let Some(oldest) = inflight.front() {
        let expiry = oldest.sent + DEADLINE;
        let Some((reply, at)) = link
            .recv_until(expiry)
            .map_err(|e| format!("receiving: {e}"))?
        else {
            if link.now() >= expiry {
                fail_all(&mut inflight, tally);
            }
            continue;
        };
        let p = inflight.pop_front().expect("front exists");
        match check(p.seq, &reply, p.stage, stage) {
            Ok(_) => {
                tally.ok();
                if at <= end {
                    completed += 1;
                }
            }
            Err(e) => tally.fail(e),
        }
        if at < end {
            send(link, &mut inflight)?;
        }
    }
    Ok((completed, completed as f64 / duration.as_secs_f64()))
}

/// A reply line and the instant its last byte was read.
type Arrival = io::Result<(Vec<u8>, Instant)>;

/// The generator's TCP connection to `faild`. Request lines are encoded
/// once. A helper thread does nothing but block on the socket and hand
/// each reply line, stamped as it completes, to the generator over a
/// channel: a socket read timeout is rounded up to a whole scheduler
/// tick (milliseconds), while a channel wait wakes within microseconds
/// of its deadline, which is what lets one generator thread send on
/// time at thousands of requests per second.
struct TcpLink {
    origin: Instant,
    writer: TcpStream,
    lines: Vec<Vec<u8>>,
    arrivals: mpsc::Receiver<Arrival>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl TcpLink {
    fn connect(addr: &str, lines: Vec<Vec<u8>>) -> Res<TcpLink> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let setup = || -> io::Result<TcpStream> {
            writer.set_nodelay(true)?;
            writer.set_write_timeout(Some(DEADLINE))?;
            writer.try_clone()
        };
        let socket = setup().map_err(|e| format!("configuring the connection: {e}"))?;
        let (tx, arrivals) = mpsc::channel::<Arrival>();
        let reader = std::thread::spawn(move || {
            let mut socket = BufReader::with_capacity(1 << 16, socket);
            loop {
                let mut line = Vec::new();
                let arrival = match socket.read_until(b'\n', &mut line) {
                    Ok(_) if line.ends_with(b"\n") => Ok((line, Instant::now())),
                    Ok(_) => Err(io::ErrorKind::UnexpectedEof.into()),
                    Err(e) => Err(e),
                };
                let done = arrival.is_err();
                if tx.send(arrival).is_err() || done {
                    return;
                }
            }
        });
        Ok(TcpLink {
            origin: Instant::now(),
            writer,
            lines,
            arrivals,
            reader: Some(reader),
        })
    }

    /// Restarts the phase clock.
    fn restart(&mut self) {
        self.origin = Instant::now();
    }
}

impl Link for TcpLink {
    fn now(&mut self) -> Duration {
        self.origin.elapsed()
    }

    fn send(&mut self, seq: u64) -> io::Result<()> {
        let line = &self.lines[(seq % self.lines.len() as u64) as usize];
        self.writer.write_all(line)
    }

    fn recv_until(&mut self, deadline: Duration) -> io::Result<Option<(Vec<u8>, Duration)>> {
        let wait = deadline.saturating_sub(self.now());
        match self.arrivals.recv_timeout(wait) {
            Ok(Ok((line, at))) => Ok(Some((line, at.saturating_duration_since(self.origin)))),
            Ok(Err(e)) => Err(e),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        // Closing the socket ends the reader's blocking read.
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// A fixed request rotation with the reference output of each request
/// at every input stage (one entry when the request ignores appends).
struct Rotation {
    requests: Vec<QueryRequest>,
    refs: Vec<Vec<String>>,
}

impl Rotation {
    fn lines(&self) -> Vec<Vec<u8>> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let mut line = failapi::wire::encode_query(i as u64, req).into_bytes();
                line.push(b'\n');
                line
            })
            .collect()
    }

    fn check(&self, seq: u64, reply: &[u8], first: usize, last: usize) -> Res<bool> {
        let refs = &self.refs[(seq % self.refs.len() as u64) as usize];
        let candidates: Vec<&str> = if refs.len() == 1 {
            vec![&refs[0]]
        } else {
            refs[first..=last].iter().map(String::as_str).collect()
        };
        reference::check_reply(reply, &candidates)
    }
}

fn fleet_rotation(fleet: &[(String, String)]) -> Res<Rotation> {
    let gpu = "category == gpu";
    let mut requests = Vec::new();
    for (t2, t3) in fleet {
        for log in [t2, t3] {
            let report = QueryRequest::report(QuerySource::file(log.as_str()));
            requests.push(report.clone());
            requests.push(report.clone().where_expr(gpu).format(OutputFormat::Json));
            requests.push(report.sections("tbf,ttr,spatial"));
        }
        let compare = QueryRequest::compare(t2.as_str(), t3.as_str());
        requests.push(compare.clone());
        requests.push(compare.where_expr(gpu).format(OutputFormat::Json));
    }
    let refs = requests
        .iter()
        .map(|req| reference::query(req).map(|out| vec![out]))
        .collect::<Res<_>>()?;
    Ok(Rotation { requests, refs })
}

fn year_rotation(year_a: &str, year_b: &inputs::YearB) -> Res<Rotation> {
    let requests = vec![
        QueryRequest::report(QuerySource::file(year_a)).index(IndexMode::Auto),
        QueryRequest::report(QuerySource::file(year_b.path.as_str())).index(IndexMode::Off),
        QueryRequest::report(QuerySource::file(year_b.path.as_str()))
            .where_expr(WHERE)
            .sections("tbf,ttr")
            .format(OutputFormat::Json),
        QueryRequest::compare(year_a, year_b.path.as_str()),
    ];
    let mut refs = vec![
        vec![reference::query(&requests[0])?],
        vec![],
        vec![],
        vec![],
    ];
    // Every stage's references are computed with that stage at the
    // file's real path, then the file is put back at stage 0.
    for k in 0..year_b.stages.len() {
        year_b.set_stage(k)?;
        for (i, req) in requests.iter().enumerate().skip(1) {
            refs[i].push(reference::query(req)?);
        }
    }
    year_b.set_stage(0)?;
    Ok(Rotation { requests, refs })
}

/// Which serve workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Fleet,
    Year,
}

/// Starts `faild` and warms it: every distinct request is sent once in
/// turn until it is answered from the render cache. Returns the server,
/// the generator's connection, and the set-up seconds (spawn to ready
/// line, plus the warm-up pass).
fn start(failctl: &Failctl, rot: &Rotation, tally: &mut Tally) -> Res<(Faild, TcpLink, f64)> {
    let (faild, ready_s) = failctl.serve()?;
    let mut link = TcpLink::connect(faild.addr(), rot.lines())?;
    let start = link.now();
    for seq in 0..rot.requests.len() as u64 {
        let mut cached = false;
        for _ in 0..3 {
            link.send(seq).map_err(|e| format!("sending: {e}"))?;
            let deadline = link.now() + DEADLINE;
            let (reply, _) = link
                .recv_until(deadline)
                .map_err(|e| format!("receiving: {e}"))?
                .ok_or_else(|| format!("warm-up request {seq} got no reply"))?;
            match rot.check(seq, &reply, 0, 0) {
                Ok(c) => {
                    tally.ok();
                    cached = c;
                }
                Err(e) => tally.fail(e),
            }
            if cached {
                break;
            }
        }
        if !cached {
            tally.fail(format!("warm-up request {seq} was never cached"));
        }
    }
    let warm_s = (link.now() - start).as_secs_f64();
    Ok((faild, link, ready_s + warm_s))
}

/// The render-cache hit ratio from the server's own counters.
fn cache_hit_ratio(faild: &Faild) -> Res<f64> {
    let line = failapi::wire::encode_simple(0, "metrics");
    let reply = faild
        .connect()?
        .roundtrip(&line)
        .map_err(|e| e.to_string())?;
    let counter = |stage: &str| {
        reply.output.lines().find_map(|l| {
            let doc = failtypes::JsonValue::parse(l).ok()?;
            (doc.get("stage")?.as_str()? == stage).then(|| doc.get("value")?.as_f64())?
        })
    };
    let hits = counter("cache.hits").unwrap_or(0.0);
    let misses = counter("cache.misses").unwrap_or(0.0);
    Ok(hits / (hits + misses).max(1.0))
}

/// Runs one serve workload: set-up [`SETUP_REPS`] times (the last
/// server stays up), the open-loop phase, then saturation.
pub fn run(kind: ServeKind, dir: &Workdir, seed: u64, seconds: f64) -> Res<Outcome> {
    let failctl = Failctl::locate()?;
    let (rot, rate, year_b) = match kind {
        ServeKind::Fleet => (
            fleet_rotation(&inputs::fleet(dir, seed)?)?,
            FLEET_RATE,
            None,
        ),
        ServeKind::Year => {
            let year_a = inputs::year_a(dir, seed)?;
            let year_b = inputs::year_b(dir, seed)?;
            let rot = year_rotation(&year_a.plain, &year_b)?;
            year_b.prepare_appends()?;
            (rot, YEAR_RATE, Some(year_b))
        }
    };
    let mut tally = Tally::default();
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let (faild, link, secs) = start(&failctl, &rot, &mut tally)?;
        setup.push(secs);
        if rep + 1 < SETUP_REPS {
            drop(link);
            faild.shutdown()?;
        } else {
            server = Some((faild, link));
        }
    }
    let (faild, mut link) = server.expect("at least one set-up");

    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let appends = year_b.as_ref().map_or(0, |b| b.stages.len() - 1);
    let plan = OpenLoop {
        rate,
        duration: open,
        events: (0..appends)
            .map(|k| open.mul_f64((k as f64 + 0.5) / appends as f64))
            .collect(),
    };
    let mut on_event = |k: usize| year_b.as_ref().map_or(Ok(()), |b| b.append(k + 1));
    let mut check =
        |seq: u64, reply: &[u8], first: usize, last: usize| rot.check(seq, reply, first, last);
    link.restart();
    let first_seq = rot.requests.len() as u64;
    let mut stats = open_loop(
        &mut link,
        &plan,
        first_seq,
        &mut tally,
        &mut on_event,
        &mut check,
    )?;
    let (completed, max_qps) = saturate(
        &mut link,
        SATURATION_DEPTH,
        Duration::from_secs_f64(seconds - open.as_secs_f64()),
        first_seq + stats.sent,
        appends,
        &mut tally,
        &mut check,
    )?;
    drop(link);

    let n = stats.latency.len();
    crate::print_tail(&mut stats.latency);
    println!(
        "info: generator late p99 = {:.3} ms, backlog max = {}",
        stats.late.percentile(99.0),
        stats.backlog_max
    );
    println!("info: saturation {max_qps:.1} ops/s (n={completed})");
    println!("info: cache hit ratio = {:.4}", cache_hit_ratio(&faild)?);
    if let Some(mib) = faild.peak_rss_mib() {
        println!("info: faild peak RSS = {mib:.1} MiB");
    }
    faild.shutdown()?;
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&setup), setup.len()),
        Metric::new("p10_ms", "ms", stats.latency.percentile(10.0), n),
    ];
    Ok(Outcome { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server with a fixed service time per request, serving in order,
    /// on a virtual clock that only moves when the generator waits.
    struct FakeLink {
        now: Duration,
        service: Duration,
        /// Extra service time for chosen requests.
        stall: Option<(u64, Duration)>,
        free_at: Duration,
        replies: VecDeque<(Duration, u64)>,
        /// Cost of one send on the generator's own clock.
        send_cost: Duration,
    }

    impl FakeLink {
        fn new(service_us: u64) -> FakeLink {
            FakeLink {
                now: Duration::ZERO,
                service: Duration::from_micros(service_us),
                stall: None,
                free_at: Duration::ZERO,
                replies: VecDeque::new(),
                send_cost: Duration::ZERO,
            }
        }
    }

    impl Link for FakeLink {
        fn now(&mut self) -> Duration {
            self.now
        }

        fn send(&mut self, seq: u64) -> io::Result<()> {
            self.now += self.send_cost;
            let mut service = self.service;
            if let Some((at, extra)) = self.stall {
                if at == seq {
                    service += extra;
                }
            }
            self.free_at = self.free_at.max(self.now) + service;
            self.replies.push_back((self.free_at, seq));
            Ok(())
        }

        fn recv_until(&mut self, deadline: Duration) -> io::Result<Option<(Vec<u8>, Duration)>> {
            match self.replies.front() {
                Some(&(at, seq)) if at <= deadline => {
                    self.replies.pop_front();
                    self.now = self.now.max(at);
                    Ok(Some((seq.to_string().into_bytes(), at)))
                }
                _ => {
                    self.now = self.now.max(deadline);
                    Ok(None)
                }
            }
        }
    }

    fn echo_check(seq: u64, reply: &[u8], _: usize, _: usize) -> Res<bool> {
        (reply == seq.to_string().as_bytes())
            .then_some(true)
            .ok_or_else(|| "out of order".to_string())
    }

    fn plan(rate: f64, ms: u64) -> OpenLoop {
        OpenLoop {
            rate,
            duration: Duration::from_millis(ms),
            events: Vec::new(),
        }
    }

    #[test]
    fn open_loop_measures_service_time_when_idle() {
        let mut link = FakeLink::new(300);
        let mut tally = Tally::default();
        let stats = open_loop(
            &mut link,
            &plan(1000.0, 100),
            0,
            &mut tally,
            &mut |_| Ok(()),
            &mut echo_check,
        )
        .expect("runs");
        let mut lat = stats.latency;
        assert_eq!(lat.len(), 100);
        assert_eq!((tally.attempted, tally.failed), (100, 0));
        assert!((lat.median() - 0.3).abs() < 1e-4);
        assert!((lat.percentile(100.0) - 0.3).abs() < 1e-4);
        let mut late = stats.late;
        assert_eq!(late.percentile(100.0), 0.0);
        assert_eq!(stats.backlog_max, 1);
    }

    #[test]
    fn a_stall_delays_later_requests_from_their_due_time() {
        // 1 ms spacing, 0.2 ms service; request 10 takes 5 ms more, so
        // requests 11.. queue behind it on the connection.
        let mut link = FakeLink::new(200);
        link.stall = Some((10, Duration::from_millis(5)));
        let mut tally = Tally::default();
        let stats = open_loop(
            &mut link,
            &plan(1000.0, 50),
            0,
            &mut tally,
            &mut |_| Ok(()),
            &mut echo_check,
        )
        .expect("runs");
        let mut lat = stats.latency;
        // Request 10 is due at 10 ms and done at 15.2 ms; request k in
        // 11..=16 finishes at 15.2 + 0.2·(k-10) ms but was due at k ms,
        // so the six after it take 4.4, 3.6, ... 0.4 ms.
        assert!((lat.percentile(100.0) - 5.2).abs() < 1e-4);
        assert!((lat.percentile(98.0) - 4.4).abs() < 1e-4);
        assert!((lat.percentile(88.0) - 0.4).abs() < 1e-4);
        assert!((lat.median() - 0.2).abs() < 1e-4);
        assert_eq!(stats.backlog_max, 6);
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn lateness_is_the_send_delay_past_the_due_time() {
        // Each send costs the generator 1.5 ms against 1 ms spacing, so
        // request k goes out 0.5·k ms late and its latency counts it.
        let mut link = FakeLink::new(100);
        link.send_cost = Duration::from_micros(1500);
        let mut tally = Tally::default();
        let stats = open_loop(
            &mut link,
            &plan(1000.0, 10),
            0,
            &mut tally,
            &mut |_| Ok(()),
            &mut echo_check,
        )
        .expect("runs");
        let mut late = stats.late;
        assert_eq!(late.len(), 10);
        assert!((late.percentile(100.0) - 4.5).abs() < 1e-4);
        let mut lat = stats.latency;
        assert!(lat.percentile(100.0) > 4.5);
    }

    #[test]
    fn events_fire_on_schedule_and_set_the_stage_range() {
        let mut link = FakeLink::new(100);
        let mut fired = Vec::new();
        let mut stages = Vec::new();
        let mut tally = Tally::default();
        let mut p = plan(1000.0, 20);
        p.events = vec![Duration::from_millis(5), Duration::from_millis(15)];
        open_loop(
            &mut link,
            &p,
            0,
            &mut tally,
            &mut |k| {
                fired.push(k);
                Ok(())
            },
            &mut |seq, reply, first, last| {
                stages.push((seq, first, last));
                echo_check(seq, reply, first, last)
            },
        )
        .expect("runs");
        assert_eq!(fired, vec![0, 1]);
        assert_eq!(stages[4], (4, 0, 0));
        assert_eq!(stages[5], (5, 1, 1));
        assert_eq!(stages[19], (19, 2, 2));
    }

    #[test]
    fn saturation_counts_completions_in_the_window() {
        // 0.5 ms per request, 8 outstanding, 100 ms window → 200 done.
        let mut link = FakeLink::new(500);
        let mut tally = Tally::default();
        let (done, qps) = saturate(
            &mut link,
            8,
            Duration::from_millis(100),
            0,
            0,
            &mut tally,
            &mut echo_check,
        )
        .expect("runs");
        assert_eq!(done, 200);
        assert!((qps - 2000.0).abs() < 1e-6, "{qps}");
        // The 7 still outstanding at the window's end are drained too.
        assert_eq!(tally.attempted, 207);
        assert_eq!(tally.failed, 0);
    }

    #[test]
    fn a_silent_server_fails_every_outstanding_request() {
        let mut link = FakeLink::new(100);
        link.stall = Some((3, DEADLINE * 2));
        let mut tally = Tally::default();
        let stats = open_loop(
            &mut link,
            &plan(1000.0, 10),
            0,
            &mut tally,
            &mut |_| Ok(()),
            &mut echo_check,
        )
        .expect("runs");
        assert_eq!(tally.attempted, 10);
        assert_eq!(tally.failed, 7);
        let mut lat = stats.latency;
        assert_eq!(lat.percentile(50.0), f64::INFINITY);
    }
}
