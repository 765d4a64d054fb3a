//! Load generators: an open-loop scheduler that times each request from
//! when it was due, and closed-loop clients that send the next request
//! when the previous one answers. Both use at most
//! [`max_connections`] threads, one connection each.

use crate::client::{Client, Reply};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-generating threads (and connections): what the machine reports,
/// capped at two.
pub fn max_connections() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// One timed request.
#[derive(Debug)]
pub struct Record {
    /// Request index in its stream.
    pub k: u64,
    /// Open loop: from the due time to the answer. Closed loop: from the
    /// send to the answer.
    pub latency_ms: f64,
    /// Open loop: how late the request was sent. Closed loop: 0.
    pub lateness_ms: f64,
    /// When the answer arrived, seconds since the phase started.
    pub done_s: f64,
    /// The answer, or the transport error.
    pub reply: Result<Reply, String>,
}

/// Everything one phase sent, in request-index order.
#[derive(Debug)]
pub struct PhaseRun {
    /// The requests.
    pub records: Vec<Record>,
    /// From the phase start to the last answer, seconds.
    pub elapsed_s: f64,
}

fn connect_all(addr: SocketAddr, conns: usize) -> Result<Vec<Client>, String> {
    (0..conns)
        .map(|_| {
            let mut c = Client::new(addr);
            c.connect().map_err(|e| format!("connect {addr}: {e}"))?;
            Ok(c)
        })
        .collect()
}

fn finish(records: Mutex<Vec<Record>>, start: Instant) -> PhaseRun {
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut records = records.into_inner().expect("record store poisoned");
    records.sort_by_key(|r| r.k);
    PhaseRun { records, elapsed_s }
}

/// Sends request `k` due at `start + (k - first) / rate` for `duration`,
/// over `conns` connections. A request whose connection is still busy at
/// its due time is sent late; its latency still counts from the due
/// time, so a stall is charged to every request queued behind it.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    duration: Duration,
    first: u64,
    tracer: &Tracer,
    span: &'static str,
    make: &(dyn Fn(u64) -> Vec<u8> + Sync),
) -> Result<PhaseRun, String> {
    let clients = connect_all(addr, conns)?;
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    let interval = 1.0 / rate;
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, records) = (&next, &records);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let n = next.fetch_add(1, Ordering::Relaxed);
                    let due_s = n as f64 * interval;
                    if due_s >= duration.as_secs_f64() {
                        break;
                    }
                    let k = first + n;
                    let raw = make(k);
                    let due = start + Duration::from_secs_f64(due_s);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let open = tracer.open(span, tracer.new_trace(), None);
                    let reply = client.send(&raw).map_err(|e| e.to_string());
                    tracer.close(open);
                    let done = Instant::now();
                    local.push(Record {
                        k,
                        latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                        lateness_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                        done_s: (done - start).as_secs_f64(),
                        reply,
                    });
                }
                records
                    .lock()
                    .expect("record store poisoned")
                    .append(&mut local);
            });
        }
    });
    Ok(finish(records, start))
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this long.
    Elapsed(Duration),
    /// After this many requests.
    Count(u64),
}

/// `conns` clients each sending request `first + n` (shared counter `n`)
/// as soon as their previous one answered.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    until: Until,
    first: u64,
    tracer: &Tracer,
    span: &'static str,
    make: &(dyn Fn(u64) -> Vec<u8> + Sync),
) -> Result<PhaseRun, String> {
    let clients = connect_all(addr, conns)?;
    let next = AtomicU64::new(0);
    let records = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for mut client in clients {
            let (next, records) = (&next, &records);
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let n = match until {
                        Until::Elapsed(d) if start.elapsed() >= d => break,
                        Until::Elapsed(_) => next.fetch_add(1, Ordering::Relaxed),
                        Until::Count(c) => {
                            let n = next.fetch_add(1, Ordering::Relaxed);
                            if n >= c {
                                break;
                            }
                            n
                        }
                    };
                    let k = first + n;
                    let raw = make(k);
                    let sent = Instant::now();
                    let open = tracer.open(span, tracer.new_trace(), None);
                    let reply = client.send(&raw).map_err(|e| e.to_string());
                    tracer.close(open);
                    let done = Instant::now();
                    local.push(Record {
                        k,
                        latency_ms: (done - sent).as_secs_f64() * 1e3,
                        lateness_ms: 0.0,
                        done_s: (done - start).as_secs_f64(),
                        reply,
                    });
                }
                records
                    .lock()
                    .expect("record store poisoned")
                    .append(&mut local);
            });
        }
    });
    Ok(finish(records, start))
}
