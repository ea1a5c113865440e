//! The benchmark's open-loop driver: one connection, one sender (the
//! calling thread) and one receiver thread.
//!
//! The sender writes each request at its scheduled instant whether or not
//! earlier answers are back, and notes how late it actually went out.
//! The receiver only stamps and stores each response line; parsing and
//! checking happen after the run, so they never delay a read. Latency is
//! taken from the scheduled instant, so a stall is charged to every
//! request queued behind it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use amnesiac_serve::ClientConfig;

/// How long the receiver waits for a response before it counts the rest
/// as missing.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Scheduled send instant, microseconds after the run's epoch.
    pub offset_us: u64,
    /// The request line, newline included.
    pub line: String,
}

/// One response line and when it arrived.
#[derive(Debug, Clone)]
pub struct Received {
    /// The raw line.
    pub line: String,
    /// Arrival, microseconds after the run's epoch.
    pub recv_us: u64,
}

/// What a drive saw.
pub struct Drive {
    /// The run's epoch (offset 0).
    pub epoch: Instant,
    /// When each request actually went out, microseconds after the epoch
    /// (`None`: never written).
    pub sent_us: Vec<Option<u64>>,
    /// Responses in arrival order.
    pub received: Vec<Received>,
    /// Epoch to last response, in seconds.
    pub makespan_s: f64,
}

/// Sends `plan` over one fresh connection to `addr`, open loop.
///
/// # Errors
///
/// Fails only when the connection cannot be opened; losses during the
/// run show up as missing responses.
pub fn drive(addr: SocketAddr, plan: &[Planned]) -> io::Result<Drive> {
    let stream = ClientConfig::new()
        .attempts(3)
        .backoff(Duration::from_millis(10), Duration::from_millis(100))
        .connect_stream(addr)?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let epoch = Instant::now();
    let mut sent_us = vec![None; plan.len()];
    let received = thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(reader, plan.len(), epoch));
        for (request, sent) in plan.iter().zip(sent_us.iter_mut()) {
            let due = epoch + Duration::from_micros(request.offset_us);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            *sent = Some(micros_since(epoch));
            if writer.write_all(request.line.as_bytes()).is_err() {
                *sent = None;
                break;
            }
        }
        receiver.join().unwrap_or_default()
    });
    let makespan_s = received
        .last()
        .map_or(0.0, |r: &Received| r.recv_us as f64 / 1e6);
    Ok(Drive {
        epoch,
        sent_us,
        received,
        makespan_s,
    })
}

fn receive(mut reader: BufReader<TcpStream>, expected: usize, epoch: Instant) -> Vec<Received> {
    let mut out = Vec::with_capacity(expected);
    while out.len() < expected {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => out.push(Received {
                line,
                recv_us: micros_since(epoch),
            }),
        }
    }
    out
}

fn micros_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}
