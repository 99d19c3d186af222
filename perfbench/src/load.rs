//! The load generator: one thread, up to `nproc` nonblocking connections.
//!
//! Open loop: request `i` is due at `start + i / rate`, whatever the
//! daemon does, and its latency runs from that due time to the reply.
//! Replies are matched by `id`, never by arrival order, so a daemon that
//! answers out of order is measured correctly.

use minobs_svc::wire;
use serde_json::Value;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One connection with its unsent bytes and unparsed input.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    input: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            input: Vec::new(),
        })
    }

    /// Pushes queued bytes without blocking.
    fn flush(&mut self) -> io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    /// Reads what is available and returns every complete reply frame,
    /// and whether the peer has closed the connection.
    fn poll(&mut self, chunk: &mut [u8]) -> io::Result<(Vec<Value>, bool)> {
        let mut closed = false;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => self.input.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let mut replies = Vec::new();
        let mut at = 0;
        while let Some((value, used)) = wire::try_parse_frame(&self.input[at..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            replies.push(value);
            at += used;
        }
        self.input.drain(..at);
        Ok((replies, closed))
    }
}

/// A request frame ready to send.
pub struct Frame {
    pub id: u64,
    pub bytes: Vec<u8>,
}

impl Frame {
    pub fn new(id: u64, envelope: &Value) -> Frame {
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, envelope).expect("writing to a Vec cannot fail");
        Frame { id, bytes }
    }
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Shot {
    /// When it was due, from the phase start.
    pub due_ns: u64,
    /// How late the generator handed it to the socket.
    pub late_ns: u64,
    /// Due time to reply; `None` when no reply came.
    pub latency_ns: Option<u64>,
    pub reply: Option<Value>,
    /// Not sent: its connection already had the in-flight cap outstanding.
    pub dropped: bool,
}

/// Sends `frames` open loop at `rate` per second, spread round-robin
/// over `conns`, then waits up to `drain` for the stragglers. A request
/// whose connection already has `cap` requests outstanding is dropped
/// unsent, so overload cannot grow the daemon's queue without bound.
pub fn open_loop(
    conns: &mut [Conn],
    frames: &[Frame],
    rate: f64,
    cap: usize,
    drain: Duration,
) -> Vec<Shot> {
    let index: HashMap<u64, usize> = frames.iter().enumerate().map(|(i, f)| (f.id, i)).collect();
    let gap_ns = 1e9 / rate;
    let mut shots: Vec<Shot> = (0..frames.len())
        .map(|i| Shot {
            due_ns: (i as f64 * gap_ns) as u64,
            ..Shot::default()
        })
        .collect();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0;
    let mut answered = 0;
    let mut outstanding = vec![0usize; conns.len()];
    let mut broken = vec![false; conns.len()];
    let start = Instant::now();
    let last_due = shots.last().map_or(0, |s| s.due_ns);
    let deadline = last_due + drain.as_nanos() as u64;
    while answered < frames.len() {
        let now = start.elapsed().as_nanos() as u64;
        if now > deadline || broken.iter().all(|b| *b) {
            break;
        }
        while next < frames.len() && shots[next].due_ns <= now {
            let c = next % conns.len();
            shots[next].late_ns = now - shots[next].due_ns;
            if outstanding[c] < cap {
                conns[c].out.extend_from_slice(&frames[next].bytes);
                outstanding[c] += 1;
            } else {
                shots[next].dropped = true;
                answered += 1;
            }
            next += 1;
        }
        for (c, conn) in conns.iter_mut().enumerate() {
            if broken[c] {
                continue;
            }
            let replies = conn.flush().and_then(|()| conn.poll(&mut chunk));
            let done = start.elapsed().as_nanos() as u64;
            match replies {
                Ok((replies, closed)) => {
                    broken[c] = closed;
                    for reply in replies {
                        let Some(&i) = reply
                            .get("id")
                            .and_then(Value::as_u64)
                            .and_then(|id| index.get(&id))
                        else {
                            continue;
                        };
                        if shots[i].reply.is_none() && !shots[i].dropped {
                            outstanding[c] -= 1;
                            shots[i].latency_ns = Some(done.saturating_sub(shots[i].due_ns));
                            shots[i].reply = Some(reply);
                            answered += 1;
                        }
                    }
                }
                Err(_) => broken[c] = true,
            }
        }
        std::hint::spin_loop();
    }
    shots
}

/// Sends `frames` one at a time on `conn`, each after the previous reply:
/// the closed loop, where latency is the round-trip time. After a request
/// goes unanswered for `timeout`, the rest are not sent and count as
/// unanswered, so a wedged daemon cannot stall the run.
pub fn closed_loop(conn: &mut Conn, frames: &[Frame], timeout: Duration) -> Vec<Shot> {
    let mut shots = Vec::with_capacity(frames.len());
    for frame in frames {
        if shots.last().is_some_and(|s: &Shot| s.reply.is_none()) {
            shots.push(Shot::default());
            continue;
        }
        shots.push(
            open_loop(
                std::slice::from_mut(conn),
                std::slice::from_ref(frame),
                1.0,
                1,
                timeout,
            )
            .remove(0),
        );
    }
    shots
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A fake daemon that reads `n` frames, then answers them in reverse
    /// order, echoing each id in the result.
    fn reverse_server(n: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut ids = Vec::new();
            for _ in 0..n {
                let frame = wire::read_frame(&mut stream).unwrap().unwrap();
                ids.push(frame.get("id").and_then(Value::as_u64).unwrap());
            }
            for id in ids.into_iter().rev() {
                let mut result = serde_json::Map::new();
                result.insert("echo", Value::from(id));
                let result = Value::Object(result);
                wire::write_frame(&mut stream, &wire::ok_response(id, result)).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn replies_in_reverse_order_are_matched_by_id() {
        let n = 50;
        let (addr, server) = reverse_server(n);
        let mut conns = vec![Conn::connect(addr).unwrap()];
        let frames: Vec<Frame> = (0..n as u64)
            .map(|i| Frame::new(1000 + i, &wire::request(1000 + i, "health", Value::Null)))
            .collect();
        let shots = open_loop(
            &mut conns,
            &frames,
            20_000.0,
            usize::MAX,
            Duration::from_secs(5),
        );
        server.join().unwrap();
        for (frame, shot) in frames.iter().zip(&shots) {
            let reply = shot.reply.as_ref().expect("every request answered");
            let echo = reply
                .get("result")
                .and_then(|r| r.get("echo"))
                .and_then(Value::as_u64);
            assert_eq!(echo, Some(frame.id));
            assert!(shot.latency_ns.is_some());
        }
        // The first request was answered last, so it waited longest.
        let first = shots[0].latency_ns.unwrap();
        let last = shots[n - 1].latency_ns.unwrap();
        assert!(first >= last, "first {first} ns, last {last} ns");
    }
}
