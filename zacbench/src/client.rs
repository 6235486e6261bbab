//! The closed-loop client: one `zac-serve` process over stdin/stdout.
//!
//! The client uses two threads. The calling thread reads response lines;
//! a writer thread sends request lines. Each of the `clients` in-flight
//! slots is a token: reading a request's terminal line returns its token,
//! and the writer sends the next request only when it holds one. While
//! timing, the reader looks only at the fixed `{"type":…,"protocol":…,
//! "id":…` prefix of each line and appends the line to a capture file for
//! the post-run check.

use crate::stats;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::{Duration, Instant};

/// A running `zac-serve` process. Dropping it kills and reaps the process
/// if it is still running.
pub struct Server {
    child: Child,
    pid: String,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

/// What a response line's prefix says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineId {
    /// A line of request `r<index>`.
    Request(usize),
    /// A line of the readiness probe.
    Ready,
    /// No id, or an id this client never sent.
    Other,
}

/// Reads `(is_terminal, id)` from the fixed prefix every response line
/// starts with: `{"type":"<type>","protocol":<n>,"id":<id>`.
pub fn scan_prefix(line: &[u8]) -> Option<(bool, LineId)> {
    let rest = line.strip_prefix(b"{\"type\":\"")?;
    let type_end = rest.iter().position(|&b| b == b'"')?;
    let terminal = &rest[..type_end] != b"result";
    let rest = &rest[type_end..];
    let window = &rest[..rest.len().min(48)];
    let at = window.windows(6).position(|w| w == b"\"id\":\"")?;
    let id = &rest[at + 6..];
    let id = &id[..id.iter().position(|&b| b == b'"')?];
    let parsed = if id == b"ready" {
        LineId::Ready
    } else {
        id.strip_prefix(b"r")
            .and_then(|digits| std::str::from_utf8(digits).ok()?.parse().ok())
            .map_or(LineId::Other, LineId::Request)
    };
    Some((terminal, parsed))
}

/// How often a timed drive samples server CPU and machine steal.
pub const MARK_EVERY: Duration = Duration::from_millis(100);

/// One sample of the machine during a timed drive.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// When it was taken.
    pub at: Instant,
    /// Server user+sys CPU seconds since the drive started.
    pub server_cpu_s: f64,
    /// Machine steal seconds since the drive started.
    pub steal_s: f64,
}

/// One drive of the closed loop.
pub struct Drive {
    /// Send instant per request index.
    pub sent: Vec<Instant>,
    /// Terminal-line instant per request index (`None`: never answered).
    pub done: Vec<Option<Instant>>,
    /// First send.
    pub start: Instant,
    /// When sending stopped (the end of the timed window).
    pub end: Instant,
    /// Server user+sys CPU seconds between `start` and `end`.
    pub server_cpu_s: f64,
    /// Samples at `start`, every [`MARK_EVERY`] of a timed drive, and
    /// at `end`.
    pub marks: Vec<Mark>,
    /// This process's user+sys CPU seconds between `start` and `end`.
    pub client_cpu_s: f64,
    /// Server `VmHWM` in MiB once `rss_after` requests were answered, or
    /// at `end`.
    pub peak_rss_mb: f64,
}

impl Drive {
    /// `(send, done)` of every request answered within the window.
    pub fn in_window(&self) -> impl Iterator<Item = (usize, Duration)> + '_ {
        self.done.iter().enumerate().filter_map(|(i, done)| {
            let done = (*done)?;
            (done <= self.end).then(|| (i, done - self.sent[i]))
        })
    }
}

/// How long to drive: a fixed list of lines, or a generator until a
/// deadline (after which stdin closes and the server drains and exits).
pub enum Plan<'a> {
    /// Send exactly these lines (ids `r0..rN`), wait for every terminal.
    Fixed(&'a [String]),
    /// Send `line(i)` for i = 0, 1, … until `duration` has passed.
    Timed {
        /// Line generator for request `i`.
        line: &'a (dyn Fn(usize) -> String + Sync),
        /// Length of the timed window.
        duration: Duration,
        /// Read the server's peak RSS once this many requests are
        /// answered (at the end of the window if fewer are).
        rss_after: usize,
    },
}

impl Server {
    /// Spawns `path` with exactly `env` as its environment and waits for
    /// the readiness probe's answer. Returns the server and the time from
    /// spawn to that answer.
    ///
    /// # Errors
    ///
    /// Spawn or pipe failures, or a server that exits before answering.
    pub fn start(path: &Path, env: &[(String, String)]) -> io::Result<(Self, Duration)> {
        let started = Instant::now();
        let mut child = Command::new(path)
            .env_clear()
            .envs(env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take().ok_or_else(|| io::Error::other("no stdin pipe"))?;
        let stdout = child.stdout.take().ok_or_else(|| io::Error::other("no stdout pipe"))?;
        let mut server = Self {
            pid: child.id().to_string(),
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        };
        server.send(crate::workload::readiness_line())?;
        let mut line = Vec::new();
        loop {
            line.clear();
            if server.stdout.read_until(b'\n', &mut line)? == 0 {
                return Err(io::Error::other("server exited before answering readiness"));
            }
            if scan_prefix(&line) == Some((true, LineId::Ready)) {
                return Ok((server, started.elapsed()));
            }
        }
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().ok_or_else(|| io::Error::other("stdin closed"))?;
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// Closes stdin, reads stdout to EOF and reaps the process.
    ///
    /// # Errors
    ///
    /// Read failures, or a non-zero exit status.
    pub fn shutdown(mut self) -> io::Result<()> {
        drop(self.stdin.take());
        io::copy(&mut self.stdout, &mut io::sink())?;
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("zac-serve exited with {status}")))
        }
    }

    /// Runs `plan` with `clients` requests in flight, appending every
    /// response line, in arrival order, to the file `capture`.
    ///
    /// # Errors
    ///
    /// Pipe or capture-file failures.
    pub fn drive(&mut self, plan: Plan<'_>, clients: usize, capture: &Path) -> io::Result<Drive> {
        let mut capture = io::BufWriter::with_capacity(1 << 20, std::fs::File::create(capture)?);
        let mut stdin = self.stdin.take().ok_or_else(|| io::Error::other("stdin closed"))?;
        let pid = self.pid.clone();
        let (token_tx, token_rx) = channel::<()>();
        for _ in 0..clients {
            token_tx.send(()).map_err(|_| io::Error::other("token channel closed"))?;
        }
        let (expected, rss_after) = match plan {
            Plan::Fixed(lines) => (Some(lines.len()), None),
            Plan::Timed { rss_after, .. } => (None, Some(rss_after)),
        };
        let mut peak_rss_mb = None;
        let mut done: Vec<Option<Instant>> = Vec::new();
        let mut answered = 0usize;

        let writer = std::thread::scope(|scope| -> io::Result<Writer> {
            let writer = scope.spawn(move || {
                write_loop(&mut stdin, &plan, &token_rx, &pid).map(|mut out| {
                    // A timed drive closes stdin so the server drains
                    // in-flight work and exits; a fixed drive hands the
                    // pipe back for the next phase.
                    out.stdin = expected.map(|_| stdin);
                    out
                })
            });
            let mut buf = Vec::new();
            while expected.is_none_or(|n| answered < n) {
                buf.clear();
                if self.stdout.read_until(b'\n', &mut buf)? == 0 {
                    break;
                }
                let at = Instant::now();
                if buf.last() != Some(&b'\n') {
                    buf.push(b'\n');
                }
                if let Some((true, LineId::Request(i))) = scan_prefix(&buf) {
                    if done.len() <= i {
                        done.resize(i + 1, None);
                    }
                    done[i] = Some(at);
                    answered += 1;
                    if rss_after == Some(answered) {
                        peak_rss_mb = stats::peak_rss_mb(&self.pid);
                    }
                    // The writer may have stopped; a closed channel is fine.
                    token_tx.send(()).ok();
                }
                capture.write_all(&buf)?;
            }
            drop(token_tx);
            writer.join().map_err(|_| io::Error::other("writer thread panicked"))?
        })?;
        capture.flush()?;
        self.stdin = writer.stdin;
        done.resize(writer.sent.len(), None);
        Ok(Drive {
            sent: writer.sent,
            done,
            start: writer.start,
            end: writer.end,
            server_cpu_s: writer.server_cpu_s,
            marks: writer.marks,
            client_cpu_s: writer.client_cpu_s,
            peak_rss_mb: peak_rss_mb.unwrap_or(writer.peak_rss_mb),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

struct Writer {
    sent: Vec<Instant>,
    start: Instant,
    end: Instant,
    server_cpu_s: f64,
    marks: Vec<Mark>,
    client_cpu_s: f64,
    peak_rss_mb: f64,
    stdin: Option<ChildStdin>,
}

/// Sends requests as tokens arrive. The next line is generated right
/// after each send, while the slot's request is in flight, so generation
/// stays off the request path.
fn write_loop(
    stdin: &mut ChildStdin,
    plan: &Plan<'_>,
    tokens: &std::sync::mpsc::Receiver<()>,
    pid: &str,
) -> io::Result<Writer> {
    let generate = |i: usize| -> Option<String> {
        match plan {
            Plan::Fixed(lines) => lines.get(i).cloned(),
            Plan::Timed { line, .. } => Some(line(i)),
        }
    };
    let server_cpu = || stats::cpu_seconds(pid).unwrap_or(0.0);
    let server_cpu0 = server_cpu();
    let steal0 = stats::steal_seconds();
    let mark = |at: Instant| Mark {
        at,
        server_cpu_s: server_cpu() - server_cpu0,
        steal_s: stats::steal_seconds() - steal0,
    };
    let client_cpu0 = stats::cpu_seconds("self").unwrap_or(0.0);
    let mut next = generate(0);
    let start = Instant::now();
    let (deadline, slice) = match plan {
        Plan::Timed { duration, .. } => (Some(start + *duration), MARK_EVERY),
        Plan::Fixed(_) => (None, Duration::MAX),
    };
    let mut marks = vec![Mark { at: start, server_cpu_s: 0.0, steal_s: 0.0 }];
    let mut boundary = start.checked_add(slice);
    let mut sent = Vec::new();
    while let Some(line) = next.take() {
        let token = match deadline {
            Some(deadline) => loop {
                let now = Instant::now();
                if let Some(at) = boundary.filter(|at| now >= *at && *at < deadline) {
                    marks.push(mark(now));
                    boundary = at.checked_add(slice);
                }
                if now >= deadline {
                    break Err(RecvTimeoutError::Timeout);
                }
                let wake = boundary.map_or(deadline, |at| at.min(deadline));
                match tokens.recv_timeout(wake.saturating_duration_since(now)) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    other => break other,
                }
            },
            None => tokens.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        if token.is_err() || deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        sent.push(Instant::now());
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        next = generate(sent.len());
    }
    let end = Instant::now();
    let server_cpu_s = server_cpu() - server_cpu0;
    let client_cpu_s = stats::cpu_seconds("self").unwrap_or(0.0) - client_cpu0;
    let peak_rss_mb = stats::peak_rss_mb(pid).unwrap_or(0.0);
    marks.push(mark(end));
    Ok(Writer { sent, start, end, server_cpu_s, marks, client_cpu_s, peak_rss_mb, stdin: None })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_scan_reads_type_and_id() {
        let result = br#"{"type":"result","protocol":1,"id":"r42","entry":0}"#;
        assert_eq!(scan_prefix(result), Some((false, LineId::Request(42))));
        let done = br#"{"type":"done","protocol":1,"id":"r7","ok":1}"#;
        assert_eq!(scan_prefix(done), Some((true, LineId::Request(7))));
        let ready = br#"{"type":"done","protocol":1,"id":"ready","ok":0}"#;
        assert_eq!(scan_prefix(ready), Some((true, LineId::Ready)));
        let anon = br#"{"type":"error","protocol":1,"id":null,"reason":"x"}"#;
        assert_eq!(scan_prefix(anon), None);
        assert_eq!(scan_prefix(b"garbage"), None);
    }
}
