//! The one connection server behind every `icd` front end: a
//! [`FrontEnd`] frames and answers requests, the [`Server`] owns the
//! rest. See the crate docs for its bounds. Stopping does not poll: a
//! self-connect wakes the blocked `accept`, whose thread then shuts down
//! the reads of every live stream, so each handler returns at once and
//! its client gets the `draining` farewell.

use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections served at once. The next one is refused and counted.
pub const MAX_CONNECTIONS: usize = 64;

/// How long a failed `accept` (out of descriptors, say) waits for a
/// handler to leave before it tries again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

const LIVE_HELD: &str = "the live table is never held by a panicking thread";

/// The server's bounds on one connection.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Cap on one request (an HTTP head, a socket line) in bytes.
    pub max_request_bytes: usize,
    /// The next request must arrive whole within this window.
    pub idle_timeout: Duration,
    /// Malformed requests one connection may send before it is dropped.
    pub max_bad_lines: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            max_request_bytes: 8192,
            idle_timeout: Duration::from_secs(5),
            max_bad_lines: 100,
        }
    }
}

/// Why a connection ended. Each reason is one `closed.<label>` counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClose {
    /// The client hung up between requests.
    Eof,
    /// The client hung up mid-request; the fragment is dropped.
    Partial,
    /// A one-shot request was answered.
    Served,
    /// A one-shot request was malformed and answered so.
    BadRequest,
    /// Too many malformed requests.
    Kicked,
    /// A request outgrew the byte cap.
    TooLarge,
    /// No whole request within the idle timeout.
    IdleTimeout,
    /// The server is stopping.
    Draining,
    /// The connection cap was reached.
    Refused,
    /// A transport error on this connection only.
    Error,
}

impl ConnClose {
    /// The counter label.
    pub fn label(self) -> &'static str {
        match self {
            ConnClose::Eof => "eof",
            ConnClose::Partial => "partial",
            ConnClose::Served => "served",
            ConnClose::BadRequest => "bad-request",
            ConnClose::Kicked => "kicked",
            ConnClose::TooLarge => "too-large",
            ConnClose::IdleTimeout => "idle-timeout",
            ConnClose::Draining => "draining",
            ConnClose::Refused => "refused",
            ConnClose::Error => "error",
        }
    }
}

/// What a front end does with one request.
pub enum Reply {
    /// Send this and read the next request.
    Next(String),
    /// Send this, count a malformed request, and read the next one.
    Malformed(String),
    /// Send this and close the connection.
    Last(String, ConnClose),
    /// Stop the server; this client gets the `draining` farewell.
    Stop,
}

/// A protocol served by [`Server`].
pub trait FrontEnd: Send + Sync + 'static {
    /// The length of the first whole request in `buf`, if there is one.
    fn request_len(&self, buf: &[u8]) -> Option<usize>;
    /// Answers one whole request.
    fn answer(&self, request: &[u8]) -> Reply;
    /// What a client is told when the server ends its connection
    /// (`refused`, `too-large`, `idle-timeout`, `kicked`, `draining`).
    fn farewell(&self, close: ConnClose) -> String;
    /// Counts `opened`, `accept_errors`, `closed` or `closed.<label>`.
    fn count(&self, event: &str);
}

/// A bound listener the server accepts on.
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A unix-socket listener.
    Unix(UnixListener),
}

enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

macro_rules! each {
    ($stream:expr, $s:ident => $e:expr) => {
        match $stream {
            Stream::Tcp($s) => $e,
            Stream::Unix($s) => $e,
        }
    };
}

impl Stream {
    fn say(&self, text: &str) -> io::Result<()> {
        each!(self, s => (&mut &*s).write_all(text.as_bytes()))
    }
}

/// The listener's address for a self-connect, and a handle on the
/// listening socket itself.
enum Wake {
    Tcp(std::net::SocketAddr, TcpStream),
    Unix(std::os::unix::net::SocketAddr, UnixStream),
}

/// The next connection id, and the live connections by id.
type Live = (u64, Vec<(u64, Arc<Stream>)>);

struct Shared {
    front: Arc<dyn FrontEnd>,
    options: ServerOptions,
    stopping: AtomicBool,
    /// Taken by the first stop, which closes the handle.
    wake: Mutex<Option<Wake>>,
    /// Kept to shut the live connections' reads down on stop.
    live: Mutex<Live>,
    /// Signalled whenever a handler leaves.
    left: Condvar,
}

/// The running server. Dropping it stops it and waits for every
/// handler.
pub struct Server {
    shared: Arc<Shared>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Starts serving `front` on `listener`.
    ///
    /// # Errors
    ///
    /// When the listener's address cannot be read or its descriptor
    /// cannot be duplicated.
    pub fn start(
        listener: Listener,
        front: Arc<dyn FrontEnd>,
        options: ServerOptions,
    ) -> io::Result<Server> {
        // A connect to `0.0.0.0` or `::` reaches the local host.
        let wake = match &listener {
            Listener::Tcp(l) => Wake::Tcp(l.local_addr()?, OwnedFd::from(l.try_clone()?).into()),
            Listener::Unix(l) => Wake::Unix(l.local_addr()?, OwnedFd::from(l.try_clone()?).into()),
        };
        let shared = Arc::new(Shared {
            front,
            options,
            stopping: AtomicBool::new(false),
            wake: Mutex::new(Some(wake)),
            live: Mutex::new((0, Vec::new())),
            left: Condvar::new(),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.accept_loop(listener))
        };
        Ok(Server {
            shared,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// Stops accepting and tells live clients the server is draining.
    pub fn stop(&self) {
        self.shared.stop();
    }

    /// Blocks until the server has stopped and every handler has left.
    pub fn wait(&self) {
        // Nothing panics while holding `accept`, and a drop must not panic.
        if let Some(accept) = self.accept.lock().ok().and_then(|mut a| a.take()) {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        self.wait();
    }
}

impl Shared {
    fn stop(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // The self-connect only wakes `accept`; it is never served. When
        // it cannot reach the listener (its socket file was removed),
        // shutting the listening socket down fails the `accept` on Linux.
        let _ = match self.wake.lock().ok().and_then(|mut w| w.take()) {
            Some(Wake::Tcp(addr, l)) => TcpStream::connect(addr)
                .map(drop)
                .or_else(|_| l.shutdown(Shutdown::Read)),
            Some(Wake::Unix(addr, l)) => UnixStream::connect_addr(&addr)
                .map(drop)
                .or_else(|_| l.shutdown(Shutdown::Read)),
            None => Ok(()),
        };
    }

    fn accept_loop(self: Arc<Self>, listener: Listener) {
        loop {
            let accepted = match &listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
                Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            };
            if self.stopping.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok(stream) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.front.count("accept_errors");
                    let _ = self.left.wait_timeout(self.live(), ACCEPT_BACKOFF);
                }
            }
        }
        drop(listener);
        let mut live = self.live();
        for (_, stream) in &live.1 {
            let _ = each!(&**stream, s => s.shutdown(Shutdown::Read));
        }
        while !live.1.is_empty() {
            live = self.left.wait(live).expect(LIVE_HELD);
        }
    }

    fn admit(self: &Arc<Self>, stream: Stream) {
        self.front.count("opened");
        let timeout = self.options.idle_timeout.max(Duration::from_millis(1));
        if each!(&stream, s => s.set_write_timeout(Some(timeout))).is_err() {
            return self.close(&stream, ConnClose::Error);
        }
        let stream = Arc::new(stream);
        let mut live = self.live();
        if live.1.len() >= MAX_CONNECTIONS {
            drop(live);
            return self.close(&stream, ConnClose::Refused);
        }
        let id = live.0;
        live.0 += 1;
        live.1.push((id, Arc::clone(&stream)));
        drop(live);
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new().spawn(move || {
            // A panicking front end costs its own connection only, and
            // the handler still leaves, so a drain cannot wait forever.
            let served = panic::catch_unwind(AssertUnwindSafe(|| shared.serve(&stream)));
            shared.close(&stream, served.unwrap_or(ConnClose::Error));
            shared.leave(id);
        });
        if spawned.is_err() {
            self.count(ConnClose::Error);
            self.leave(id);
        }
    }

    fn serve(&self, stream: &Stream) -> ConnClose {
        let options = &self.options;
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut malformed = 0;
        let mut deadline = Instant::now() + options.idle_timeout;
        loop {
            // A request longer than the cap is never found whole.
            let cap = options.max_request_bytes;
            while let Some(len) = self.front.request_len(&buf[..buf.len().min(cap)]) {
                let (text, close) = match self.front.answer(&buf[..len]) {
                    Reply::Next(text) => (text, None),
                    Reply::Malformed(text) => {
                        malformed += 1;
                        let kick = malformed >= options.max_bad_lines;
                        (text, kick.then_some(ConnClose::Kicked))
                    }
                    Reply::Last(text, close) => (text, Some(close)),
                    Reply::Stop => {
                        self.stop();
                        return ConnClose::Draining;
                    }
                };
                buf.drain(..len);
                if stream.say(&text).is_err() {
                    return ConnClose::Error;
                }
                if let Some(close) = close {
                    return close;
                }
                deadline = Instant::now() + options.idle_timeout;
            }
            if buf.len() >= cap {
                return ConnClose::TooLarge;
            }
            let read = match deadline.saturating_duration_since(Instant::now()) {
                wait if wait.is_zero() => Err(ErrorKind::TimedOut.into()),
                wait => each!(stream, s => {
                    s.set_read_timeout(Some(wait)).and_then(|()| (&mut &*s).read(&mut chunk))
                }),
            };
            let stopping = self.stopping.load(Ordering::SeqCst);
            match read {
                Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                _ if stopping => return ConnClose::Draining,
                Ok(_) if buf.is_empty() => return ConnClose::Eof,
                Ok(_) => return ConnClose::Partial,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return ConnClose::IdleTimeout;
                }
                Err(_) => return ConnClose::Error,
            }
        }
    }

    /// The farewell, where the server chose the close, and the count.
    fn close(&self, stream: &Stream, close: ConnClose) {
        use ConnClose::*;
        if matches!(close, Refused | TooLarge | IdleTimeout | Kicked | Draining) {
            let _ = stream.say(&self.front.farewell(close));
        }
        self.count(close);
    }

    fn count(&self, close: ConnClose) {
        self.front.count("closed");
        self.front.count(&format!("closed.{}", close.label()));
    }

    fn live(&self) -> MutexGuard<'_, Live> {
        self.live.lock().expect(LIVE_HELD)
    }

    fn leave(&self, id: u64) {
        self.live().1.retain(|(live, _)| *live != id);
        self.left.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::time::Instant;

    use super::*;

    /// Echoes lines; `panic` panics, `stop` stops the server.
    #[derive(Default)]
    struct Echo(Mutex<Vec<String>>);

    impl FrontEnd for Echo {
        fn request_len(&self, buf: &[u8]) -> Option<usize> {
            buf.iter().position(|&b| b == b'\n').map(|i| i + 1)
        }

        fn answer(&self, line: &[u8]) -> Reply {
            match line {
                b"panic\n" => panic!("front end bug"),
                b"stop\n" => Reply::Stop,
                _ => Reply::Next(String::from_utf8_lossy(line).into_owned()),
            }
        }

        fn farewell(&self, close: ConnClose) -> String {
            format!("bye {}\n", close.label())
        }

        fn count(&self, event: &str) {
            self.0.lock().unwrap().push(event.to_owned());
        }
    }

    fn start(tag: &str, front: &Arc<Echo>) -> (Server, std::path::PathBuf) {
        let path = std::env::temp_dir().join(format!("sched-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = Listener::Unix(UnixListener::bind(&path).unwrap());
        let options = ServerOptions {
            idle_timeout: Duration::from_secs(60),
            ..ServerOptions::default()
        };
        (
            Server::start(listener, Arc::clone(front) as _, options).unwrap(),
            path,
        )
    }

    fn line(reader: &mut BufReader<UnixStream>) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn a_panicking_front_end_costs_only_its_connection() {
        let front = Arc::new(Echo::default());
        let (server, path) = start("panic", &front);
        let mut doomed = UnixStream::connect(&path).unwrap();
        doomed.write_all(b"panic\n").unwrap();
        assert_eq!(
            line(&mut BufReader::new(doomed)),
            "",
            "closed without a reply"
        );
        let mut fine = UnixStream::connect(&path).unwrap();
        fine.write_all(b"hi\n").unwrap();
        assert_eq!(line(&mut BufReader::new(fine)), "hi\n");
        server.stop();
        server.wait();
        assert!(front.0.lock().unwrap().contains(&"closed.error".to_owned()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stopping_wakes_accept_after_the_socket_file_is_removed() {
        let front = Arc::new(Echo::default());
        let (server, path) = start("unlinked", &front);
        std::fs::remove_file(&path).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.stop();
            server.wait();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the server stops although a self-connect cannot reach it");
    }

    #[test]
    fn stopping_wakes_blocked_reads_at_once() {
        let front = Arc::new(Echo::default());
        let (server, path) = start("stop", &front);
        let idle = UnixStream::connect(&path).unwrap();
        let mut idle = BufReader::new(idle);
        let mut stopper = UnixStream::connect(&path).unwrap();
        stopper.write_all(b"hi\n").unwrap();
        let mut stopper = BufReader::new(stopper);
        assert_eq!(line(&mut stopper), "hi\n");
        let started = Instant::now();
        stopper.get_mut().write_all(b"stop\n").unwrap();
        assert_eq!(line(&mut stopper), "bye draining\n");
        assert_eq!(line(&mut idle), "bye draining\n");
        server.wait();
        // The idle timeout is 60 s; nothing waited for it or for a tick.
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(
            UnixStream::connect(&path).is_err(),
            "the listener is closed"
        );
        let events = front.0.lock().unwrap();
        assert_eq!(events.iter().filter(|e| *e == "closed.draining").count(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
