//! The read-only HTTP/1.1 telemetry plane, a [`FrontEnd`] of the
//! shared [`Server`] serving three endpoints off a [`Service`]:
//! `GET /status` (the status snapshot), `GET /metrics` (Prometheus text
//! v0.0.4 of the telemetry plane and the registry) and `GET /profile`
//! (the full telemetry snapshot and the shared-cache contention table,
//! read by `icprof --profile`).
//!
//! One request per connection (`Connection: close`). A malformed
//! request line is `400`; the server's bounds answer `431` (byte cap),
//! `408` (idle timeout) and `503` (connection cap, stopping). Closes
//! count in `icd.http.closed.*` telemetry. Being read-only, the plane
//! keeps answering while the service drains.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::Instant;

use crate::server::{ConnClose, FrontEnd, Listener, Reply, Server, ServerOptions};
use crate::Service;

/// The Prometheus exposition content type the scrapers expect.
pub const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json";

/// The telemetry plane bound to a TCP address. Dropping it (or
/// [`shutdown`](HttpServer::shutdown)) stops the server and waits for
/// every handler.
pub struct HttpServer {
    addr: SocketAddr,
    server: Server,
}

impl HttpServer {
    /// Binds `addr` (port `0` picks a free one) and serves `service`.
    ///
    /// # Errors
    ///
    /// When the address cannot be bound.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        service: Arc<Service>,
        options: ServerOptions,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let server = Server::start(Listener::Tcp(listener), Arc::new(Http(service)), options)?;
        Ok(HttpServer { addr, server })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and waits for every handler.
    pub fn shutdown(&mut self) {
        self.server.stop();
        self.server.wait();
    }
}

struct Http(Arc<Service>);

fn response(status: &str, content_type: &str, extra_headers: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
         Connection: close\r\n{extra_headers}\r\n{body}",
        body.len()
    )
}

/// Splits `GET /path?query HTTP/1.x` into the method and the path.
fn parse_request_line(head: &[u8]) -> Option<(&str, &str)> {
    let end = head
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..end]).ok()?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = (parts.next()?, parts.next()?, parts.next()?);
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || !target.starts_with('/') {
        return None;
    }
    Some((method, target.split('?').next().unwrap_or(target)))
}

impl FrontEnd for Http {
    fn request_len(&self, buf: &[u8]) -> Option<usize> {
        (1..buf.len()).find_map(|i| match &buf[..=i] {
            [.., b'\r', b'\n', b'\r', b'\n'] | [.., b'\n', b'\n'] => Some(i + 1),
            _ => None,
        })
    }

    fn answer(&self, head: &[u8]) -> Reply {
        let started = Instant::now();
        let svc = &self.0;
        svc.telemetry().counter("icd.http.requests").inc();
        let request = parse_request_line(head);
        let (status, content_type, allow, body) = match request {
            None => (
                "400 Bad Request",
                TEXT,
                "",
                "malformed request line\n".to_owned(),
            ),
            Some(("GET", "/status")) => ("200 OK", JSON, "", svc.status_json()),
            Some(("GET", "/metrics")) => ("200 OK", METRICS_CONTENT_TYPE, "", svc.metrics_text()),
            Some(("GET", "/profile")) => ("200 OK", JSON, "", svc.profile_json()),
            Some(("GET", _)) => {
                let body = "unknown path; try /status, /metrics, /profile\n";
                ("404 Not Found", TEXT, "", body.to_owned())
            }
            Some(_) => {
                let body = "only GET is supported\n".to_owned();
                ("405 Method Not Allowed", TEXT, "Allow: GET\r\n", body)
            }
        };
        let close = match request {
            None => ConnClose::BadRequest,
            Some(_) => ConnClose::Served,
        };
        svc.telemetry()
            .record_wait("icd.http.latency", started.elapsed());
        Reply::Last(response(status, content_type, allow, &body), close)
    }

    fn farewell(&self, close: ConnClose) -> String {
        let (status, body) = match close {
            ConnClose::TooLarge => (
                "431 Request Header Fields Too Large",
                "request head too large\n",
            ),
            ConnClose::IdleTimeout => ("408 Request Timeout", "request not completed in time\n"),
            ConnClose::Refused => ("503 Service Unavailable", "too many connections\n"),
            _ => ("503 Service Unavailable", "shutting down\n"),
        };
        response(status, TEXT, "", body)
    }

    fn count(&self, event: &str) {
        self.0
            .telemetry()
            .counter(&format!("icd.http.{event}"))
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    use instantcheck::Scheme;

    use super::*;
    use crate::{CampaignSpec, Orchestrator, OrchestratorConfig, Resolver, Service, Submission};

    fn service() -> Arc<Service> {
        let resolver: Resolver = Arc::new(|_| None);
        Arc::new(Service::new(Orchestrator::new(
            OrchestratorConfig::default(),
            resolver,
            Some(Arc::new(
                corpus::Corpus::open(corpus::CorpusOptions::ephemeral()).unwrap(),
            )),
        )))
    }

    fn request(addr: SocketAddr, raw: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        // A hostile request may be cut off (RST) mid-write or mid-read
        // when the server rejects early; keep whatever arrived.
        let _ = stream.write_all(raw.as_bytes());
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
            }
        }
        String::from_utf8_lossy(&reply).into_owned()
    }

    fn get(addr: SocketAddr, path: &str) -> String {
        request(addr, &format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
    }

    #[test]
    fn serves_status_metrics_and_profile() {
        let svc = service();
        svc.submit(Submission::new(
            "x",
            CampaignSpec::new("nope", Scheme::HwInc),
        ));
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), ServerOptions::default())
            .expect("binds");
        let addr = server.local_addr();

        let status = get(addr, "/status");
        assert!(status.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(status.contains("Content-Type: application/json"));
        let body = status.split("\r\n\r\n").nth(1).unwrap();
        let v = obs::json::parse(body).expect("status body is JSON");
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(1));
        assert!(v.get("corpus").unwrap().get("cache_capacity").is_some());

        let metrics = get(addr, "/metrics");
        assert!(metrics.contains(&format!("Content-Type: {METRICS_CONTENT_TYPE}")));
        assert!(metrics.contains("# TYPE icd_queue_dwell_seconds histogram"));
        assert!(metrics.contains("# TYPE icd_cache_acquire_seconds histogram"));
        assert!(metrics.contains("# TYPE icd_cache_cas_retries_total counter"));
        assert!(metrics.contains("icd_http_requests_total"));

        let profile = get(addr, "/profile");
        let body = profile.split("\r\n\r\n").nth(1).unwrap();
        let v = obs::json::parse(body).expect("profile body is JSON");
        assert!(v.get("telemetry").unwrap().get("histograms").is_some());
        assert!(matches!(v.get("cache"), Some(obs::json::Value::Obj(_))));
    }

    #[test]
    fn hostile_clients_cost_only_their_connection() {
        let svc = service();
        let options = ServerOptions {
            max_request_bytes: 512,
            idle_timeout: Duration::from_millis(200),
            ..ServerOptions::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), options).expect("binds");
        let addr = server.local_addr();

        // Malformed request line.
        assert!(request(addr, "N0T-HTTP\r\n\r\n").starts_with("HTTP/1.1 400"));
        // Oversized head.
        let big = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(4096));
        assert!(request(addr, &big).starts_with("HTTP/1.1 431"));
        // Unknown path and method.
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        assert!(request(addr, "POST /status HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405"));
        // Mid-request disconnect: write half a request and vanish.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /st").unwrap();
        }
        // Slow loris: connect, send nothing, wait out the idle window.
        {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            assert!(reply.starts_with("HTTP/1.1 408"), "got: {reply:?}");
        }
        // The server is still fully alive for well-formed clients.
        assert!(get(addr, "/status").starts_with("HTTP/1.1 200"));
        let closed = svc.telemetry().snapshot();
        assert!(closed.counters["icd.http.closed.bad-request"] >= 1);
        assert!(closed.counters["icd.http.closed.too-large"] >= 1);
        assert!(closed.counters["icd.http.closed.idle-timeout"] >= 1);
    }

    #[test]
    fn shutdown_joins_and_frees_the_port() {
        let svc = service();
        let mut server =
            HttpServer::bind("127.0.0.1:0", Arc::clone(&svc), ServerOptions::default()).unwrap();
        let addr = server.local_addr();
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 200"));
        server.shutdown();
        // The port is rebindable immediately after shutdown.
        let again = HttpServer::bind(addr, svc, ServerOptions::default());
        assert!(again.is_ok(), "{:?}", again.err());
    }
}
