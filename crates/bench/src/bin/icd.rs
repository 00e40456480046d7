//! `icd` — the InstantCheck campaign daemon.
//!
//! A long-running front end for the `sched` orchestrator: it accepts
//! campaign submissions as JSON lines, runs them on a bounded worker
//! pool over the registered workloads and an optional shared run
//! corpus, and writes one deterministic artifact per campaign.
//! Submissions past the queue bound or a tenant's quota are *shed* with
//! an explicit outcome; on shutdown every accepted campaign finishes.
//!
//! ```text
//! icd [--width N] [--queue-cap N] [--budget N] [--retries N]
//!     [--backoff-ms N] [--deadline-ms N] [--trace]
//!     [--tenant-quota N] [--idle-timeout-ms N] [--max-bad-lines N]
//!     [--corpus-dir DIR] [--corpus-segment-bytes N]
//!     [--corpus-max-bytes N] [--corpus-cache-slots N]
//!     [--out DIR] [--batch FILE|-] [--socket PATH]
//!     [--http ADDR] [--heartbeat-ms N]
//! icd --connect PATH [--batch FILE|-]        # client mode
//! ```
//!
//! `--corpus-dir` opens a log-structured run corpus; the three other
//! `--corpus-*` flags size its segments, footprint and memo cache.
//! `--corpus` and `--cache-slots` are kept as aliases.
//!
//! Submissions are read from `--batch FILE` (`-` for stdin), then from
//! `--socket PATH`, or else from stdin. A line is a bare `CampaignSpec`
//! (the id defaults to `c<seq>`) or `{"id", "priority", "tenant",
//! "spec"}`; blank lines and `#` comments are skipped.
//!
//! Both network front ends run on `sched::Server`, which owns every
//! connection: a cap of `sched::MAX_CONNECTIONS`, an 8 KiB request cap,
//! an idle timeout, and one `ConnClose` per ended connection. This file
//! supplies the socket's line protocol only. Each submission line gets
//! a disposition reply, `status` a live JSON snapshot, and `drain` (or
//! SIGTERM/SIGINT) stops intake: connected clients are told
//! `{"draining":true}`, the orchestrator drains and the socket file is
//! removed. A mid-line disconnect, an over-long line, an idle stall
//! (`--idle-timeout-ms`, 30 s), a malformed-line flood
//! (`--max-bad-lines`) or a connection over the cap drops only that
//! client, counted in `icd.conn.closed.*`. Binding refuses a socket a
//! live daemon is serving and reclaims a stale one.
//!
//! `--connect` is the matching client: one reply line printed per input
//! line; an unterminated last fragment is sent and the client hangs up
//! mid-line.
//!
//! `--http ADDR` serves the read-only wall-clock telemetry plane
//! (`/status`, `/metrics`, `/profile`; 5 s idle timeout) through the
//! drain, and `--heartbeat-ms N` appends a telemetry snapshot line to
//! `<out>/heartbeat.jsonl` per interval. Neither touches the artifacts.
//!
//! Artifacts land under `--out` (default `results/icd`), each written
//! atomically: `<id>.report.json` (byte-identical to the spec run alone,
//! at any `--width` and client interleaving), `<id>.trace.jsonl` with
//! `--trace`, `batch.jsonl` (one line per submission, in sequence
//! order), `batch.trace.jsonl`, and the run-to-run variable
//! `metrics.json` and `profile.json`.
//!
//! Exit status: 0 when every submission completed; 1 when a campaign
//! failed, was invalid or shed, or a line did not parse; 2 on usage or
//! I/O errors, refusing a live daemon's socket included.

use std::io::{BufRead, BufReader, ErrorKind, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use corpus::CorpusOptions;
use instantcheck::CampaignSpec;
use obs::json::{parse, Value};
use obs::Heartbeat;
use sched::{
    CampaignStatus, ConnClose, Disposition, FrontEnd, HttpServer, Listener, Orchestrator,
    OrchestratorConfig, ProgramSource, Reply, Resolver, Server, ServerOptions, Service, Submission,
};

#[derive(Default)]
struct IcdCli {
    config: OrchestratorConfig,
    corpus_dir: Option<String>,
    corpus_segment_bytes: Option<u64>,
    corpus_max_bytes: Option<u64>,
    corpus_cache_slots: Option<u64>,
    out: String,
    batch: Option<String>,
    socket: Option<String>,
    connect: Option<String>,
    /// The socket server's bounds (the HTTP plane keeps the defaults).
    server: ServerOptions,
    /// Address of the read-only HTTP telemetry plane, when enabled.
    http: Option<String>,
    /// Heartbeat snapshot interval, when enabled.
    heartbeat: Option<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: icd [--width N] [--queue-cap N] [--budget N] [--retries N] \
         [--backoff-ms N] [--deadline-ms N] [--trace] \
         [--tenant-quota N] [--idle-timeout-ms N] [--max-bad-lines N] \
         [--corpus-dir DIR] [--corpus-segment-bytes N] [--corpus-max-bytes N] \
         [--corpus-cache-slots N] [--out DIR] [--batch FILE|-] [--socket PATH] \
         [--http ADDR] [--heartbeat-ms N]\n\
         \x20      icd --connect PATH [--batch FILE|-]"
    );
    std::process::exit(2);
}

fn parse_cli() -> IcdCli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cli = IcdCli {
        out: "results/icd".to_owned(),
        server: ServerOptions {
            idle_timeout: Duration::from_secs(30),
            ..ServerOptions::default()
        },
        ..IcdCli::default()
    };
    let mut i = 0;
    while i < args.len() {
        let value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        let num = |i: &mut usize| -> u64 { value(i).parse().unwrap_or_else(|_| usage()) };
        match args[i].as_str() {
            "--width" => cli.config.width = num(&mut i) as usize,
            "--queue-cap" => cli.config.queue_capacity = num(&mut i) as usize,
            "--budget" => cli.config.job_budget = num(&mut i) as usize,
            "--retries" => cli.config.retries = num(&mut i) as u32,
            "--backoff-ms" => cli.config.backoff = Duration::from_millis(num(&mut i)),
            "--deadline-ms" => cli.config.default_deadline_ms = Some(num(&mut i)),
            "--trace" => cli.config.trace = true,
            "--tenant-quota" => cli.config.tenant_quota = Some(num(&mut i)),
            "--idle-timeout-ms" => {
                cli.server.idle_timeout = Duration::from_millis(num(&mut i).max(1));
            }
            "--max-bad-lines" => cli.server.max_bad_lines = num(&mut i) as usize,
            // `--corpus` and `--cache-slots` predate the namespaced
            // storage flags; both spellings feed the same options.
            "--corpus-dir" | "--corpus" => cli.corpus_dir = Some(value(&mut i)),
            "--corpus-segment-bytes" => cli.corpus_segment_bytes = Some(num(&mut i)),
            "--corpus-max-bytes" => cli.corpus_max_bytes = Some(num(&mut i)),
            "--corpus-cache-slots" | "--cache-slots" => {
                cli.corpus_cache_slots = Some(num(&mut i));
            }
            "--out" => cli.out = value(&mut i),
            "--batch" => cli.batch = Some(value(&mut i)),
            "--socket" => cli.socket = Some(value(&mut i)),
            "--connect" => cli.connect = Some(value(&mut i)),
            "--http" => cli.http = Some(value(&mut i)),
            "--heartbeat-ms" => {
                cli.heartbeat = Some(Duration::from_millis(num(&mut i).max(1)));
            }
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
        i += 1;
    }
    cli
}

/// Maps `app:scaled` / `app:full` workload ids onto the registered
/// workload programs — the same ids the `--corpus` store keys runs by.
fn resolver() -> Resolver {
    Arc::new(|workload: &str| -> Option<ProgramSource> {
        let (app, scale) = workload.split_once(':')?;
        let scaled = match scale {
            "scaled" => true,
            "full" => false,
            _ => return None,
        };
        instantcheck_workloads::by_name(app, scaled).map(|a| a.build)
    })
}

/// One submission line: a bare spec, or `{"id", "priority", "tenant",
/// "spec"}`. An absent id is left empty — the service fills in
/// `c<seq>` under its intake lock, so concurrent clients cannot race
/// the default.
fn parse_submission(line: &str) -> Result<Submission, String> {
    let v = parse(line)?;
    let (spec_value, id, priority, tenant) = match v.get("spec") {
        Some(spec) => {
            let id = v
                .get("id")
                .and_then(Value::as_str)
                .map(str::to_owned)
                .unwrap_or_default();
            let priority = match v.get("priority") {
                None | Some(Value::Null) => 0,
                Some(Value::Num(raw)) => {
                    raw.parse().map_err(|_| format!("bad priority {raw:?}"))?
                }
                Some(_) => return Err("priority must be a number".to_owned()),
            };
            let tenant = match v.get("tenant") {
                None | Some(Value::Null) => None,
                Some(Value::Str(t)) => Some(t.clone()),
                Some(_) => return Err("tenant must be a string".to_owned()),
            };
            (spec, id, priority, tenant)
        }
        None => (&v, String::new(), 0, None),
    };
    let spec = CampaignSpec::from_value(spec_value)?;
    let mut sub = Submission::new(id, spec).with_priority(priority);
    sub.tenant = tenant;
    Ok(sub)
}

fn disposition_json(id: &str, d: Disposition) -> String {
    let mut out = String::from("{\"id\":");
    obs::json::write_str(&mut out, id);
    match d {
        Disposition::Enqueued => out.push_str(",\"disposition\":\"enqueued\"}"),
        Disposition::Shed(reason) => {
            out.push_str(",\"disposition\":\"shed\",\"reason\":");
            obs::json::write_str(&mut out, reason.label());
            out.push('}');
        }
    }
    out
}

fn error_json(message: &str) -> String {
    let mut out = String::from("{\"error\":");
    obs::json::write_str(&mut out, message);
    out.push('}');
    out
}

/// Parses and submits one submission line; a line that does not parse
/// counts in `icd.bad_lines`.
fn submit_line(svc: &Service, line: &str) -> Result<(String, Disposition), String> {
    let parsed = parse_submission(line);
    if parsed.is_err() {
        svc.registry().add("icd.bad_lines", 1);
    }
    parsed.map(|sub| svc.submit(sub))
}

/// Submits every submission line of one reader (the single-client
/// batch/stdin path).
fn intake(reader: impl BufRead, svc: &Service) -> std::io::Result<()> {
    for line in reader.lines() {
        let line = line?;
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        match submit_line(svc, text) {
            Ok((id, Disposition::Shed(why))) => eprintln!("icd: shed {id:?} ({})", why.label()),
            Ok(_) => {}
            Err(e) => eprintln!("icd: bad submission line: {e}"),
        }
    }
    Ok(())
}

/// The socket line protocol: a submission, `status` or `drain` line
/// in, one reply line out.
struct Lines(Arc<Service>);

impl FrontEnd for Lines {
    fn request_len(&self, buf: &[u8]) -> Option<usize> {
        buf.iter().position(|&b| b == b'\n').map(|i| i + 1)
    }

    fn answer(&self, line: &[u8]) -> Reply {
        let svc = &self.0;
        let line = String::from_utf8_lossy(line);
        match line.trim() {
            text if text.is_empty() || text.starts_with('#') => Reply::Next(String::new()),
            "status" => Reply::Next(svc.status_json() + "\n"),
            "drain" => {
                svc.begin_drain();
                Reply::Stop
            }
            text => match submit_line(svc, text) {
                Ok((id, d)) => Reply::Next(disposition_json(&id, d) + "\n"),
                Err(e) => Reply::Malformed(error_json(&e) + "\n"),
            },
        }
    }

    fn farewell(&self, close: ConnClose) -> String {
        let why = match close {
            ConnClose::Draining => return "{\"draining\":true}\n".to_owned(),
            ConnClose::Refused => "too many connections",
            ConnClose::TooLarge => "line too long",
            ConnClose::IdleTimeout => "idle timeout",
            _ => "too many malformed lines",
        };
        error_json(why) + "\n"
    }

    fn count(&self, event: &str) {
        self.0.registry().add(&format!("icd.conn.{event}"), 1);
    }
}

/// SIGTERM/SIGINT as a drain: the handler writes one byte to a socket
/// pair (`write(2)` is async-signal-safe), and a watcher thread blocked
/// on the other end runs the drain. Uses the libc entry points the Rust
/// runtime already links — no external crates.
mod signals {
    use std::io::Read as _;
    use std::os::fd::IntoRawFd as _;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicI32, Ordering};

    static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        let byte = 1u8;
        // SAFETY: write(2) is async-signal-safe, `byte` outlives the
        // call, and WAKE_FD is set before the handler is installed and
        // never closed. A full buffer drops the byte (non-blocking).
        unsafe { write(WAKE_FD.load(Ordering::SeqCst), &byte, 1) };
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    /// Runs `drain` on a watcher thread at the first SIGTERM/SIGINT.
    pub fn on_shutdown(drain: impl FnOnce() + Send + 'static) -> std::io::Result<()> {
        let (tx, mut rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        WAKE_FD.store(tx.into_raw_fd(), Ordering::SeqCst);
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `handler` is an `extern "C" fn(i32)` that only makes
        // an async-signal-safe call.
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
        std::thread::spawn(move || {
            if rx.read(&mut [0u8]).is_ok_and(|n| n == 1) {
                drain();
            }
        });
        Ok(())
    }
}

/// Removes the socket path on drop, so the file disappears on every
/// exit path — normal drain, signal, or panic unwind.
struct SocketGuard(PathBuf);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Binds the daemon socket, refusing to clobber a *live* daemon: if a
/// probe connect succeeds, someone is serving the path and we bail
/// out; a file nobody answers on is a dead daemon's leftover and is
/// reclaimed.
fn bind_socket(path: &str) -> std::io::Result<UnixListener> {
    if UnixStream::connect(path).is_ok() {
        let live = format!("{path}: a live daemon is already listening");
        return Err(std::io::Error::new(ErrorKind::AddrInUse, live));
    }
    if Path::new(path).exists() {
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// Serves the socket until a `drain` line or a signal stops it and
/// every connection has been told.
fn serve_socket(path: &str, svc: &Arc<Service>, options: ServerOptions) -> std::io::Result<()> {
    let listener = bind_socket(path)?;
    let _guard = SocketGuard(PathBuf::from(path));
    let lines = Arc::new(Lines(Arc::clone(svc)));
    let server = Arc::new(Server::start(Listener::Unix(listener), lines, options)?);
    let (stopper, drainer) = (Arc::clone(&server), Arc::clone(svc));
    signals::on_shutdown(move || {
        eprintln!("icd: shutdown signal received, draining");
        drainer.begin_drain();
        stopper.stop();
    })?;
    eprintln!("icd: serving {path} (lines: submissions, `status`, `drain`; SIGTERM/SIGINT drain)");
    server.wait();
    Ok(())
}

/// Client mode: forward each input line to a daemon, print one reply
/// line per request. A final unterminated fragment is sent as raw
/// bytes followed by a disconnect — the deliberate mid-line-drop probe
/// the daemon-mode tests and CI use.
fn run_client(path: &str, batch: Option<&str>) -> ExitCode {
    let degraded = (|| -> std::io::Result<bool> {
        let mut input = Vec::new();
        match batch {
            Some("-") | None => std::io::stdin().lock().read_to_end(&mut input)?,
            Some(file) => std::fs::File::open(file)?.read_to_end(&mut input)?,
        };
        let stream = UnixStream::connect(path)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut degraded = false;
        for line in input.split_inclusive(|&b| b == b'\n') {
            if !line.ends_with(b"\n") {
                let _ = writer.write_all(line);
                eprintln!(
                    "icd: sent {} unterminated byte(s) and disconnected",
                    line.len()
                );
                break;
            }
            let text = String::from_utf8_lossy(line);
            let text = text.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            writeln!(writer, "{text}")?;
            let mut reply = String::new();
            reader.read_line(&mut reply)?;
            let reply = reply.trim_end();
            println!("{reply}");
            // A `status` snapshot counts sheds too; only dispositions count.
            degraded |=
                reply.starts_with("{\"error\"") || reply.contains("\"disposition\":\"shed\"");
        }
        Ok(degraded)
    })();
    match degraded {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("icd: {path}: {e}");
            ExitCode::from(2)
        }
    }
}

/// A campaign id as a safe artifact file stem.
fn file_stem(id: &str) -> String {
    let safe = |c: char| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-');
    id.chars().map(|c| if safe(c) { c } else { '-' }).collect()
}

fn main() -> ExitCode {
    let cli = parse_cli();
    match &cli.connect {
        Some(path) => run_client(path, cli.batch.as_deref()),
        None => run(&cli).unwrap_or_else(|e| {
            eprintln!("icd: {e}");
            ExitCode::from(2)
        }),
    }
}

/// Takes submissions from every configured source, drains, and writes
/// the artifacts. An `Err` is a usage or I/O failure (exit 2).
fn run(cli: &IcdCli) -> Result<ExitCode, String> {
    let out_dir = PathBuf::from(&cli.out);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let corpus = match &cli.corpus_dir {
        Some(dir) => {
            let mut options = CorpusOptions::at(dir);
            if let Some(n) = cli.corpus_segment_bytes {
                options = options.segment_bytes(n);
            }
            if let Some(n) = cli.corpus_max_bytes {
                options = options.max_bytes(n);
            }
            if let Some(n) = cli.corpus_cache_slots {
                options = options.cache_slots(n as usize);
            }
            Some(Arc::new(options.open().map_err(|e| e.to_string())?))
        }
        None => None,
    };
    let svc = Arc::new(Service::new(Orchestrator::new(
        cli.config.clone(),
        resolver(),
        corpus.clone(),
    )));

    // The wall-clock telemetry plane: read-only, so it starts before
    // intake and keeps serving through the drain.
    let mut http_server = match &cli.http {
        Some(addr) => {
            let server =
                HttpServer::bind(addr.as_str(), Arc::clone(&svc), ServerOptions::default())
                    .map_err(|e| format!("cannot bind http {addr}: {e}"))?;
            let bound = server.local_addr();
            eprintln!("icd: telemetry on http://{bound} (/status /metrics /profile)");
            Some(server)
        }
        None => None,
    };
    let mut heartbeat = match cli.heartbeat {
        Some(interval) => {
            let path = out_dir.join("heartbeat.jsonl");
            let hb = Heartbeat::start(Arc::clone(svc.telemetry()), path.clone(), interval)
                .map_err(|e| format!("cannot start heartbeat at {}: {e}", path.display()))?;
            Some(hb)
        }
        None => None,
    };

    let intake_all = || -> std::io::Result<()> {
        match cli.batch.as_deref() {
            Some("-") => intake(std::io::stdin().lock(), &svc)?,
            Some(batch) => intake(BufReader::new(std::fs::File::open(batch)?), &svc)?,
            None => {}
        }
        match &cli.socket {
            Some(path) => serve_socket(path, &svc, cli.server.clone()),
            None if cli.batch.is_none() => intake(std::io::stdin().lock(), &svc),
            None => Ok(()),
        }
    };
    intake_all().map_err(|e| format!("intake failed: {e}"))?;

    eprintln!("icd: draining {} submission(s)…", svc.submitted());
    let registry = Arc::clone(svc.registry());
    let results = svc.drain();

    let mut summary = String::new();
    for r in &results {
        let line = r.summary_json();
        println!("{line}");
        summary.push_str(&line);
        summary.push('\n');
        let stem = file_stem(&r.id);
        if let Some(report) = &r.report_json {
            write_artifact(&out_dir.join(format!("{stem}.report.json")), report);
        }
        if let Some(trace) = &r.trace_jsonl {
            write_artifact(&out_dir.join(format!("{stem}.trace.jsonl")), trace);
        }
    }
    write_artifact(&out_dir.join("batch.jsonl"), &summary);
    write_artifact(
        &out_dir.join("batch.trace.jsonl"),
        &obs::events_to_jsonl(&Orchestrator::batch_trace(&results)),
    );
    write_artifact(
        &out_dir.join("metrics.json"),
        &registry.snapshot().to_json(),
    );
    // The wall-clock story (queue dwell, cache waits, worker lanes);
    // same body `/profile` serves. Written before the HTTP listener
    // stops so a final scrape and the artifact agree on schema.
    write_artifact(&out_dir.join("profile.json"), &svc.profile_json());
    if let Some(hb) = &mut heartbeat {
        hb.stop();
    }
    if let Some(server) = &mut http_server {
        server.shutdown();
    }

    let bad_lines = registry.counter("icd.bad_lines").get();
    let completed = results
        .iter()
        .filter(|r| r.status == CampaignStatus::Completed)
        .count();
    eprintln!(
        "icd: {} submitted / {completed} completed / {} shed / {bad_lines} bad line(s)",
        results.len(),
        results.iter().filter(|r| r.shed.is_some()).count(),
    );
    if let Some(corpus) = &corpus {
        eprintln!(
            "icd: corpus {} hits / {} misses / {} stores",
            corpus.hits(),
            corpus.misses(),
            corpus.stores()
        );
        if let Some(s) = corpus.log_stats() {
            eprintln!(
                "icd: corpus {} segment(s), {} live record(s), {} live / {} garbage byte(s), \
                 {} compaction(s)",
                s.segments, s.live_records, s.live_bytes, s.garbage_bytes, s.compactions
            );
        }
    }
    Ok(if bad_lines > 0 || completed < results.len() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Writes one artifact atomically (tmp + rename in the target
/// directory), so a crash mid-write can never leave a truncated file
/// that a later byte-compare reads as drift.
fn write_artifact(path: &std::path::Path, contents: &str) {
    let result = (|| -> std::io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp-{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    })();
    match result {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
