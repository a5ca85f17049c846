//! Dependency-free HTTP exporter for the live observability plane.
//!
//! [`MetricsServer`] is a minimal HTTP/1.1 server over
//! [`std::net::TcpListener`] — no async runtime, no HTTP crate — serving
//! four read-only endpoints:
//!
//! | path        | content                                                  |
//! |-------------|----------------------------------------------------------|
//! | `/metrics`  | Prometheus text exposition (gauges re-sampled per scrape)|
//! | `/snapshot` | the full [`TelemetrySnapshot`] as pretty JSON            |
//! | `/trace`    | Chrome Trace Event JSON for the recorded span trees      |
//! | `/healthz`  | `ok`, `draining` (shutdown started) or `degraded`        |
//!
//! One accept thread feeds a small fixed pool of worker threads over a
//! channel; every response closes the connection (`Connection: close`), so
//! a scraper can never wedge a worker for longer than the 2-second socket
//! read timeout. The server holds only cloned `Arc`s into the telemetry
//! plane — not the [`Monarch`] instance itself — so scrapes never contend
//! with the read path beyond the atomics they load.
//!
//! Start one with [`Monarch::serve`], via
//! [`MonarchBuilder::with_metrics_addr`](crate::MonarchBuilder::with_metrics_addr),
//! or the `metrics_addr` config key; `monarch serve` wraps the same thing
//! on the CLI.
//!
//! [`TelemetrySnapshot`]: crate::telemetry::TelemetrySnapshot

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::middleware::Monarch;
use crate::stats::Stats;
use crate::telemetry::TelemetryRegistry;
use crate::transfer::GaugeSampler;
use crate::{Error, Result};

/// Worker threads serving parsed requests. Two is deliberate: one scraper
/// plus one human `curl` never queue behind each other, and a third
/// misbehaving client meets the accept backlog, not more threads.
const WORKERS: usize = 2;

/// Per-connection socket read timeout — a client that connects and then
/// stalls is dropped after this long instead of pinning a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request head (request line + headers) the parser accepts.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Everything a worker needs to render any endpoint — cloned `Arc`s into
/// the telemetry plane, never a reference back to the [`Monarch`] facade.
#[derive(Clone)]
pub(crate) struct ServeParts {
    telemetry: Arc<TelemetryRegistry>,
    sampler: GaugeSampler,
    stats: Arc<Stats>,
    shutting_down: Arc<AtomicBool>,
    /// Tier health registry: `/healthz` reports `degraded` while any tier
    /// is quarantined, and `/snapshot` carries the per-tier health section.
    health: Arc<crate::health::HealthRegistry>,
    /// Peer-cache handle, when clustered: `/snapshot` carries the roster
    /// and peer counters in its `cluster` section.
    cluster: Option<Arc<crate::cluster::Cluster>>,
}

/// Handle to a running exporter. Dropping the handle without calling
/// [`MetricsServer::stop`] leaves the threads running until process exit;
/// [`Monarch::shutdown`] stops the server it owns.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9464"`; port `0` picks a free port)
    /// and start the accept + worker threads.
    pub(crate) fn start(addr: &str, parts: ServeParts) -> Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..WORKERS)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let parts = parts.clone();
                std::thread::Builder::new()
                    .name(format!("monarch-serve-{i}"))
                    .spawn(move || {
                        loop {
                            // Holding the receiver lock only while waiting
                            // for the next connection; serving happens
                            // unlocked so the other worker can pick up.
                            let conn = rx.lock().expect("serve rx lock").recv();
                            match conn {
                                Ok(stream) => handle_connection(stream, &parts),
                                Err(_) => break, // accept thread gone
                            }
                        }
                    })
                    .expect("spawn metrics worker")
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("monarch-serve-accept".to_string())
                .spawn(move || {
                    // `tx` lives in this thread; when the loop exits it is
                    // dropped, the channel closes, and the workers drain
                    // whatever is queued and exit.
                    for conn in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match conn {
                            Ok(stream) => {
                                if tx.send(stream).is_err() {
                                    break;
                                }
                            }
                            // Transient accept errors (e.g. ECONNABORTED)
                            // do not take the exporter down.
                            Err(_) => continue,
                        }
                    }
                })
                .expect("spawn metrics accept thread")
        };

        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address — useful when the configured port was `0`.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the accept loop, drain the workers, and join every thread.
    /// Idempotent from the owner's perspective: consumes the handle.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // The accept thread is blocked in `accept(2)`; a throwaway local
        // connection wakes it so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl Monarch {
    /// Start the observability exporter on `addr` and remember it so
    /// [`Monarch::shutdown`] stops it. Errors if one is already running
    /// (stop it first) or if the bind fails.
    pub fn serve(&self, addr: &str) -> Result<SocketAddr> {
        let mut slot = self.server_slot().lock().expect("server slot lock");
        if slot.is_some() {
            return Err(Error::InvalidConfig(
                "metrics server already running (serve_stop it first)".to_string(),
            ));
        }
        let parts = ServeParts {
            telemetry: Arc::clone(self.telemetry()),
            sampler: self.sampler(),
            stats: self.stats_arc(),
            shutting_down: self.shutdown_flag(),
            health: Arc::clone(self.hierarchy().health()),
            cluster: self.cluster().map(Arc::clone),
        };
        let server = MetricsServer::start(addr, parts)?;
        let bound = server.addr();
        *slot = Some(server);
        Ok(bound)
    }

    /// Stop a running exporter. Returns `false` when none was running.
    pub fn serve_stop(&self) -> bool {
        let server = self.server_slot().lock().expect("server slot lock").take();
        match server {
            Some(s) => {
                s.stop();
                true
            }
            None => false,
        }
    }

    /// Bound address of the running exporter, if any.
    #[must_use]
    pub fn serve_addr(&self) -> Option<SocketAddr> {
        self.server_slot()
            .lock()
            .expect("server slot lock")
            .as_ref()
            .map(MetricsServer::addr)
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Read one request head, route it, write one response, close.
fn handle_connection(mut stream: TcpStream, parts: &ServeParts) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let head = match read_request_head(&mut stream) {
        Some(head) => head,
        None => {
            // Timeout / disconnect / oversized head: best-effort 400 and
            // move on — the worker must never wedge on one bad client.
            respond(
                &mut stream,
                400,
                "text/plain; charset=utf-8",
                "bad request\n",
            );
            return;
        }
    };
    let (status, content_type, body) = route(&head, parts);
    respond(&mut stream, status, content_type, &body);
}

/// Read from the socket until the blank line ending the request head.
/// Returns `None` on timeout, disconnect, non-UTF-8 or oversized input.
fn read_request_head(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
                {
                    return String::from_utf8(buf).ok();
                }
                if buf.len() > MAX_REQUEST_BYTES {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
}

/// Map a request head to `(status, content type, body)`.
fn route(head: &str, parts: &ServeParts) -> (u16, &'static str, String) {
    const TEXT: &str = "text/plain; charset=utf-8";
    const PROM: &str = "text/plain; version=0.0.4; charset=utf-8";
    const JSON: &str = "application/json; charset=utf-8";

    let request_line = head.lines().next().unwrap_or("");
    let mut words = request_line.split_whitespace();
    let (method, target, version) = match (words.next(), words.next(), words.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/") => (m, t, v),
        _ => return (400, TEXT, "bad request\n".to_string()),
    };
    let _ = version;
    if method != "GET" {
        return (405, TEXT, "method not allowed\n".to_string());
    }
    // Ignore any query string — the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    match path {
        "/metrics" => {
            parts.sampler.refresh();
            (200, PROM, parts.telemetry.prometheus_text())
        }
        "/snapshot" => {
            parts.sampler.refresh();
            let mut snap = parts.telemetry.snapshot();
            snap.health = Some(parts.health.snapshot());
            if let Some(cluster) = &parts.cluster {
                snap.cluster = Some(cluster.snapshot(&parts.stats.snapshot()));
            }
            match serde_json::to_string_pretty(&snap) {
                Ok(json) => (200, JSON, json),
                Err(e) => (500, TEXT, format!("snapshot serialization failed: {e}\n")),
            }
        }
        "/trace" => (200, JSON, parts.telemetry.trace().export_chrome_json()),
        "/healthz" => {
            let state = if parts.shutting_down.load(Ordering::Acquire) {
                "draining"
            } else if parts.health.degraded() || parts.stats.snapshot().pool_join_failures > 0 {
                "degraded"
            } else {
                "ok"
            };
            (200, TEXT, format!("{state}\n"))
        }
        _ => (404, TEXT, "not found\n".to_string()),
    }
}

/// Write one complete HTTP/1.1 response and shut the stream down.
fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    // Best-effort writes: the client may already be gone.
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::driver::{MemDriver, StorageDriver};
    use crate::hierarchy::StorageHierarchy;
    use crate::MonarchBuilder;

    /// A live two-tier instance with `n` files staged on the mem "PFS".
    fn mem_monarch(n: usize, size: usize) -> Monarch {
        let pfs = MemDriver::new("pfs");
        for i in 0..n {
            pfs.insert(&format!("f{i:03}"), vec![i as u8; size]);
        }
        let hierarchy = StorageHierarchy::new(vec![
            (
                "ssd".into(),
                Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
                Some(1 << 20),
            ),
            ("pfs".into(), Arc::new(pfs), None),
        ])
        .unwrap();
        let m = MonarchBuilder::new()
            .hierarchy(hierarchy)
            .pool_threads(2)
            .telemetry(TelemetryConfig::with_tracing())
            .build()
            .unwrap();
        m.init().unwrap();
        m
    }

    /// Issue one raw HTTP request and return `(status, body)`.
    fn get(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to exporter");
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status: u16 = response
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn get_path(addr: SocketAddr, path: &str) -> (u16, String) {
        get(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
    }

    #[test]
    fn all_endpoints_respond_on_a_live_instance() {
        let m = mem_monarch(4, 256);
        let addr = m.serve("127.0.0.1:0").unwrap();
        assert_eq!(m.serve_addr(), Some(addr));
        let mut buf = [0u8; 256];
        m.read("f001", 0, &mut buf).unwrap();
        m.wait_placement_idle();

        let (status, body) = get_path(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(
            body.contains("monarch_tier_reads_total"),
            "counters exposed"
        );
        assert!(
            body.contains("monarch_tier_occupancy_bytes"),
            "gauges refreshed per scrape"
        );
        assert!(
            body.contains("monarch_read_stall_driver_pread_seconds"),
            "stall histograms"
        );

        let (status, body) = get_path(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"stall_profile\""));
        assert!(body.contains("\"gauges\""));

        let (status, body) = get_path(addr, "/trace");
        assert_eq!(status, 200);
        assert!(body.contains("traceEvents"));

        let (status, body) = get_path(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        assert_eq!(get_path(addr, "/nope").0, 404);
        assert_eq!(
            get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").0,
            405
        );

        assert!(
            m.serve("127.0.0.1:0").is_err(),
            "second serve refused while one runs"
        );
        assert!(m.serve_stop());
        assert!(!m.serve_stop(), "stop is not double-counted");
        assert_eq!(m.serve_addr(), None);
        m.shutdown();
    }

    #[test]
    fn trace_scrapes_do_not_drain_the_span_buffer() {
        // Regression: /trace must be a *view* of the recorder's ring, not
        // a consumer — a dashboard polling it concurrently with a one-shot
        // trace dump must not steal the spans.
        let m = mem_monarch(2, 128);
        let addr = m.serve("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 128];
        m.read("f000", 0, &mut buf).unwrap();
        m.read("f001", 0, &mut buf).unwrap();
        m.wait_placement_idle();
        let (status, first) = get_path(addr, "/trace");
        assert_eq!(status, 200);
        assert!(first.contains("driver_pread"), "spans were recorded");
        let (status, second) = get_path(addr, "/trace");
        assert_eq!(status, 200);
        assert_eq!(first, second, "a scrape must not consume spans");
        m.shutdown();
    }

    #[test]
    fn observability_counters_and_observe_snapshot_are_exported() {
        let m = mem_monarch(3, 128);
        let addr = m.serve("127.0.0.1:0").unwrap();
        let mut buf = [0u8; 128];
        m.read("f000", 0, &mut buf).unwrap();
        m.wait_placement_idle();
        m.read("f000", 0, &mut buf).unwrap();

        let (status, body) = get_path(addr, "/metrics");
        assert_eq!(status, 200);
        for metric in [
            "monarch_events_dropped_total",
            "monarch_trace_spans_dropped_total",
            "monarch_profile_files_tracked",
            "monarch_residency_transitions_total",
        ] {
            assert!(body.contains(metric), "{metric} missing from /metrics");
        }

        let (status, body) = get_path(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"observe\""), "observe section in snapshot");
        assert!(body.contains("\"f000\""), "profiled file present");
        assert!(body.contains("\"timeline\""), "residency timeline present");
        m.shutdown();
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        let m = mem_monarch(2, 64);
        let addr = m.serve("127.0.0.1:0").unwrap();
        let workers: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        let path = if i % 2 == 0 { "/metrics" } else { "/snapshot" };
                        let (status, body) = get_path(addr, path);
                        assert_eq!(status, 200);
                        assert!(!body.is_empty());
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("scraper thread");
        }
        m.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_without_wedging_the_worker() {
        let m = mem_monarch(1, 64);
        let addr = m.serve("127.0.0.1:0").unwrap();
        assert_eq!(get(addr, "THIS IS NOT HTTP\r\n\r\n").0, 400);
        assert_eq!(get(addr, "GET\r\n\r\n").0, 400, "truncated request line");
        // A client that connects and immediately hangs up must not take a
        // worker down either.
        drop(TcpStream::connect(addr).unwrap());
        // The exporter still serves normal requests afterwards.
        assert_eq!(get_path(addr, "/metrics").0, 200);
        assert_eq!(get_path(addr, "/healthz").1, "ok\n");
        m.shutdown();
    }

    #[test]
    fn healthz_reports_draining_and_degraded() {
        // Drive the handler directly over hand-built parts, so the drain
        // flag can be flipped without racing a real shutdown.
        let m = mem_monarch(1, 64);
        let shutting_down = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Stats::new(2));
        let health = Arc::new(crate::health::HealthRegistry::new(vec![
            "ssd".into(),
            "pfs".into(),
        ]));
        let parts = ServeParts {
            telemetry: Arc::clone(m.telemetry()),
            sampler: m.sampler(),
            stats: Arc::clone(&stats),
            shutting_down: Arc::clone(&shutting_down),
            health: Arc::clone(&health),
            cluster: None,
        };
        let server = MetricsServer::start("127.0.0.1:0", parts).unwrap();
        let addr = server.addr();
        assert_eq!(get_path(addr, "/healthz").1, "ok\n");
        stats.pool_join_failure();
        assert_eq!(get_path(addr, "/healthz").1, "degraded\n");
        shutting_down.store(true, Ordering::Release);
        assert_eq!(
            get_path(addr, "/healthz").1,
            "draining\n",
            "drain wins over degraded"
        );
        server.stop();
        m.shutdown();
    }

    #[test]
    fn healthz_reports_degraded_while_a_tier_is_quarantined() {
        let m = mem_monarch(1, 64);
        let addr = m.serve("127.0.0.1:0").unwrap();
        assert_eq!(get_path(addr, "/healthz").1, "ok\n");
        // A permanent device error quarantines the tier instantly.
        let health = m.hierarchy().health();
        let permanent = crate::health::ErrorClass::Permanent;
        health.tier(0).record_error(permanent, &health.config(), 0);
        assert_eq!(get_path(addr, "/healthz").1, "degraded\n");
        // The snapshot carries the health section with the quarantined tier.
        let (status, body) = get_path(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(body.contains("\"health\""));
        assert!(body.contains("\"quarantined\""));
        m.shutdown();
    }

    #[test]
    fn builder_metrics_addr_autostarts_and_shutdown_stops_it() {
        let pfs = MemDriver::new("pfs");
        pfs.insert("f", vec![7u8; 64]);
        let hierarchy = StorageHierarchy::new(vec![
            (
                "ssd".into(),
                Arc::new(MemDriver::new("ssd")) as Arc<dyn StorageDriver>,
                Some(1 << 20),
            ),
            ("pfs".into(), Arc::new(pfs), None),
        ])
        .unwrap();
        let m = MonarchBuilder::new()
            .hierarchy(hierarchy)
            .with_metrics_addr("127.0.0.1:0")
            .build()
            .unwrap();
        let addr = m.serve_addr().expect("builder started the exporter");
        assert_eq!(get_path(addr, "/healthz").0, 200);
        m.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || get_path_safe(addr).is_none(),
            "exporter is gone after shutdown"
        );
    }

    /// `get_path` that tolerates the server being down.
    fn get_path_safe(addr: SocketAddr) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .ok()?;
        let mut response = String::new();
        stream.read_to_string(&mut response).ok()?;
        if response.is_empty() {
            None
        } else {
            Some(response)
        }
    }
}
