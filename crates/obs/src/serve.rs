//! Live telemetry exposition over plain `std::net::TcpListener`.
//!
//! [`serve`] binds a minimal HTTP/1.1 endpoint on a background thread
//! and answers four routes out of a shared [`ShardedRecorder`]:
//!
//! | route      | content type                | payload |
//! |------------|-----------------------------|---------|
//! | `/metrics` | `text/plain; version=0.0.4` | Prometheus exposition (registry + drop classes) |
//! | `/trace`   | `application/json`          | the schema-v1 JSON trace snapshot |
//! | `/stacks`  | `text/plain`                | collapsed stacks for `scripts/flamegraph.sh` |
//! | `/healthz` | `text/plain`                | `ok` |
//!
//! `/trace/chrome` additionally serves the Chrome trace-event export.
//! Every response snapshot flushes the shards first, so a scrape
//! always observes completed work. The server is intentionally
//! single-threaded and connection-per-request (`Connection: close`):
//! it exists for scrapes and spot checks, not traffic.

use crate::shard::ShardedRecorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Handle to a running exposition endpoint. Dropping it (or calling
/// [`shutdown`](ObsServer::shutdown)) stops the accept loop and joins
/// the server thread.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// The address the listener actually bound — useful with port 0
    /// (`127.0.0.1:0`), where the OS picks a free port.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:9464"` or `"127.0.0.1:0"` for an
/// ephemeral port) and serves the recorder's telemetry until the
/// returned [`ObsServer`] is dropped.
pub fn serve(
    recorder: Arc<ShardedRecorder>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<ObsServer> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("mec-obs-serve".into())
        .spawn(move || {
            while !thread_stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => handle_connection(stream, &recorder),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        })?;
    Ok(ObsServer {
        addr,
        stop,
        handle: Some(handle),
    })
}

fn handle_connection(mut stream: TcpStream, recorder: &ShardedRecorder) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let Some(path) = read_request_path(&mut stream) else {
        let _ = respond(&mut stream, 400, "text/plain", "bad request\n");
        return;
    };
    let _ = match path.as_str() {
        "/healthz" => respond(&mut stream, 200, "text/plain", "ok\n"),
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4",
            &recorder.to_prometheus_string(),
        ),
        "/trace" => respond(
            &mut stream,
            200,
            "application/json",
            &recorder.to_json_string(),
        ),
        "/trace/chrome" => respond(
            &mut stream,
            200,
            "application/json",
            &recorder.to_chrome_trace_string(),
        ),
        "/stacks" => respond(
            &mut stream,
            200,
            "text/plain",
            &recorder.to_collapsed_stacks(),
        ),
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    };
}

/// Reads up to the header terminator and extracts the request path
/// from `GET <path> HTTP/1.1`. Query strings are ignored.
fn read_request_path(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let request_line = text.lines().next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?;
    if method != "GET" {
        return None;
    }
    let target = parts.next()?;
    let path = target.split('?').next().unwrap_or(target);
    Some(path.to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        _ => "Not Found",
    };
    let header = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, TraceSink};

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
        stream.write_all(request.as_bytes()).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn endpoint_serves_all_routes() {
        let recorder = Arc::new(ShardedRecorder::new());
        span(recorder.as_ref(), "pipeline.solve").finish();
        recorder.counter_add("greedy.moves_evaluated", 3);
        recorder.histogram_record("stage.greedy_nanos", 1_000);
        let server = serve(Arc::clone(&recorder), "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("mec_obs_dropped_records{class=\"span\"} 0"));
        assert!(body.contains("greedy_moves_evaluated 3"), "{body}");
        assert!(body.contains("stage_greedy_nanos"), "{body}");

        let (_, body) = get(addr, "/trace");
        assert!(body.contains("\"version\": 1"), "{body}");
        assert!(body.contains("pipeline.solve"), "{body}");

        let (_, body) = get(addr, "/trace/chrome");
        assert!(body.contains("\"traceEvents\""), "{body}");
        assert!(body.contains("\"ph\":\"X\""), "{body}");

        let (head, body) = get(addr, "/stacks");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("pipeline.solve"), "{body}");

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    }

    #[test]
    fn shutdown_is_idempotent_and_frees_the_port() {
        let recorder = Arc::new(ShardedRecorder::new());
        let mut server = serve(recorder, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.shutdown();
        server.shutdown();
        drop(server);
        // port is free again: a new bind to the same address succeeds
        let _rebind = TcpListener::bind(addr).expect("rebind after shutdown");
    }
}
