//! The live status endpoint: a minimal `std::net` HTTP/1.1 server.
//!
//! [`SimSession`](fairsched_sim::SimSession) holds a `Box<dyn Scheduler>`
//! without a `Send` bound, so the session cannot cross into a listener
//! thread. The daemon therefore renders its three JSON documents
//! *eagerly* after every drain into a shared [`Endpoints`] cell, and the
//! listener thread serves those cached strings — `GET` never touches the
//! engine, and a slow client can never stall a drain. The thread blocks
//! in `accept` (no poll interval sits between a request and its answer);
//! [`HttpServer::stop`] wakes it with a connection of its own.
//!
//! Routes (all `GET`, all `application/json`):
//!
//! * `/status` — scheduler/workload/seed identity plus live counters;
//! * `/report` — the default metric set evaluated at the stepped-to mark;
//! * `/series` — the ψ_sp timeline from the streaming series sweep.

use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The three cached JSON documents the listener serves. The daemon
/// rewrites them after every drain; requests read them under the lock.
#[derive(Clone, Debug, Default)]
pub struct Endpoints {
    /// The `/status` document.
    pub status: String,
    /// The `/report` document.
    pub report: String,
    /// The `/series` document.
    pub series: String,
}

/// A running listener thread. Dropping without [`stop`](Self::stop)
/// leaves the thread running until process exit (the daemon always
/// stops it explicitly on shutdown).
#[derive(Debug)]
pub struct HttpServer {
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `bind` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// the listener thread serving `endpoints`.
    pub fn start(
        bind: &str,
        endpoints: Arc<Mutex<Endpoints>>,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || loop {
            // A blocking accept: a request is served the moment it
            // arrives. `stop` sets the flag, then connects once to get
            // the thread past this call.
            let accepted = listener.accept();
            if flag.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => serve_one(stream, &endpoints),
                // Transient accept failure; keep listening.
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        });
        Ok(HttpServer { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (the daemon writes it to `http.txt` so scripts
    /// can discover an ephemeral port).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Signals the listener thread, wakes it out of `accept` with one
    /// connection to its own address, and joins it.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let woken = std::net::TcpStream::connect(self.wake_addr()).is_ok();
        if let Some(handle) = self.handle.take() {
            // Unreachable own address: leave the thread to process exit
            // rather than block shutdown on a join that cannot finish.
            if woken {
                let _ = handle.join();
            }
        }
    }

    /// Where a local connection reaches the listener: the bound address,
    /// with a wildcard bind (`0.0.0.0`, `::`) replaced by loopback.
    fn wake_addr(&self) -> std::net::SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                std::net::SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                std::net::SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        addr
    }
}

/// Reads one request (header section only, capped) and writes one
/// response. Any socket error just drops the connection — the protocol
/// is read-only and the client's next request retries.
fn serve_one(mut stream: std::net::TcpStream, endpoints: &Arc<Mutex<Endpoints>>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let body = if method != "GET" {
        None
    } else {
        let docs = endpoints.lock().unwrap_or_else(|e| e.into_inner());
        match path {
            "/status" => Some(docs.status.clone()),
            "/report" => Some(docs.report.clone()),
            "/series" => Some(docs.series.clone()),
            _ => None,
        }
    };
    let response = match body {
        Some(body) => format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        ),
        None => {
            let body = "{\"error\":\"not found\"}";
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len(),
            )
        }
    };
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn serves_cached_documents_and_404s_unknown_paths() {
        let endpoints = Arc::new(Mutex::new(Endpoints {
            status: "{\"ok\":1}".to_string(),
            report: "{\"ok\":2}".to_string(),
            series: "{\"ok\":3}".to_string(),
        }));
        let server = HttpServer::start("127.0.0.1:0", Arc::clone(&endpoints)).unwrap();
        let addr = server.addr();

        let status = get(addr, "/status");
        assert!(status.starts_with("HTTP/1.1 200 OK"), "{status}");
        assert!(status.ends_with("{\"ok\":1}"), "{status}");
        assert!(get(addr, "/report").ends_with("{\"ok\":2}"));
        assert!(get(addr, "/series").ends_with("{\"ok\":3}"));
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));

        // The daemon refreshes the cell; the next request sees it.
        endpoints.lock().unwrap().status = "{\"ok\":9}".to_string();
        assert!(get(addr, "/status").ends_with("{\"ok\":9}"));

        server.stop();
    }
}
