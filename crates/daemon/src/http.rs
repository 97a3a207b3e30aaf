//! Hand-rolled HTTP/1.1, std-only.
//!
//! The workspace is offline — no tokio, no hyper — and the control
//! plane's needs are tiny: small JSON bodies, one request per
//! connection (`Connection: close`), a handful of concurrent clients.
//! So: a [`std::net::TcpListener`] accept loop feeding a **bounded**
//! channel drained by a fixed pool of worker threads. Bounded matters —
//! a flood of connections blocks in the accept thread instead of
//! growing an unbounded queue.
//!
//! Request bodies are capped at [`MAX_BODY_BYTES`]; anything larger is
//! answered `413` without being stored (what the client still sends is
//! discarded, so the close does not reset the connection under the
//! response). The head (request line and headers) is capped at 16 KiB
//! as it is read, so a line that never ends costs at most that much
//! memory before its `413`; a head that is not UTF-8, or a request cut
//! short, is a `400`. A handler that panics is answered `500` and its
//! pool thread lives on. The matching [`client`] speaks exactly this
//! dialect and is what `eavsctl` and worker mode use; it reads reply
//! heads through the same capped line reader and never trusts a reply's
//! `Content-Length` for more than 64 MiB of memory up front.

use std::any::Any;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request body accepted, bytes. Campaign specs are ~2 KiB;
/// 1 MiB leaves two orders of magnitude of headroom while keeping a
/// hostile client from ballooning memory.
pub const MAX_BODY_BYTES: u64 = 1 << 20;

/// Largest request head (request line + headers, line terminators
/// included) accepted, bytes.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// Most of a reply's declared `Content-Length` the client reserves up
/// front, bytes. A reply up to this size lands in one exact allocation
/// (a `/metrics` page with a few dozen campaigns resident passes 1 MiB);
/// a larger one grows as its bytes arrive, so a length the peer never
/// delivers costs only untouched address space.
const MAX_REPLY_RESERVE: u64 = 64 << 20;

/// Per-connection socket timeout. Generous: a coordinator may stall a
/// worker's claim briefly while folding, but nothing legitimate holds a
/// socket for tens of seconds.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// How much of a refused request the server reads and discards before
/// closing, at most, and for how long (see [`linger`]).
const DRAIN_BYTES: u64 = 16 * MAX_BODY_BYTES;
const DRAIN_TIME: Duration = Duration::from_secs(2);

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Percent-decoded-free path, query string stripped.
    pub path: String,
    /// The body (empty when none was sent).
    pub body: Vec<u8>,
}

/// A response to write.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json".to_owned(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_owned(),
            body: body.into().into_bytes(),
        }
    }

    /// A structured JSON error body: `{"error": ..., "detail": ...}`.
    pub fn error(status: u16, error: &str, detail: &str) -> Response {
        let body = crate::json::Value::Obj(vec![
            ("error".into(), crate::json::Value::str(error)),
            ("detail".into(), crate::json::Value::str(detail)),
        ])
        .render();
        Response::json(status, body)
    }
}

fn status_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// The handler the server dispatches every request to.
pub type Handler = Arc<dyn Fn(Request) -> Response + Send + Sync>;

/// A running HTTP server: accept thread plus a fixed worker pool.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving on
    /// `threads` worker threads.
    ///
    /// # Errors
    ///
    /// Returns a message when the address cannot be bound.
    pub fn bind(addr: &str, threads: usize, handler: Handler) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = threads.max(1);
        // Bounded hand-off: at most 2× pool depth of parked sockets.
        let (tx, rx) = sync_channel::<TcpStream>(threads * 2);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = Arc::clone(&rx);
            let handler = Arc::clone(&handler);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("eavsd-http-{i}"))
                    .spawn(move || worker_loop(&rx, &handler))
                    .expect("spawn http worker"),
            );
        }

        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("eavsd-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // A send fails only when all workers are gone.
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                // Dropping `tx` wakes every worker with a closed channel.
            })
            .expect("spawn http acceptor");

        Ok(Server {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins all threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, handler: &Handler) {
    loop {
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return };
        let _ = serve_connection(stream, handler);
    }
}

fn serve_connection(stream: TcpStream, handler: &Handler) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let (response, refused) = match read_request(&mut reader) {
        Ok(request) => (call_handler(handler, request), false),
        Err(ReadError::TooLarge(detail)) => {
            (Response::error(413, "payload too large", &detail), true)
        }
        Err(ReadError::Malformed(detail)) => {
            (Response::error(400, "malformed request", &detail), true)
        }
        Err(ReadError::Io(e)) => return Err(e),
    };
    let mut stream = reader.into_inner();
    write_response(&mut stream, &response)?;
    if refused {
        linger(&mut stream);
    }
    Ok(())
}

/// Runs `handler` on `request`, turning a panic into a `500` with the
/// structured error body. A panic that unwound out of the worker would
/// end its thread, and the pool is fixed: once every thread is gone the
/// acceptor exits and the server stops answering while its process
/// stays up.
fn call_handler(handler: &Handler, request: Request) -> Response {
    std::panic::catch_unwind(AssertUnwindSafe(|| handler(request))).unwrap_or_else(|payload| {
        let detail = panic_message(&*payload).unwrap_or("handler panicked");
        Response::error(500, "internal error", detail)
    })
}

/// The message of a caught panic, when its payload is a string (as from
/// `panic!` and `expect`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> Option<&str> {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
}

/// Closing a socket that still holds unread request bytes makes the
/// kernel reset the connection, which can destroy the response before
/// the client has read it. After refusing a request unread, end the
/// response with a FIN and discard (never store) what the client still
/// sends, within [`DRAIN_BYTES`] and about [`DRAIN_TIME`].
fn linger(stream: &mut TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err()
        || stream.set_read_timeout(Some(DRAIN_TIME)).is_err()
    {
        return;
    }
    let deadline = Instant::now() + DRAIN_TIME;
    let mut buf = [0u8; 8192];
    let mut left = DRAIN_BYTES;
    while left > 0 && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n as u64),
        }
    }
}

enum ReadError {
    TooLarge(String),
    Malformed(String),
    Io(std::io::Error),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::TooLarge(detail) | ReadError::Malformed(detail) => f.write_str(detail),
            ReadError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one request from `reader`. Total over its input: any bytes
/// give a request or a refusal ([`ReadError::TooLarge`] or
/// [`ReadError::Malformed`]); only a failing read is an
/// [`ReadError::Io`].
fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_left = MAX_HEAD_BYTES;
    let mut line = String::new();
    take_line(reader, &mut line, &mut head_left, "request")?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let path = target.split('?').next().unwrap_or("").to_owned();

    let mut content_length: u64 = 0;
    loop {
        take_line(reader, &mut line, &mut head_left, "request")?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Malformed("bad Content-Length".into()))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge(format!(
            "request bodies are capped at {MAX_BODY_BYTES} bytes"
        )));
    }
    let mut body = vec![0u8; content_length as usize];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            ReadError::Malformed("connection closed mid-body".into())
        }
        _ => ReadError::Io(e),
    })?;
    Ok(Request { method, path, body })
}

/// Reads one CRLF-terminated line (without the terminator) of a
/// `side` (`"request"` or `"response"`) head into `line` and charges its
/// bytes to the head's remaining budget `left`. The read stops one byte
/// past the budget, so a line that never ends is refused as soon as it
/// outgrows the head instead of being buffered whole, and a line the
/// peer ends without its `\n` is malformed. The server reads request
/// heads and the [`client`] response heads through it.
fn take_line(
    reader: &mut impl BufRead,
    line: &mut String,
    left: &mut u64,
    side: &str,
) -> Result<(), ReadError> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    let n = reader
        .by_ref()
        .take(*left + 1)
        .read_until(b'\n', &mut bytes)? as u64;
    if n > *left {
        return Err(ReadError::TooLarge(format!(
            "{side} heads are capped at {MAX_HEAD_BYTES} bytes"
        )));
    }
    if bytes.last() != Some(&b'\n') {
        return Err(ReadError::Malformed(format!(
            "connection closed mid-{side}"
        )));
    }
    *left -= n;
    *line = String::from_utf8(bytes)
        .map_err(|_| ReadError::Malformed(format!("{side} head is not UTF-8")))?;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_phrase(response.status),
        response.content_type,
        response.body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// The client half: one request per connection, `Connection: close`.
pub mod client {
    use super::*;

    /// Issues `method path` against `addr` with `body` and returns
    /// `(status, body)`.
    ///
    /// # Errors
    ///
    /// Returns a message on connect/IO failure or a malformed response.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let (status, _, body) = request_full(addr, method, path, body)?;
        Ok((status, body))
    }

    /// Like [`request`], but also returns the response `Content-Type`
    /// (empty when the server sent none) — `/metrics` consumers check
    /// it against [`eavs_obs::TEXT_FORMAT`].
    ///
    /// # Errors
    ///
    /// Returns a message on connect/IO failure or a malformed response.
    pub fn request_full(
        addr: &str,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, String, Vec<u8>), String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let mut stream = stream;
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len(),
        );
        // A send failure is not immediately fatal: a server that
        // refuses an oversized body from the Content-Length header
        // responds and closes without reading the payload, so our
        // write sees EPIPE while a perfectly good 413 is waiting to be
        // read. Try the read first; surface the send error only when
        // no response came back either.
        let send = stream
            .write_all(head.as_bytes())
            .and_then(|()| stream.write_all(body))
            .and_then(|()| stream.flush());

        let mut reader = BufReader::new(stream);
        let mut head_left = MAX_HEAD_BYTES;
        let mut line = String::new();
        match (
            take_line(&mut reader, &mut line, &mut head_left, "response"),
            &send,
        ) {
            (Err(_), Err(e)) => return Err(format!("send {method} {path}: {e}")),
            (Err(e), Ok(())) => return Err(format!("read status: {e}")),
            (Ok(()), _) => {}
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("malformed status line {line:?}"))?;
        let mut content_length: Option<u64> = None;
        let mut content_type = String::new();
        loop {
            take_line(&mut reader, &mut line, &mut head_left, "response")
                .map_err(|e| format!("read headers: {e}"))?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("content-type") {
                    content_type = value.trim().to_owned();
                }
            }
        }
        let reserve = content_length.unwrap_or(0).min(MAX_REPLY_RESERVE);
        let mut body = Vec::with_capacity(reserve as usize);
        reader
            .take(content_length.unwrap_or(u64::MAX))
            .read_to_end(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        if let Some(n) = content_length.filter(|&n| body.len() as u64 != n) {
            return Err(format!("read body: {} of {n} bytes arrived", body.len()));
        }
        Ok((status, content_type, body))
    }

    /// Like [`request`], but decodes the body as UTF-8.
    ///
    /// # Errors
    ///
    /// Propagates [`request`] errors. A UTF-8 body becomes the string
    /// without a copy; a non-UTF-8 one is replaced lossily.
    pub fn request_text(
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let (status, bytes) = request(addr, method, path, body.as_bytes())?;
        let text = String::from_utf8(bytes)
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
        Ok((status, text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo_server() -> Server {
        let handler: Handler = Arc::new(|req: Request| {
            Response::text(
                200,
                format!(
                    "{} {} {}",
                    req.method,
                    req.path,
                    String::from_utf8_lossy(&req.body)
                ),
            )
        });
        Server::bind("127.0.0.1:0", 2, handler).unwrap()
    }

    #[test]
    fn round_trips_requests() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let (status, body) = client::request_text(&addr, "POST", "/x/y?q=1", "hello").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "POST /x/y hello");
        // Sequential requests work (connection-per-request).
        let (status, body) = client::request_text(&addr, "GET", "/z", "").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "GET /z ");
        server.shutdown();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    client::request_text(&addr, "GET", &format!("/{i}"), "").unwrap()
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let (status, body) = h.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("GET /{i} "));
        }
        server.shutdown();
    }

    #[test]
    fn oversized_bodies_get_413_without_reading() {
        let server = echo_server();
        let addr = server.addr().to_string();
        // Claim a giant body; the server must answer 413 from the
        // header alone (we never send the payload).
        let stream = TcpStream::connect(&addr).unwrap();
        let mut stream = stream;
        let head = format!(
            "POST /big HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("payload too large"));
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"NOT-HTTP\r\nContent-Length: zzz\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        BufReader::new(stream)
            .read_to_string(&mut response)
            .unwrap();
        assert!(
            response.starts_with("HTTP/1.1 400") || response.starts_with("HTTP/1.1 413"),
            "{response}"
        );
        server.shutdown();
    }

    /// Writes `bytes` and keeps the connection open (no FIN), then reads
    /// the whole response, giving up after five seconds.
    fn reply_to_open_request(addr: &str, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(bytes).unwrap();
        let mut response = Vec::new();
        let read = stream.read_to_end(&mut response);
        let response = String::from_utf8_lossy(&response).into_owned();
        assert!(
            read.is_ok(),
            "no complete response within 5 s: {read:?} {response:?}"
        );
        response
    }

    #[test]
    fn an_unterminated_head_line_gets_413_as_soon_as_it_passes_the_cap() {
        let server = echo_server();
        let addr = server.addr().to_string();
        let line = vec![b'A'; MAX_HEAD_BYTES as usize + 1];
        let response = reply_to_open_request(&addr, &line);
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("request heads are capped"), "{response}");
        server.shutdown();
    }

    #[test]
    fn a_non_utf8_head_gets_400() {
        let server = echo_server();
        let addr = server.addr().to_string();
        for head in [
            &b"GET /\xff\xfe HTTP/1.1\r\n\r\n"[..],
            &b"GET / HTTP/1.1\r\nX-Bad: \xc3\x28\r\n\r\n"[..],
        ] {
            let response = reply_to_open_request(&addr, head);
            assert!(response.starts_with("HTTP/1.1 400"), "{response}");
            assert!(response.contains("not UTF-8"), "{response}");
        }
        server.shutdown();
    }

    /// A one-connection stub server: reads the request head, writes
    /// `reply`, then either closes or holds the socket open until the
    /// client hangs up. Returns its address and its thread.
    fn stub_reply(reply: Vec<u8>, hold_open: bool) -> (String, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stub = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 2 {
                line.clear();
            }
            let mut stream = reader.into_inner();
            let _ = stream.write_all(&reply);
            if hold_open {
                let _ = stream.read_to_end(&mut Vec::new());
            }
        });
        (addr, stub)
    }

    #[test]
    fn a_reply_shorter_than_its_huge_content_length_is_an_error() {
        let (addr, stub) = stub_reply(
            b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000000\r\n\r\npartial".to_vec(),
            false,
        );
        let err = client::request(&addr, "GET", "/", b"").unwrap_err();
        assert!(err.contains("7 of 1000000000000000 bytes"), "{err}");
        stub.join().unwrap();
    }

    #[test]
    fn an_unterminated_reply_header_is_an_error_as_soon_as_it_passes_the_cap() {
        let mut reply = b"HTTP/1.1 200 OK\r\nX-Long: ".to_vec();
        reply.resize(reply.len() + MAX_HEAD_BYTES as usize, b'A');
        let (addr, stub) = stub_reply(reply, true);
        let started = Instant::now();
        let err = client::request(&addr, "GET", "/", b"").unwrap_err();
        assert!(err.contains("response heads are capped"), "{err}");
        // Refused at the cap, not after the socket timeout.
        assert!(started.elapsed() < Duration::from_secs(10), "{err}");
        stub.join().unwrap();
    }

    #[test]
    fn a_panicking_handler_answers_500_and_keeps_the_pool() {
        let handler: Handler = Arc::new(|req: Request| {
            assert!(req.path != "/boom", "boom on {}", req.path);
            Response::text(200, "ok")
        });
        let server = Server::bind("127.0.0.1:0", 2, handler).unwrap();
        let addr = server.addr().to_string();
        // More panics than pool threads: each must leave its thread alive.
        for _ in 0..3 {
            let response = reply_to_open_request(&addr, b"GET /boom HTTP/1.1\r\n\r\n");
            assert!(response.starts_with("HTTP/1.1 500"), "{response}");
            assert!(response.contains("boom on /boom"), "{response}");
        }
        let response = reply_to_open_request(&addr, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = echo_server();
        let addr = server.addr().to_string();
        server.shutdown();
        assert!(client::request_text(&addr, "GET", "/", "").is_err());
    }

    mod totality {
        use super::super::{read_request, ReadError, MAX_BODY_BYTES};
        use proptest::prelude::*;

        /// A request as the client writes it.
        fn valid_request(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
            let mut bytes = format!(
                "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(body);
            bytes
        }

        /// Reads `bytes` as one request: any outcome is a request or a
        /// 400/413-class refusal, never a panic or an I/O error.
        fn read_is_total(bytes: &[u8]) -> Result<(), TestCaseError> {
            match read_request(&mut &bytes[..]) {
                Ok(request) => {
                    prop_assert!(request.body.len() as u64 <= MAX_BODY_BYTES);
                }
                Err(ReadError::TooLarge(_) | ReadError::Malformed(_)) => {}
                Err(ReadError::Io(e)) => {
                    return Err(TestCaseError::fail(format!("I/O error on a slice: {e}")))
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
                read_is_total(&bytes)?;
            }

            #[test]
            fn valid_requests_round_trip(
                path in "/[a-z0-9/]{0,24}",
                body in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let request = read_request(&mut &valid_request("POST", &path, &body)[..]);
                let Ok(request) = request else {
                    return Err(TestCaseError::fail(format!("refused {path:?}")));
                };
                prop_assert_eq!(request.method, "POST");
                prop_assert_eq!(request.path, path);
                prop_assert_eq!(request.body, body);
            }

            /// One byte of a valid request replaced: any outcome but a panic.
            #[test]
            fn single_byte_mutations_never_panic(
                path in "/[a-z0-9/]{0,24}",
                body in proptest::collection::vec(any::<u8>(), 0..64),
                at in any::<usize>(),
                byte in any::<u8>(),
            ) {
                let mut bytes = valid_request("PUT", &path, &body);
                let at = at % bytes.len();
                bytes[at] = byte;
                read_is_total(&bytes)?;
            }

            /// Every proper prefix of a valid request is refused.
            #[test]
            fn truncations_are_refused(
                path in "/[a-z0-9/]{0,24}",
                body in proptest::collection::vec(any::<u8>(), 0..64),
            ) {
                let bytes = valid_request("POST", &path, &body);
                for cut in 0..bytes.len() {
                    let refused = matches!(
                        read_request(&mut &bytes[..cut]),
                        Err(ReadError::TooLarge(_) | ReadError::Malformed(_))
                    );
                    prop_assert!(refused, "prefix of {} bytes accepted", cut);
                }
            }

            /// `Content-Length` anywhere in `u64` (and just past it): a
            /// request only when the body is there and within the cap.
            #[test]
            fn content_length_sweeps_to_u64_max(
                shift in 0u32..64,
                low in any::<u64>(),
                sent in 0usize..32,
            ) {
                let claimed = low >> shift;
                let mut bytes = format!("POST /x HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n").into_bytes();
                bytes.resize(bytes.len() + sent, b'z');
                match read_request(&mut &bytes[..]) {
                    Ok(request) => {
                        prop_assert!(claimed <= sent as u64);
                        prop_assert_eq!(request.body.len() as u64, claimed);
                    }
                    Err(ReadError::TooLarge(_)) => prop_assert!(claimed > MAX_BODY_BYTES),
                    Err(ReadError::Malformed(_)) => prop_assert!(claimed > sent as u64),
                    Err(ReadError::Io(e)) => {
                        return Err(TestCaseError::fail(format!("I/O error on a slice: {e}")))
                    }
                }
            }
        }

        #[test]
        fn content_length_extremes() {
            for claimed in [
                "18446744073709551615",
                "18446744073709551616",
                "-1",
                "1e3",
                "",
            ] {
                let bytes = format!("GET / HTTP/1.1\r\nContent-Length: {claimed}\r\n\r\n");
                assert!(
                    matches!(
                        read_request(&mut bytes.as_bytes()),
                        Err(ReadError::TooLarge(_) | ReadError::Malformed(_))
                    ),
                    "Content-Length {claimed:?} accepted"
                );
            }
        }
    }
}
