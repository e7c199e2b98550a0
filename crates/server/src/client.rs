//! Blocking TCP client for the job service.
//!
//! Every call is one request→response exchange with a per-request
//! deadline. Transport failures (connect refused, read timeout,
//! dropped connection) are retried with capped exponential backoff —
//! `backoff_base << attempt`, the same idiom the NoC uses for faulty
//! links — and submissions are made **idempotent** by a client-side
//! request token: a retry after an ambiguous failure (the request may
//! or may not have been accepted) resubmits under the same token, and
//! the server answers with the *original* job instead of queueing a
//! duplicate. Typed server rejections ([`JobError::Overloaded`],
//! [`JobError::QuotaExceeded`], …) are never retried — they are
//! answers, not failures.
//!
//! A submission the server finds already terminal — a resident cache
//! hit, say — comes back with its result ([`net::RESP_RESOLVED`]). The
//! client keeps such results in a small stash, and [`Client::wait`]
//! returns one from there without a round trip.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime};

use crate::job::{JobError, JobId, JobStatus};
use crate::net::{self, RecvBuf, RemoteStats, Request, Response};
use crate::server::Submission;
use xmt_sim::{IntervalRow, RunReport};

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect deadline per attempt.
    pub connect_timeout: Duration,
    /// Response deadline per request (on top of any server-side wait
    /// bound for [`Client::wait`]).
    pub request_timeout: Duration,
    /// Transport retries after the first attempt (typed server errors
    /// are never retried).
    pub retries: u32,
    /// First retry backoff; attempt `n` sleeps `backoff_base << n`,
    /// capped at two seconds.
    pub backoff_base: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(30),
            retries: 4,
            backoff_base: Duration::from_millis(25),
        }
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure after exhausting retries.
    Io(io::Error),
    /// The per-request deadline expired waiting for the response.
    Timeout,
    /// The peer sent a frame this client cannot parse (or rejected
    /// ours as malformed).
    Protocol(&'static str),
    /// The server answered with a typed job error.
    Server(JobError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
            ClientError::Timeout => write!(f, "request deadline expired"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Transport-level failures are retryable; typed answers are not.
    fn retryable(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Timeout)
    }
}

/// A terminal result fetched over the wire: the canonical report bytes
/// plus the decoded report. The typed [`xmt_sim::SimError`] of a
/// failed run does not cross the wire — `completed` distinguishes the
/// two terminal states, and the (partial) report carries the cycles.
#[derive(Debug, Clone)]
pub struct RemoteResult {
    /// True for a completed run, false for a failed one.
    pub completed: bool,
    /// Served from the server's content cache.
    pub from_cache: bool,
    /// Worker slices the job took.
    pub slices: u32,
    /// Canonical [`crate::wire::encode_report`] bytes — byte-identical to
    /// what a local [`crate::JobHandle::wait`] returns.
    pub bytes: Vec<u8>,
    /// The decoded report.
    pub report: RunReport,
}

/// Blocking client: one TCP connection, re-established on demand.
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<Conn>,
    next_token: u64,
    /// Results that came with their submit acknowledgement.
    stash: Stash,
    /// The request frame being sent, encoded in place; kept from call
    /// to call, so it allocates only when a frame outgrows it.
    tx: Vec<u8>,
}

/// Most results the stash keeps.
const STASH_ENTRIES: usize = 64;

/// Most report bytes the stashed results hold between them; a larger
/// result is not kept.
const STASH_BYTES: usize = 16 << 20;

/// Results that arrived with their submit acknowledgement, oldest
/// first, for [`Client::wait`] to take without a round trip. Bounded by
/// [`STASH_ENTRIES`] and [`STASH_BYTES`], oldest evicted first; an
/// evicted result is fetched by an ordinary `Wait`, as is one that was
/// never kept.
#[derive(Default)]
struct Stash {
    results: VecDeque<(JobId, RemoteResult)>,
    bytes: usize,
}

impl Stash {
    fn put(&mut self, id: JobId, r: RemoteResult) {
        self.take(id);
        if r.bytes.len() > STASH_BYTES {
            return;
        }
        self.bytes += r.bytes.len();
        self.results.push_back((id, r));
        while self.results.len() > STASH_ENTRIES || self.bytes > STASH_BYTES {
            let (_, old) = self
                .results
                .pop_front()
                .expect("over a bound, so not empty");
            self.bytes -= old.bytes.len();
        }
    }

    fn take(&mut self, id: JobId) -> Option<RemoteResult> {
        let at = self.results.iter().position(|(k, _)| *k == id)?;
        let (_, r) = self.results.remove(at)?;
        self.bytes -= r.bytes.len();
        Some(r)
    }
}

/// Longest single socket read while waiting for a response: the
/// deadline is looked at between reads.
const READ_TICK: Duration = Duration::from_millis(200);

/// One live connection: its socket, its receive buffer, and the read
/// timeout last set on the socket. Dropped whole, so no byte of a dead
/// connection reaches the next one.
struct Conn {
    sock: TcpStream,
    rx: RecvBuf,
    read_timeout: Option<Duration>,
}

impl Conn {
    fn new(sock: TcpStream) -> Conn {
        Conn {
            sock,
            rx: RecvBuf::default(),
            read_timeout: None,
        }
    }
}

impl Client {
    /// Connect to a job server (retrying per the config).
    pub fn connect(addr: &str, cfg: ClientConfig) -> Result<Client, ClientError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(ClientError::Io)?
            .next()
            .ok_or(ClientError::Protocol("address resolves to nothing"))?;
        // Process-unique token seed: retries of one logical submission
        // share a token; distinct submissions never do.
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        let mut c =
            Client::unconnected(addr, cfg, (nanos | 1) ^ ((std::process::id() as u64) << 32));
        c.with_retries(|c| c.ensure_conn().map(|_| ()))?;
        Ok(c)
    }

    fn unconnected(addr: SocketAddr, cfg: ClientConfig, next_token: u64) -> Client {
        Client {
            addr,
            cfg,
            conn: None,
            next_token,
            stash: Stash::default(),
            tx: Vec::new(),
        }
    }

    /// Submit a job. A `token` of 0 is replaced with a fresh
    /// client-generated one, so transport retries of this call are
    /// idempotent; keep your own token to make *cross-process* retries
    /// idempotent too. A result that came with the acknowledgement is
    /// kept for [`Client::wait`].
    pub fn submit(&mut self, mut sub: Submission) -> Result<JobId, ClientError> {
        if sub.token == 0 {
            sub.token = self.next_token;
            self.next_token = self.next_token.wrapping_add(1) | 1;
        }
        let req = Request::Submit(Box::new(sub));
        match self.rpc(&req, self.cfg.request_timeout)? {
            Response::Submitted(id) => Ok(id),
            Response::Resolved(id, r) => {
                self.stash.put(id, r);
                Ok(id)
            }
            _ => Err(UNEXPECTED),
        }
    }

    /// Status snapshot for a job.
    pub fn poll(&mut self, id: JobId) -> Result<JobStatus, ClientError> {
        match self.rpc(&Request::Poll(id), self.cfg.request_timeout)? {
            Response::Status(s) => Ok(s),
            _ => Err(UNEXPECTED),
        }
    }

    /// Wait for a job's terminal result, at most `timeout` (the server
    /// enforces the bound and answers [`JobError::Timeout`]; the job
    /// keeps running). A result kept from the job's submit
    /// acknowledgement is returned without a round trip, once.
    pub fn wait(&mut self, id: JobId, timeout: Duration) -> Result<RemoteResult, ClientError> {
        if let Some(r) = self.stash.take(id) {
            return Ok(r);
        }
        let req = Request::Wait {
            id,
            timeout_ms: timeout.as_millis() as u64,
        };
        // The socket deadline must outlast the server-side wait bound.
        match self.rpc(&req, timeout + self.cfg.request_timeout)? {
            Response::Result(r) => Ok(r),
            _ => Err(UNEXPECTED),
        }
    }

    /// Cancel a job (idempotent; finished jobs keep their result).
    pub fn cancel(&mut self, id: JobId) -> Result<(), ClientError> {
        match self.rpc(&Request::Cancel(id), self.cfg.request_timeout)? {
            Response::Ok => Ok(()),
            _ => Err(UNEXPECTED),
        }
    }

    /// Server + cache statistics.
    pub fn stats(&mut self) -> Result<RemoteStats, ClientError> {
        match self.rpc(&Request::Stats, self.cfg.request_timeout)? {
            Response::Stats(s) => Ok(s),
            _ => Err(UNEXPECTED),
        }
    }

    /// Collect a probed job's streamed interval rows until the stream
    /// ends (at the job's terminal state). `deadline` bounds the whole
    /// collection. Only the first streamer of a job receives rows.
    pub fn stream(
        &mut self,
        id: JobId,
        deadline: Duration,
    ) -> Result<Vec<IntervalRow>, ClientError> {
        // Streams are not idempotent (rows are consumed server-side):
        // no transport retry here.
        let hard = Instant::now() + deadline;
        self.with_frame(&Request::Stream(id), |c, frame| c.send_frame(frame))?;
        let mut rows = Vec::new();
        loop {
            let left = hard.saturating_duration_since(Instant::now());
            let next = if left.is_zero() {
                Err(ClientError::Timeout)
            } else {
                self.read_frame(left).and_then(response)
            };
            match next {
                Ok(Response::Row(row)) => rows.push(row),
                Ok(Response::End) => return Ok(rows),
                // Rows may still be in flight behind whatever this
                // was: the connection is out of step, drop it.
                other => {
                    self.conn = None;
                    return Err(other.err().unwrap_or(UNEXPECTED));
                }
            }
        }
    }

    /// One request→response exchange with transport retries. A typed
    /// refusal is an answer: it comes back as [`ClientError::Server`]
    /// without a retry and without dropping the connection.
    fn rpc(&mut self, req: &Request, read_deadline: Duration) -> Result<Response, ClientError> {
        // The frame is encoded once and resent as is on a retry.
        self.with_frame(req, |c, frame| {
            c.with_retries(|c| {
                c.send_frame(frame)?;
                c.read_frame(read_deadline).map(response)
            })
        })?
    }

    /// Run `f` on `req`'s frame, encoded in place into the kept send
    /// buffer.
    fn with_frame<T>(&mut self, req: &Request, f: impl FnOnce(&mut Client, &[u8]) -> T) -> T {
        let mut tx = std::mem::take(&mut self.tx);
        let out = f(self, net::frame_into(&mut tx, |b| net::put_request(b, req)));
        self.tx = tx;
        out
    }

    /// Run `f`, retrying transport failures with capped exponential
    /// backoff on a fresh connection; whatever error is final also
    /// drops the connection (a response may still be in flight on it).
    fn with_retries<T>(
        &mut self,
        mut f: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            match f(self) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    self.conn = None;
                    if !e.retryable() || attempt >= self.cfg.retries {
                        return Err(e);
                    }
                    std::thread::sleep(backoff(self.cfg.backoff_base, attempt));
                    attempt += 1;
                }
            }
        }
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn, ClientError> {
        if self.conn.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
                .map_err(ClientError::Io)?;
            let _ = s.set_nodelay(true);
            self.conn = Some(Conn::new(s));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        self.ensure_conn()?
            .sock
            .write_all(frame)
            .map_err(ClientError::Io)
    }

    /// Read one response frame within `deadline`, through the
    /// connection's receive buffer: a frame already buffered costs no
    /// read. Each read waits at most [`READ_TICK`], and the socket's
    /// timeout is set only when that wait changes — once per
    /// connection, then on each read in the last tick before the
    /// deadline. Timeouts surface as [`ClientError::Timeout`].
    fn read_frame(&mut self, deadline: Duration) -> Result<(u8, &[u8]), ClientError> {
        let conn = self
            .conn
            .as_mut()
            .ok_or(ClientError::Protocol("read without a connection"))?;
        let hard = Instant::now() + deadline;
        let n = loop {
            if let Some(n) = conn.rx.whole_frame().map_err(ClientError::Protocol)? {
                break n;
            }
            let left = hard.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClientError::Timeout);
            }
            let tick = Some(left.min(READ_TICK));
            if conn.read_timeout != tick && conn.sock.set_read_timeout(tick).is_ok() {
                conn.read_timeout = tick;
            }
            match conn.rx.fill(&mut conn.sock) {
                Ok(0) => return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into())),
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ClientError::Io(e)),
            }
        };
        net::split_frame(conn.rx.take(n)).map_err(ClientError::Protocol)
    }
}

/// A response tag the request never asks for: either a peer bug or a
/// desynchronized stream.
const UNEXPECTED: ClientError = ClientError::Protocol("unexpected response tag");

/// Decode a response frame; the server's typed refusals become errors.
fn response((tag, body): (u8, &[u8])) -> Result<Response, ClientError> {
    match net::decode_response(tag, body).map_err(ClientError::Protocol)? {
        Response::Err(Some(e)) => Err(ClientError::Server(e)),
        Response::Err(None) => Err(ClientError::Protocol("server rejected the request frame")),
        other => Ok(other),
    }
}

/// `backoff_base << attempt`, capped at two seconds.
fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << attempt.min(16))
        .min(Duration::from_secs(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetServer;
    use crate::net::MAX_FRAME;
    use crate::request::SimRequest;
    use crate::server::{Server, ServerConfig};
    use std::io::Write;
    use std::sync::Arc;

    fn serve() -> (Arc<Server>, NetServer) {
        let srv = Arc::new(
            Server::start(ServerConfig {
                workers: 2,
                quantum: 2_000,
                ..ServerConfig::default()
            })
            .unwrap(),
        );
        let net = NetServer::bind(Arc::clone(&srv), "127.0.0.1:0").unwrap();
        (srv, net)
    }

    #[test]
    fn submit_wait_over_loopback_matches_local_run() {
        let (srv, net) = serve();
        let local = srv
            .submit(SimRequest::golden("fft_radix8_n512").unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let mut c =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        let id = c
            .submit(Submission::new(
                SimRequest::golden("fft_radix8_n512").unwrap(),
            ))
            .unwrap();
        let r = c.wait(id, Duration::from_secs(120)).unwrap();
        assert!(r.completed);
        assert!(r.from_cache, "identical request is a cache hit");
        assert_eq!(r.bytes, local.bytes, "byte-identical over the wire");
        let status = c.poll(id).unwrap();
        assert_eq!(status.state, crate::job::JobState::Done);
    }

    #[test]
    fn wait_timeout_and_unknown_id_are_typed() {
        let (_srv, net) = serve();
        let mut c =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        let id = c
            .submit(Submission::new(
                SimRequest::golden("fft_radix8_n512").unwrap(),
            ))
            .unwrap();
        match c.wait(id, Duration::ZERO) {
            Err(ClientError::Server(JobError::Timeout)) => {}
            // The run can legitimately finish between submit and wait.
            Ok(r) => assert!(r.completed),
            other => panic!("expected Timeout, got {other:?}"),
        }
        match c.poll(9_999) {
            Err(ClientError::Server(JobError::UnknownJob)) => {}
            other => panic!("expected UnknownJob, got {other:?}"),
        }
        let stats = c.stats().unwrap();
        assert!(stats.server.submitted >= 1);
    }

    #[test]
    fn resubmission_with_same_token_is_idempotent_over_tcp() {
        let (_srv, net) = serve();
        let mut c =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        let sub = || {
            Submission::new(SimRequest::golden("ps_tickets").unwrap())
                .tenant("retry")
                .token(777)
        };
        let a = c.submit(sub()).unwrap();
        // Simulate an ambiguous failure: drop the connection and
        // resubmit the same token from a fresh one.
        drop(c);
        let mut c2 =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        let b = c2.submit(sub()).unwrap();
        assert_eq!(a, b, "same (tenant, token) names the same job");
        assert_eq!(c2.stats().unwrap().server.tokens_reused, 1);
    }

    #[test]
    fn raw_garbage_gets_typed_rejection_not_a_crash() {
        let (srv, net) = serve();
        // A sound frame with garbage inside: typed ERR_MALFORMED.
        let mut sock = std::net::TcpStream::connect(net.local_addr()).unwrap();
        sock.write_all(&frame_bytes(REQ_SUBMIT_RAW, &[0xFF; 40]))
            .unwrap();
        let mut c = Client::unconnected(net.local_addr(), ClientConfig::default(), 1);
        c.conn = Some(Conn::new(sock));
        match c.read_frame(Duration::from_secs(5)).and_then(response) {
            Err(ClientError::Protocol(_)) => {}
            other => panic!("expected protocol rejection, got {other:?}"),
        }
        // A torn frame (length prefix promising more than we send)
        // just drops the connection server-side; the server survives.
        let mut sock = std::net::TcpStream::connect(net.local_addr()).unwrap();
        sock.write_all(&[200, 0, 0, 0, 1, 2, 3]).unwrap();
        drop(sock);
        // Server is still fully functional.
        let mut c2 =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        let id = c2
            .submit(Submission::new(SimRequest::golden("ps_tickets").unwrap()))
            .unwrap();
        assert!(c2.wait(id, Duration::from_secs(120)).unwrap().completed);
        drop(net);
        drop(srv);
    }

    /// Alias so the raw-garbage test reads clearly.
    const REQ_SUBMIT_RAW: u8 = super::super::net::REQ_SUBMIT;

    // Framing through the receive buffers, at both ends of a socket.

    /// The bytes of one frame.
    fn frame_bytes(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        net::frame_into(&mut f, |b| {
            b.extend_from_slice(body);
            tag
        })
        .to_vec()
    }

    /// The bytes of one request frame.
    fn request_bytes(req: &Request) -> Vec<u8> {
        let (tag, body) = net::encode_request_frame(req);
        frame_bytes(tag, &body)
    }

    /// A client on a raw socket to `addr`, for reading responses to
    /// bytes written on that socket by hand.
    fn raw_client(addr: SocketAddr) -> (Client, TcpStream) {
        let sock = TcpStream::connect(addr).unwrap();
        sock.set_nodelay(true).unwrap();
        let writer = sock.try_clone().unwrap();
        let mut c = Client::unconnected(addr, ClientConfig::default(), 1);
        c.conn = Some(Conn::new(sock));
        (c, writer)
    }

    /// Whether the peer closed `sock` without a byte of answer (within
    /// five seconds).
    fn closed_without_answer(sock: &mut TcpStream) -> bool {
        use std::io::Read;
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut b = [0u8; 16];
        match sock.read(&mut b) {
            Ok(n) => n == 0,
            Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
        }
    }

    /// Write `bytes` one per write, a millisecond apart.
    fn trickle(w: &mut TcpStream, bytes: &[u8]) {
        for b in bytes {
            w.write_all(std::slice::from_ref(b)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn server_answers_three_requests_in_one_write_in_order() {
        let (_srv, net) = serve();
        let (mut c, mut w) = raw_client(net.local_addr());
        // A job of several slices, so it cannot have finished (and be
        // acknowledged `RESP_RESOLVED`) by the time its submission is
        // answered.
        let sub = Submission::new(SimRequest::golden("fft_radix8_n512").unwrap());
        let three = [
            request_bytes(&Request::Submit(Box::new(sub))),
            request_bytes(&Request::Poll(9_999)),
            request_bytes(&Request::Stats),
        ];
        w.write_all(&three.concat()).unwrap();
        let mut next = || c.read_frame(Duration::from_secs(30)).and_then(response);
        assert!(matches!(next(), Ok(Response::Submitted(0))));
        assert!(matches!(
            next(),
            Err(ClientError::Server(JobError::UnknownJob))
        ));
        match next() {
            Ok(Response::Stats(s)) => assert_eq!(s.server.submitted, 1),
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn server_decodes_a_frame_sent_one_byte_per_write() {
        let (_srv, net) = serve();
        let (mut c, mut w) = raw_client(net.local_addr());
        trickle(&mut w, &request_bytes(&Request::Stats));
        let r = c.read_frame(Duration::from_secs(30)).and_then(response);
        assert!(matches!(r, Ok(Response::Stats(_))), "got {r:?}");
    }

    /// End of stream mid-frame, and a length prefix out of bounds: the
    /// server drops that connection without an answer, and serves the
    /// next one.
    #[test]
    fn server_drops_a_torn_or_mislengthed_frame() {
        let (_srv, net) = serve();
        let stats = request_bytes(&Request::Stats);
        let too_long = (MAX_FRAME as u32 + 1).to_le_bytes();
        for (what, bytes) in [
            ("eof mid-frame", &stats[..stats.len() - 1]),
            ("length below magic+tag", &[8, 0, 0, 0, 1, 2, 3][..]),
            ("length past MAX_FRAME", &too_long[..]),
        ] {
            let mut sock = TcpStream::connect(net.local_addr()).unwrap();
            sock.write_all(bytes).unwrap();
            if what == "eof mid-frame" {
                sock.shutdown(std::net::Shutdown::Write).unwrap();
            }
            assert!(closed_without_answer(&mut sock), "{what}");
        }
        let mut c =
            Client::connect(&net.local_addr().to_string(), ClientConfig::default()).unwrap();
        assert_eq!(c.stats().unwrap().server.submitted, 0);
    }

    /// Stop joins within a few poll ticks while a client sits
    /// mid-frame, not after the ten-second mid-frame stall.
    #[test]
    fn stop_joins_while_a_client_is_mid_frame() {
        let (_srv, mut net) = serve();
        let mut sock = TcpStream::connect(net.local_addr()).unwrap();
        sock.write_all(&request_bytes(&Request::Stats)[..6])
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let t = Instant::now();
        net.stop();
        assert!(
            t.elapsed() < Duration::from_secs(3),
            "stop took {:?}",
            t.elapsed()
        );
    }

    /// A client on one end of a loopback pair whose other end the test
    /// writes: the server side of the exchange, by hand.
    fn scripted() -> (Client, TcpStream) {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (c, _) = raw_client(l.local_addr().unwrap());
        let (peer, _) = l.accept().unwrap();
        peer.set_nodelay(true).unwrap();
        (c, peer)
    }

    #[test]
    fn client_reads_responses_from_one_write_in_order() {
        let (mut c, mut peer) = scripted();
        let status = JobStatus {
            state: crate::job::JobState::Queued,
            at_cycle: 0,
            slices: 0,
            from_cache: false,
            deduped: false,
        };
        let two = [
            frame_bytes(net::RESP_SUBMITTED, &net::encode_submitted(5)),
            frame_bytes(net::RESP_STATUS, &net::encode_status(&status)),
        ];
        peer.write_all(&two.concat()).unwrap();
        let first = c.read_frame(Duration::from_secs(5)).and_then(response);
        assert!(matches!(first, Ok(Response::Submitted(5))), "got {first:?}");
        let conn = c.conn.as_ref().unwrap();
        assert!(
            conn.rx.whole_frame().unwrap().is_some(),
            "the second frame arrived with the first and waits buffered"
        );
        match c.read_frame(Duration::from_secs(5)).and_then(response) {
            Ok(Response::Status(s)) => assert_eq!(s, status),
            other => panic!("expected a status, got {other:?}"),
        }
    }

    #[test]
    fn client_decodes_a_response_sent_one_byte_per_write() {
        let (mut c, mut peer) = scripted();
        let bytes = frame_bytes(net::RESP_SUBMITTED, &net::encode_submitted(77));
        let writer = std::thread::spawn(move || trickle(&mut peer, &bytes));
        let r = c.read_frame(Duration::from_secs(30)).and_then(response);
        writer.join().unwrap();
        assert!(matches!(r, Ok(Response::Submitted(77))), "got {r:?}");
    }

    #[test]
    fn client_eof_mid_frame_is_a_typed_error() {
        let (mut c, mut peer) = scripted();
        let bytes = frame_bytes(net::RESP_SUBMITTED, &net::encode_submitted(1));
        peer.write_all(&bytes[..bytes.len() - 3]).unwrap();
        drop(peer);
        match c.read_frame(Duration::from_secs(5)) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    // Results in submit acknowledgements, against a scripted server.

    /// The tags of the request frames `peer` has received so far, read
    /// until it has been quiet for 50 ms.
    fn tags_received(peer: &mut TcpStream) -> Vec<u8> {
        peer.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut rx = RecvBuf::default();
        let mut tags = Vec::new();
        loop {
            while let Some(n) = rx.whole_frame().unwrap() {
                tags.push(net::split_frame(rx.take(n)).unwrap().0);
            }
            if !matches!(rx.fill(peer), Ok(n) if n > 0) {
                return tags;
            }
        }
    }

    /// A completed result with a real report, as the server stores it.
    fn done() -> crate::job::JobResult {
        let req = SimRequest::golden("ps_tickets").unwrap();
        let report = req.builder().build().run().report;
        crate::job::JobResult::completed(crate::wire::encode_report(&report), true, 0).unwrap()
    }

    fn ps_tickets() -> Submission {
        Submission::new(SimRequest::golden("ps_tickets").unwrap())
    }

    #[test]
    fn a_result_in_the_acknowledgement_is_waited_for_without_a_frame() {
        let (mut c, mut peer) = scripted();
        let r = done();
        peer.write_all(&frame_bytes(
            net::RESP_RESOLVED,
            &net::encode_resolved(7, &r),
        ))
        .unwrap();
        assert_eq!(c.submit(ps_tickets()).unwrap(), 7);
        assert_eq!(tags_received(&mut peer), [net::REQ_SUBMIT]);
        let back = c.wait(7, Duration::from_secs(5)).unwrap();
        assert!(back.completed && back.from_cache);
        assert_eq!((back.slices, &back.bytes), (r.slices, &r.bytes));
        assert_eq!(tags_received(&mut peer), [], "the wait sent nothing");
    }

    #[test]
    fn the_stash_evicts_its_oldest_result_past_its_entry_bound() {
        let (mut c, mut peer) = scripted();
        let r = done();
        let n = STASH_ENTRIES as u64 + 1;
        let acks: Vec<Vec<u8>> = (0..n)
            .map(|id| frame_bytes(net::RESP_RESOLVED, &net::encode_resolved(id, &r)))
            .collect();
        peer.write_all(&acks.concat()).unwrap();
        for id in 0..n {
            assert_eq!(c.submit(ps_tickets()).unwrap(), id);
        }
        assert_eq!(tags_received(&mut peer), vec![net::REQ_SUBMIT; n as usize]);
        assert_eq!(c.stash.results.len(), STASH_ENTRIES);
        // The newest results are kept: no frame.
        assert!(c.wait(n - 1, Duration::from_secs(5)).unwrap().completed);
        assert!(c.wait(1, Duration::from_secs(5)).unwrap().completed);
        assert_eq!(tags_received(&mut peer), []);
        // The oldest was evicted: an ordinary Wait fetches it.
        peer.write_all(&frame_bytes(net::RESP_RESULT, &net::encode_result(&r)))
            .unwrap();
        let back = c.wait(0, Duration::from_secs(5)).unwrap();
        assert_eq!(back.bytes, r.bytes);
        assert_eq!(tags_received(&mut peer), [net::REQ_WAIT]);
    }

    #[test]
    fn the_stash_holds_a_bounded_total_of_report_bytes() {
        let r = done();
        let sized = |len: usize| RemoteResult {
            bytes: vec![0; len],
            ..net::decode_result(&net::encode_result(&r)).unwrap()
        };
        let mut stash = Stash::default();
        stash.put(1, sized(STASH_BYTES / 2));
        stash.put(2, sized(STASH_BYTES / 2));
        assert_eq!(stash.bytes, STASH_BYTES);
        stash.put(3, sized(1));
        assert!(stash.take(1).is_none(), "the oldest made room");
        stash.put(4, sized(STASH_BYTES + 1));
        assert!(stash.take(4).is_none(), "too large to keep");
        assert_eq!(stash.take(3).map(|r| r.bytes.len()), Some(1));
        assert_eq!(stash.bytes, STASH_BYTES / 2);
        // A second acknowledgement for an id replaces the first.
        stash.put(2, sized(5));
        assert_eq!((stash.results.len(), stash.bytes), (1, 5));
    }

    #[test]
    fn a_plain_acknowledgement_still_waits_with_a_frame() {
        let (mut c, mut peer) = scripted();
        let r = done();
        let two = [
            frame_bytes(net::RESP_SUBMITTED, &net::encode_submitted(5)),
            frame_bytes(net::RESP_RESULT, &net::encode_result(&r)),
        ];
        peer.write_all(&two.concat()).unwrap();
        assert_eq!(c.submit(ps_tickets()).unwrap(), 5);
        let back = c.wait(5, Duration::from_secs(5)).unwrap();
        assert_eq!(back.bytes, r.bytes);
        assert_eq!(tags_received(&mut peer), [net::REQ_SUBMIT, net::REQ_WAIT]);
    }

    #[test]
    fn client_rejects_a_bad_length_prefix() {
        for len in [3u32, MAX_FRAME as u32 + 1] {
            let (mut c, mut peer) = scripted();
            peer.write_all(&len.to_le_bytes()).unwrap();
            match c.read_frame(Duration::from_secs(5)) {
                Err(ClientError::Protocol(what)) => assert_eq!(what, "bad frame length"),
                other => panic!("length {len}: expected a protocol error, got {other:?}"),
            }
        }
    }
}
