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

use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime};

use crate::job::{JobError, JobId, JobStatus};
use crate::net::{self, RemoteStats, Request, Response, MAX_FRAME};
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
    conn: Option<TcpStream>,
    next_token: u64,
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
        let mut c = Client {
            addr,
            cfg,
            conn: None,
            next_token: (nanos | 1) ^ ((std::process::id() as u64) << 32),
        };
        c.with_retries(|c| c.ensure_conn().map(|_| ()))?;
        Ok(c)
    }

    /// Submit a job. A `token` of 0 is replaced with a fresh
    /// client-generated one, so transport retries of this call are
    /// idempotent; keep your own token to make *cross-process* retries
    /// idempotent too.
    pub fn submit(&mut self, mut sub: Submission) -> Result<JobId, ClientError> {
        if sub.token == 0 {
            sub.token = self.next_token;
            self.next_token = self.next_token.wrapping_add(1) | 1;
        }
        let req = Request::Submit(Box::new(sub));
        match self.rpc(&req, self.cfg.request_timeout)? {
            Response::Submitted(id) => Ok(id),
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
    /// keeps running).
    pub fn wait(&mut self, id: JobId, timeout: Duration) -> Result<RemoteResult, ClientError> {
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
        let (tag, body) = net::encode_request_frame(&Request::Stream(id));
        // Streams are not idempotent (rows are consumed server-side):
        // no transport retry here.
        let hard = Instant::now() + deadline;
        self.send_frame(tag, &body)?;
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
        let (tag, body) = net::encode_request_frame(req);
        self.with_retries(|c| {
            c.send_frame(tag, &body)?;
            c.read_frame(read_deadline)
        })
        .and_then(response)
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

    fn ensure_conn(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.conn.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)
                .map_err(ClientError::Io)?;
            let _ = s.set_nodelay(true);
            self.conn = Some(s);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn send_frame(&mut self, tag: u8, body: &[u8]) -> Result<(), ClientError> {
        net::write_frame(self.ensure_conn()?, tag, body).map_err(ClientError::Io)
    }

    /// Read one response frame within `deadline`.
    fn read_frame(&mut self, deadline: Duration) -> Result<(u8, Vec<u8>), ClientError> {
        let sock = self
            .conn
            .as_mut()
            .ok_or(ClientError::Protocol("read without a connection"))?;
        let hard = Instant::now() + deadline;
        let mut len4 = [0u8; 4];
        read_all(sock, &mut len4, hard)?;
        let len = u32::from_le_bytes(len4) as usize;
        if !(9..=MAX_FRAME).contains(&len) {
            return Err(ClientError::Protocol("bad frame length"));
        }
        let mut payload = vec![0u8; len];
        read_all(sock, &mut payload, hard)?;
        let (tag, body) = net::split_frame(&payload).map_err(ClientError::Protocol)?;
        Ok((tag, body.to_vec()))
    }
}

/// A response tag the request never asks for: either a peer bug or a
/// desynchronized stream.
const UNEXPECTED: ClientError = ClientError::Protocol("unexpected response tag");

/// Decode a response frame; the server's typed refusals become errors.
fn response((tag, body): (u8, Vec<u8>)) -> Result<Response, ClientError> {
    match net::decode_response(tag, &body).map_err(ClientError::Protocol)? {
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

/// Read exactly `buf.len()` bytes before `hard`, surfacing timeouts as
/// [`ClientError::Timeout`].
fn read_all(sock: &mut TcpStream, buf: &mut [u8], hard: Instant) -> Result<(), ClientError> {
    let mut off = 0;
    while off < buf.len() {
        let left = hard.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(ClientError::Timeout);
        }
        let _ = sock.set_read_timeout(Some(left.min(Duration::from_millis(200))));
        match sock.read(&mut buf[off..]) {
            Ok(0) => {
                return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(n) => off += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetServer;
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
        net::write_frame(&mut sock, REQ_SUBMIT_RAW, &[0xFF; 40]).unwrap();
        let mut c = Client {
            addr: net.local_addr(),
            cfg: ClientConfig::default(),
            conn: Some(sock),
            next_token: 1,
        };
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
}
