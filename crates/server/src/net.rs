//! Length-framed TCP protocol for the job server.
//!
//! Frame layout (everything little-endian, same codec family as the
//! checkpoint format and [`crate::wire`]):
//!
//! ```text
//! [u32 frame_len][u64 PROTO_MAGIC][u8 tag][body…]
//!                 `——————— frame_len bytes ——————'
//! ```
//!
//! `frame_len` counts the magic, tag and body and is capped at
//! [`MAX_FRAME`]; every body field is bounds-checked by the same
//! [`crate::wire::Reader`] the checkpoint decoders use, so a malformed
//! or truncated frame produces a typed error (answered with an
//! [`RESP_ERR`] frame), never a panic and never an over-read. One
//! connection carries a sequence of request→response exchanges;
//! [`REQ_STREAM`] answers with zero or more [`RESP_ROW`] frames
//! terminated by [`RESP_END`].
//!
//! Requests ([`Request`], [`encode_request_frame`] /
//! [`decode_request_frame`]): `Submit{tenant, lane, token, request}`,
//! `Poll{id}`, `Wait{id, timeout_ms}`, `Cancel{id}`, `Stream{id}`,
//! `Stats`. Responses ([`Response`], one `encode_*` per body and
//! [`decode_response`]): `Ok`, `Submitted{id}`, `Status{…}`,
//! `Result{…}`, `Err{code}`, `Row{…}`, `End`, `Stats{…}`.
//!
//! [`NetServer::bind`] runs an accept thread plus one thread per
//! connection over an [`Arc<Server>`]; long waits and row streams are
//! chopped into short poll intervals so [`NetServer::stop`] (or drop)
//! always joins promptly, even mid-wait.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::CacheStats;
use crate::client::RemoteResult;
use crate::job::{JobError, JobId, JobResult, JobState, JobStatus, Lane};
use crate::server::{JobHandle, Server, ServerStats, Submission};
use crate::wire::{self, WireError};
use xmt_sim::IntervalRow;

/// Protocol magic, first payload field of every frame ("XMTJ" v1).
pub const PROTO_MAGIC: u64 = 0x584D_544A_0000_0001;

/// Hard cap on one frame's payload (reports for paper-scale runs are
/// megabytes; checkpoints never cross the wire).
pub const MAX_FRAME: usize = 64 << 20;

/// Request tag: submit a job.
pub const REQ_SUBMIT: u8 = 1;
/// Request tag: poll a job's status.
pub const REQ_POLL: u8 = 2;
/// Request tag: wait (bounded) for a job's result.
pub const REQ_WAIT: u8 = 3;
/// Request tag: cancel a job.
pub const REQ_CANCEL: u8 = 4;
/// Request tag: stream a probed job's interval rows.
pub const REQ_STREAM: u8 = 5;
/// Request tag: server + cache statistics.
pub const REQ_STATS: u8 = 6;

/// Response tag: generic acknowledgement (cancel).
pub const RESP_OK: u8 = 0x80;
/// Response tag: submission accepted, body = job id.
pub const RESP_SUBMITTED: u8 = 0x81;
/// Response tag: status snapshot.
pub const RESP_STATUS: u8 = 0x82;
/// Response tag: terminal result with canonical report bytes.
pub const RESP_RESULT: u8 = 0x83;
/// Response tag: typed error, body = [`err_code`].
pub const RESP_ERR: u8 = 0x84;
/// Response tag: one streamed interval row.
pub const RESP_ROW: u8 = 0x85;
/// Response tag: end of a row stream.
pub const RESP_END: u8 = 0x86;
/// Response tag: statistics.
pub const RESP_STATS: u8 = 0x87;

/// Error code for a frame the server could not parse (distinct from
/// every [`JobError`] code).
pub const ERR_MALFORMED: u8 = 255;

/// [`JobError`] → wire code (its discriminant).
pub fn err_code(e: JobError) -> u8 {
    e as u8
}

/// Wire code → [`JobError`] (`None` for [`ERR_MALFORMED`] and unknown
/// codes).
pub fn err_from_code(c: u8) -> Option<JobError> {
    Some(match c {
        0 => JobError::Cancelled,
        1 => JobError::Shutdown,
        2 => JobError::Timeout,
        3 => JobError::Overloaded,
        4 => JobError::QuotaExceeded,
        5 => JobError::UnknownJob,
        6 => JobError::Journal,
        _ => return None,
    })
}

/// [`JobState`] → wire code (its discriminant).
pub fn state_code(s: JobState) -> u8 {
    s as u8
}

/// Wire code → [`JobState`].
pub fn state_from_code(c: u8) -> Result<JobState, WireError> {
    Ok(match c {
        0 => JobState::Queued,
        1 => JobState::Running,
        2 => JobState::Paused,
        3 => JobState::Done,
        4 => JobState::Failed,
        5 => JobState::Cancelled,
        _ => return Err("bad job state code"),
    })
}

/// Write one frame: `[u32 len][u64 magic][tag][body]`.
pub fn write_frame(w: &mut impl Write, tag: u8, body: &[u8]) -> io::Result<()> {
    let mut f = Vec::with_capacity(13 + body.len());
    wire::put_u32(&mut f, (9 + body.len()) as u32);
    wire::put_u64(&mut f, PROTO_MAGIC);
    f.push(tag);
    f.extend_from_slice(body);
    w.write_all(&f)
}

/// Split a received frame payload (everything after the length
/// prefix) into tag and body, validating the magic.
pub fn split_frame(payload: &[u8]) -> Result<(u8, &[u8]), WireError> {
    if payload.len() < 9 {
        return Err("frame shorter than magic+tag");
    }
    let magic = u64::from_le_bytes(payload[..8].try_into().expect("9-byte minimum checked"));
    if magic != PROTO_MAGIC {
        return Err("bad protocol magic");
    }
    Ok((payload[8], &payload[9..]))
}

/// One decoded request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job with admission metadata (boxed: a `Submission`
    /// carries a full `SimRequest` and dwarfs the id-only variants).
    Submit(Box<Submission>),
    /// Status snapshot for a job.
    Poll(u64),
    /// Bounded wait for a job's terminal result.
    Wait {
        /// The job.
        id: u64,
        /// Server-side wait bound in milliseconds.
        timeout_ms: u64,
    },
    /// Cancel a job.
    Cancel(u64),
    /// Stream a probed job's interval rows.
    Stream(u64),
    /// Server + cache statistics.
    Stats,
}

/// Encode a request frame body (the client side).
pub fn encode_request_frame(req: &Request) -> (u8, Vec<u8>) {
    let mut b = Vec::new();
    match req {
        Request::Submit(sub) => {
            wire::put_str(&mut b, &sub.tenant);
            b.push(sub.lane as u8);
            wire::put_u64(&mut b, sub.token);
            let req = wire::encode_request(&sub.req);
            wire::put_u32(&mut b, req.len() as u32);
            b.extend_from_slice(&req);
            (REQ_SUBMIT, b)
        }
        Request::Poll(id) => {
            wire::put_u64(&mut b, *id);
            (REQ_POLL, b)
        }
        Request::Wait { id, timeout_ms } => {
            wire::put_u64(&mut b, *id);
            wire::put_u64(&mut b, *timeout_ms);
            (REQ_WAIT, b)
        }
        Request::Cancel(id) => {
            wire::put_u64(&mut b, *id);
            (REQ_CANCEL, b)
        }
        Request::Stream(id) => {
            wire::put_u64(&mut b, *id);
            (REQ_STREAM, b)
        }
        Request::Stats => (REQ_STATS, b),
    }
}

/// Decode a request frame body (the server side). Every failure is a
/// typed error — malformed input can never panic the server.
pub fn decode_request_frame(tag: u8, body: &[u8]) -> Result<Request, WireError> {
    wire::whole(body, "trailing bytes after request frame", |r| {
        Ok(match tag {
            REQ_SUBMIT => {
                let tenant = r.str(256)?;
                let lane = Lane::from_code(r.u8()?)?;
                let token = r.u64()?;
                let req = wire::decode_request(&r.blob()?)?;
                Request::Submit(Box::new(Submission {
                    req,
                    tenant,
                    lane,
                    token,
                }))
            }
            REQ_POLL => Request::Poll(r.u64()?),
            REQ_WAIT => Request::Wait {
                id: r.u64()?,
                timeout_ms: r.u64()?,
            },
            REQ_CANCEL => Request::Cancel(r.u64()?),
            REQ_STREAM => Request::Stream(r.u64()?),
            REQ_STATS => Request::Stats,
            _ => return Err("unknown request tag"),
        })
    })
}

/// Statistics bundle carried by [`RESP_STATS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Scheduler and admission counters.
    pub server: ServerStats,
    /// Result-cache counters.
    pub cache: CacheStats,
}

/// Encode a [`RESP_STATS`] body: the server's counter words, then the
/// cache's (field order: the `word_codec!` lists beside the structs).
pub fn encode_stats(s: &RemoteStats) -> Vec<u8> {
    let mut b = Vec::with_capacity(15 * 8);
    wire::put_words(&mut b, &s.server.to_words());
    wire::put_words(&mut b, &s.cache.to_words());
    b
}

/// Decode a [`RESP_STATS`] body.
pub fn decode_stats(body: &[u8]) -> Result<RemoteStats, WireError> {
    wire::whole(body, "trailing bytes after stats frame", |r| {
        Ok(RemoteStats {
            server: ServerStats::from_words(r.words()?),
            cache: CacheStats::from_words(r.words()?),
        })
    })
}

/// Encode a [`RESP_STATUS`] body.
pub fn encode_status(s: &JobStatus) -> Vec<u8> {
    let mut b = Vec::with_capacity(16);
    b.push(state_code(s.state));
    wire::put_u64(&mut b, s.at_cycle);
    wire::put_u32(&mut b, s.slices);
    b.push(u8::from(s.from_cache));
    b.push(u8::from(s.deduped));
    b
}

/// Decode a [`RESP_STATUS`] body.
pub fn decode_status(body: &[u8]) -> Result<JobStatus, WireError> {
    wire::whole(body, "trailing bytes after status frame", |r| {
        Ok(JobStatus {
            state: state_from_code(r.u8()?)?,
            at_cycle: r.u64()?,
            slices: r.u32()?,
            from_cache: r.u8()? != 0,
            deduped: r.u8()? != 0,
        })
    })
}

/// Encode a [`RESP_SUBMITTED`] body.
pub fn encode_submitted(id: JobId) -> Vec<u8> {
    id.to_le_bytes().to_vec()
}

/// Decode a [`RESP_SUBMITTED`] body.
pub fn decode_submitted(body: &[u8]) -> Result<JobId, WireError> {
    wire::whole(body, "trailing bytes after submitted frame", |r| r.u64())
}

/// Encode a [`RESP_RESULT`] body from a terminal result (its report
/// bytes are copied once, into the body).
pub fn encode_result(r: &JobResult) -> Vec<u8> {
    let mut b = Vec::with_capacity(16 + r.bytes.len());
    b.push(state_code(if r.outcome.is_completed() {
        JobState::Done
    } else {
        JobState::Failed
    }));
    b.push(u8::from(r.from_cache));
    wire::put_u32(&mut b, r.slices);
    wire::put_u32(&mut b, r.bytes.len() as u32);
    b.extend_from_slice(&r.bytes);
    b
}

/// Decode a [`RESP_RESULT`] body.
pub fn decode_result(body: &[u8]) -> Result<RemoteResult, WireError> {
    wire::whole(body, "trailing bytes after result frame", |r| {
        let completed = match state_from_code(r.u8()?)? {
            JobState::Done => true,
            JobState::Failed => false,
            _ => return Err("non-terminal result state"),
        };
        let from_cache = r.u8()? != 0;
        let slices = r.u32()?;
        let bytes = r.blob()?;
        Ok(RemoteResult {
            completed,
            from_cache,
            slices,
            report: wire::decode_report(&bytes)?,
            bytes,
        })
    })
}

/// Encode a [`RESP_ERR`] body: a job error's code, or
/// [`ERR_MALFORMED`] for `None`.
pub fn encode_err(e: Option<JobError>) -> [u8; 1] {
    [e.map_or(ERR_MALFORMED, err_code)]
}

/// Decode a [`RESP_ERR`] body (`None`: the peer could not parse our
/// frame, or answered with a code this build does not know).
pub fn decode_err(body: &[u8]) -> Result<Option<JobError>, WireError> {
    wire::whole(body, "trailing bytes after error frame", |r| {
        Ok(err_from_code(r.u8()?))
    })
}

/// One decoded response frame.
#[derive(Debug, Clone)]
pub enum Response {
    /// Acknowledgement (cancel).
    Ok,
    /// The submission was accepted under this id.
    Submitted(JobId),
    /// Status snapshot.
    Status(JobStatus),
    /// Terminal result.
    Result(RemoteResult),
    /// Typed refusal; `None` when the request frame was malformed.
    Err(Option<JobError>),
    /// One streamed interval row.
    Row(IntervalRow),
    /// End of a row stream.
    End,
    /// Statistics.
    Stats(RemoteStats),
}

/// Decode a response frame body (the client side): the one place a
/// response body is parsed, total on arbitrary bytes like every other
/// decoder here.
pub fn decode_response(tag: u8, body: &[u8]) -> Result<Response, WireError> {
    let empty = |what| wire::whole(body, "trailing bytes after bodiless response", |_| Ok(what));
    match tag {
        RESP_OK => empty(Response::Ok),
        RESP_SUBMITTED => decode_submitted(body).map(Response::Submitted),
        RESP_STATUS => decode_status(body).map(Response::Status),
        RESP_RESULT => decode_result(body).map(Response::Result),
        RESP_ERR => decode_err(body).map(Response::Err),
        RESP_ROW => wire::decode_row(body).map(Response::Row),
        RESP_END => empty(Response::End),
        RESP_STATS => decode_stats(body).map(Response::Stats),
        _ => Err("unknown response tag"),
    }
}

/// Interval between stop-flag checks while a connection thread is
/// blocked in a wait, a stream read, or an idle socket read.
const POLL_TICK: Duration = Duration::from_millis(100);

/// Give up on a connection that stalls mid-frame for this long (a
/// dropped client cannot pin a thread).
const MID_FRAME_STALL: Duration = Duration::from_secs(10);

/// The TCP front end: an accept thread plus one thread per
/// connection, all over one shared [`Server`]. Dropping it stops and
/// joins everything (the [`Server`] itself keeps running — it may be
/// shared).
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `server` until
    /// [`NetServer::stop`] or drop.
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Accept with a poll timeout so stop() never blocks: a
        // nonblocking listener plus short sleeps.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((sock, _)) => {
                        let srv = Arc::clone(&server);
                        let st = Arc::clone(&stop2);
                        conns.push(std::thread::spawn(move || serve_conn(sock, &srv, &st)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_TICK / 4);
                    }
                    Err(_) => break,
                }
            }
            for h in conns {
                let _ = h.join();
            }
        });
        Ok(NetServer {
            addr,
            stop,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain connection threads, join everything.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Read exactly `buf.len()` bytes through a short-timeout socket,
/// polling the stop flag between reads. `Ok(false)` = clean EOF before
/// the first byte (client closed between requests).
fn read_full(sock: &mut TcpStream, buf: &mut [u8], stop: &AtomicBool) -> io::Result<bool> {
    let mut off = 0;
    let mut last_progress = Instant::now();
    while off < buf.len() {
        if stop.load(Ordering::Relaxed) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "server stopping",
            ));
        }
        match sock.read(&mut buf[off..]) {
            Ok(0) => {
                return if off == 0 {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => {
                off += n;
                last_progress = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle between requests is fine; a stall mid-frame is
                // a dead client.
                if off > 0 && last_progress.elapsed() > MID_FRAME_STALL {
                    return Err(io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame; `Ok(None)` on clean EOF. Malformed framing is an
/// `InvalidData` error (the connection is dropped — without a sound
/// length prefix there is nothing left to resynchronize on).
fn read_frame(sock: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len4 = [0u8; 4];
    if !read_full(sock, &mut len4, stop)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len4) as usize;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut payload = vec![0u8; len];
    if !read_full(sock, &mut payload, stop)? {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    match split_frame(&payload) {
        Ok((tag, body)) => Ok(Some((tag, body.to_vec()))),
        Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

/// Wait for `h` at most `timeout_ms`, in short ticks so
/// [`NetServer::stop`] joins promptly.
fn wait_in_ticks(h: &JobHandle, timeout_ms: u64, stop: &AtomicBool) -> Result<JobResult, JobError> {
    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
    loop {
        let tick = POLL_TICK.min(deadline.saturating_duration_since(Instant::now()));
        match h.wait_deadline(tick) {
            Err(JobError::Timeout) if stop.load(Ordering::Relaxed) => {
                return Err(JobError::Shutdown)
            }
            Err(JobError::Timeout) if Instant::now() < deadline => {}
            other => return other,
        }
    }
}

/// Forward a probed job's rows as [`RESP_ROW`] frames until its stream
/// closes, then [`RESP_END`]. Unprobed, already-taken or drained: the
/// stream simply ends.
fn stream_rows(sock: &mut TcpStream, mut h: JobHandle, stop: &AtomicBool) -> io::Result<()> {
    if let Some(rx) = h.take_stream() {
        while !stop.load(Ordering::Relaxed) {
            match rx.recv_timeout(POLL_TICK) {
                Ok(row) => write_frame(sock, RESP_ROW, &wire::encode_row(&row))?,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    }
    write_frame(sock, RESP_END, &[])
}

/// Serve one connection: a request→response loop until EOF, stop, or
/// a framing error.
fn serve_conn(mut sock: TcpStream, server: &Server, stop: &AtomicBool) {
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(POLL_TICK));
    loop {
        let (tag, body) = match read_frame(&mut sock, stop) {
            Ok(Some(f)) => f,
            Ok(None) | Err(_) => return,
        };
        // Every refusal — a body that does not parse (the frame itself
        // was sound, so the connection stays usable), an unknown id, a
        // typed admission or wait error — is one `RESP_ERR` frame.
        let handle = |id| server.handle(id).ok_or(Some(JobError::UnknownJob));
        let sent = match decode_request_frame(tag, &body).map_err(|_| None) {
            Err(e) => Err(e),
            Ok(Request::Submit(sub)) => server
                .submit_with(*sub)
                .map(|h| write_frame(&mut sock, RESP_SUBMITTED, &encode_submitted(h.id())))
                .map_err(Some),
            Ok(Request::Poll(id)) => {
                handle(id).map(|h| write_frame(&mut sock, RESP_STATUS, &encode_status(&h.poll())))
            }
            Ok(Request::Wait { id, timeout_ms }) => handle(id)
                .and_then(|h| wait_in_ticks(&h, timeout_ms, stop).map_err(Some))
                .map(|r| write_frame(&mut sock, RESP_RESULT, &encode_result(&r))),
            Ok(Request::Cancel(id)) => handle(id).map(|h| {
                h.cancel();
                write_frame(&mut sock, RESP_OK, &[])
            }),
            Ok(Request::Stream(id)) => handle(id).map(|h| stream_rows(&mut sock, h, stop)),
            Ok(Request::Stats) => {
                let s = RemoteStats {
                    server: server.stats(),
                    cache: server.cache_stats(),
                };
                Ok(write_frame(&mut sock, RESP_STATS, &encode_stats(&s)))
            }
        };
        let sent = sent.unwrap_or_else(|e| write_frame(&mut sock, RESP_ERR, &encode_err(e)));
        if sent.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SimRequest;

    #[test]
    fn request_frames_round_trip() {
        let sub = Submission::new(SimRequest::golden("ps_tickets").unwrap())
            .tenant("acme")
            .lane(Lane::High)
            .token(99);
        for req in [
            Request::Submit(Box::new(sub)),
            Request::Poll(3),
            Request::Wait {
                id: 4,
                timeout_ms: 1_500,
            },
            Request::Cancel(5),
            Request::Stream(6),
            Request::Stats,
        ] {
            let (tag, body) = encode_request_frame(&req);
            assert_eq!(decode_request_frame(tag, &body).unwrap(), req);
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        assert!(split_frame(&[1, 2, 3]).is_err(), "too short for magic");
        let mut f = Vec::new();
        wire::put_u64(&mut f, 0xDEAD_BEEF);
        f.push(REQ_POLL);
        assert!(split_frame(&f).is_err(), "bad magic");
        assert!(
            decode_request_frame(REQ_POLL, &[1, 2]).is_err(),
            "short body"
        );
        assert!(decode_request_frame(0x7F, &[]).is_err(), "unknown tag");
        let (tag, mut body) = encode_request_frame(&Request::Poll(1));
        body.push(0);
        assert!(
            decode_request_frame(tag, &body).is_err(),
            "trailing bytes rejected"
        );
    }

    #[test]
    fn stats_and_status_round_trip() {
        let s = RemoteStats {
            server: ServerStats {
                submitted: 10,
                completed: 7,
                failed: 1,
                cancelled: 2,
                deduped: 3,
                tokens_reused: 4,
                rejected_overload: 5,
                rejected_quota: 6,
                queued: 8,
                journal_bytes: 4096,
            },
            cache: CacheStats {
                entries: 2,
                hits: 9,
                disk_hits: 1,
                misses: 3,
                evictions: 0,
            },
        };
        assert_eq!(decode_stats(&encode_stats(&s)).unwrap(), s);
        let st = JobStatus {
            state: JobState::Paused,
            at_cycle: 12_345,
            slices: 3,
            from_cache: false,
            deduped: true,
        };
        assert_eq!(decode_status(&encode_status(&st)).unwrap(), st);
        assert!(decode_stats(&[0; 7]).is_err(), "truncated stats rejected");
    }

    /// Every response body through its `encode_*` and the one
    /// `decode_response`, and each body refused under a wrong length.
    #[test]
    fn responses_round_trip() {
        let report = SimRequest::golden("ps_tickets")
            .unwrap()
            .builder()
            .build()
            .run()
            .report;
        let done = JobResult::completed(wire::encode_report(&report), true, 3).unwrap();
        let failed = JobResult {
            outcome: xmt_sim::RunOutcome {
                status: xmt_sim::RunStatus::Failed(xmt_sim::SimError::CycleLimit { at_cycle: 9 }),
                report,
            },
            from_cache: false,
            ..done.clone()
        };
        for (r, completed) in [(&done, true), (&failed, false)] {
            match decode_response(RESP_RESULT, &encode_result(r)).unwrap() {
                Response::Result(back) => {
                    assert_eq!(back.completed, completed);
                    assert_eq!(back.from_cache, r.from_cache);
                    assert_eq!((back.slices, &back.bytes), (r.slices, &r.bytes));
                    assert_eq!(wire::encode_report(&back.report), r.bytes);
                }
                other => panic!("expected a result, got {other:?}"),
            }
        }
        assert!(matches!(
            decode_response(RESP_SUBMITTED, &encode_submitted(77)),
            Ok(Response::Submitted(77))
        ));
        for e in [Some(JobError::Overloaded), Some(JobError::UnknownJob), None] {
            match decode_response(RESP_ERR, &encode_err(e)).unwrap() {
                Response::Err(back) => assert_eq!(back, e),
                other => panic!("expected an error, got {other:?}"),
            }
        }
        assert!(matches!(
            decode_response(RESP_ERR, &[200]),
            Ok(Response::Err(None))
        ));
        let row = IntervalRow {
            cycle: 5,
            spawn: Some(1),
            channel_busy: vec![3],
            ..IntervalRow::default()
        };
        match decode_response(RESP_ROW, &wire::encode_row(&row)).unwrap() {
            Response::Row(back) => assert_eq!(back, row),
            other => panic!("expected a row, got {other:?}"),
        }
        assert!(matches!(decode_response(RESP_OK, &[]), Ok(Response::Ok)));
        assert!(matches!(decode_response(RESP_END, &[]), Ok(Response::End)));
        for tag in [RESP_OK, RESP_SUBMITTED, RESP_RESULT, RESP_ERR, RESP_END] {
            assert!(decode_response(tag, &[0; 3]).is_err(), "tag {tag:#x}");
        }
        assert!(decode_response(0x7F, &[]).is_err(), "unknown tag");
    }

    #[test]
    fn error_codes_round_trip() {
        for e in [
            JobError::Cancelled,
            JobError::Shutdown,
            JobError::Timeout,
            JobError::Overloaded,
            JobError::QuotaExceeded,
            JobError::UnknownJob,
            JobError::Journal,
        ] {
            assert_eq!(err_from_code(err_code(e)), Some(e));
        }
        assert_eq!(err_from_code(ERR_MALFORMED), None);
    }
}
