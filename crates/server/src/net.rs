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
//! Requests: `Submit{tenant, lane, token, request}`, `Poll{id}`,
//! `Wait{id, timeout_ms}`, `Cancel{id}`, `Stream{id}`, `Stats`.
//! Responses: `Submitted{id}`, `Status{…}`, `Result{…}`, `Err{code}`,
//! `Row{…}`, `End`, `Stats{…}`.
//!
//! [`NetServer::bind`] runs an accept thread plus one thread per
//! connection over an [`Arc<Server>`]; long waits and row streams are
//! chopped into short poll intervals so [`NetServer::stop`] (or drop)
//! always joins promptly, even mid-wait.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::cache::CacheStats;
use crate::job::{JobError, JobState, JobStatus, Lane};
use crate::server::{Server, ServerStats, Submission};
use crate::wire::{self, Reader, WireError};

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

/// [`JobError`] → wire code.
pub fn err_code(e: JobError) -> u8 {
    match e {
        JobError::Cancelled => 0,
        JobError::Shutdown => 1,
        JobError::Timeout => 2,
        JobError::Overloaded => 3,
        JobError::QuotaExceeded => 4,
        JobError::UnknownJob => 5,
        JobError::Journal => 6,
    }
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

/// [`JobState`] → wire code.
pub fn state_code(s: JobState) -> u8 {
    match s {
        JobState::Queued => 0,
        JobState::Running => 1,
        JobState::Paused => 2,
        JobState::Done => 3,
        JobState::Failed => 4,
        JobState::Cancelled => 5,
    }
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
            b.push(match sub.lane {
                Lane::Normal => 0,
                Lane::High => 1,
            });
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
    let mut r = Reader::new(body);
    let req = match tag {
        REQ_SUBMIT => {
            let tenant = r.str(256)?;
            let lane = match r.u8()? {
                0 => Lane::Normal,
                1 => Lane::High,
                _ => return Err("bad lane tag"),
            };
            let token = r.u64()?;
            let req = r.blob()?;
            let req = wire::decode_request(&req)?;
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
    };
    if !r.at_end() {
        return Err("trailing bytes after request frame");
    }
    Ok(req)
}

/// Statistics bundle carried by [`RESP_STATS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Scheduler and admission counters.
    pub server: ServerStats,
    /// Result-cache counters.
    pub cache: CacheStats,
}

/// Encode a [`RESP_STATS`] body.
pub fn encode_stats(s: &RemoteStats) -> Vec<u8> {
    let mut b = Vec::with_capacity(15 * 8);
    for v in [
        s.server.submitted,
        s.server.completed,
        s.server.failed,
        s.server.cancelled,
        s.server.deduped,
        s.server.tokens_reused,
        s.server.rejected_overload,
        s.server.rejected_quota,
        s.server.queued as u64,
        s.server.journal_bytes,
        s.cache.entries as u64,
        s.cache.hits,
        s.cache.disk_hits,
        s.cache.misses,
        s.cache.evictions,
    ] {
        wire::put_u64(&mut b, v);
    }
    b
}

/// Decode a [`RESP_STATS`] body.
pub fn decode_stats(body: &[u8]) -> Result<RemoteStats, WireError> {
    let mut r = Reader::new(body);
    let s = RemoteStats {
        server: ServerStats {
            submitted: r.u64()?,
            completed: r.u64()?,
            failed: r.u64()?,
            cancelled: r.u64()?,
            deduped: r.u64()?,
            tokens_reused: r.u64()?,
            rejected_overload: r.u64()?,
            rejected_quota: r.u64()?,
            queued: r.u64()? as usize,
            journal_bytes: r.u64()?,
        },
        cache: CacheStats {
            entries: r.u64()? as usize,
            hits: r.u64()?,
            disk_hits: r.u64()?,
            misses: r.u64()?,
            evictions: r.u64()?,
        },
    };
    if !r.at_end() {
        return Err("trailing bytes after stats frame");
    }
    Ok(s)
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
    let mut r = Reader::new(body);
    let s = JobStatus {
        state: state_from_code(r.u8()?)?,
        at_cycle: r.u64()?,
        slices: r.u32()?,
        from_cache: r.u8()? != 0,
        deduped: r.u8()? != 0,
    };
    if !r.at_end() {
        return Err("trailing bytes after status frame");
    }
    Ok(s)
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
            let conns: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
            while !stop2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((sock, _)) => {
                        let srv = Arc::clone(&server);
                        let st = Arc::clone(&stop2);
                        conns
                            .lock()
                            .unwrap()
                            .push(std::thread::spawn(move || serve_conn(sock, &srv, &st)));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL_TICK / 4);
                    }
                    Err(_) => break,
                }
            }
            for h in conns.into_inner().unwrap() {
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
        let req = match decode_request_frame(tag, &body) {
            Ok(r) => r,
            Err(_) => {
                // Typed rejection, connection stays usable (the frame
                // itself was sound).
                if write_frame(&mut sock, RESP_ERR, &[ERR_MALFORMED]).is_err() {
                    return;
                }
                continue;
            }
        };
        let ok = match req {
            Request::Submit(sub) => match server.submit_with(*sub) {
                Ok(h) => {
                    let mut b = Vec::with_capacity(8);
                    wire::put_u64(&mut b, h.id());
                    write_frame(&mut sock, RESP_SUBMITTED, &b)
                }
                Err(e) => write_frame(&mut sock, RESP_ERR, &[err_code(e)]),
            },
            Request::Poll(id) => match server.handle(id) {
                Some(h) => write_frame(&mut sock, RESP_STATUS, &encode_status(&h.poll())),
                None => write_frame(&mut sock, RESP_ERR, &[err_code(JobError::UnknownJob)]),
            },
            Request::Wait { id, timeout_ms } => match server.handle(id) {
                None => write_frame(&mut sock, RESP_ERR, &[err_code(JobError::UnknownJob)]),
                Some(h) => {
                    // Wait in short ticks so stop() joins promptly.
                    let deadline = Instant::now() + Duration::from_millis(timeout_ms);
                    let outcome = loop {
                        let tick =
                            POLL_TICK.min(deadline.saturating_duration_since(Instant::now()));
                        match h.wait_deadline(tick) {
                            Err(JobError::Timeout) => {
                                if stop.load(Ordering::Relaxed) {
                                    break Err(JobError::Shutdown);
                                }
                                if Instant::now() >= deadline {
                                    break Err(JobError::Timeout);
                                }
                            }
                            other => break other,
                        }
                    };
                    match outcome {
                        Ok(r) => {
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
                            write_frame(&mut sock, RESP_RESULT, &b)
                        }
                        Err(e) => write_frame(&mut sock, RESP_ERR, &[err_code(e)]),
                    }
                }
            },
            Request::Cancel(id) => match server.handle(id) {
                Some(h) => {
                    h.cancel();
                    write_frame(&mut sock, RESP_OK, &[])
                }
                None => write_frame(&mut sock, RESP_ERR, &[err_code(JobError::UnknownJob)]),
            },
            Request::Stream(id) => match server.handle(id) {
                None => write_frame(&mut sock, RESP_ERR, &[err_code(JobError::UnknownJob)]),
                Some(mut h) => {
                    let rx = h.take_stream();
                    let mut res = Ok(());
                    if let Some(rx) = rx {
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            match rx.recv_timeout(POLL_TICK) {
                                Ok(row) => {
                                    res = write_frame(&mut sock, RESP_ROW, &wire::encode_row(&row));
                                    if res.is_err() {
                                        break;
                                    }
                                }
                                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
                                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                            }
                        }
                    }
                    // Unprobed, already-taken, or drained: the stream
                    // simply ends.
                    res.and_then(|()| write_frame(&mut sock, RESP_END, &[]))
                }
            },
            Request::Stats => {
                let s = RemoteStats {
                    server: server.stats(),
                    cache: server.cache_stats(),
                };
                write_frame(&mut sock, RESP_STATS, &encode_stats(&s))
            }
        };
        if ok.is_err() {
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
