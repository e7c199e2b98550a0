//! Write-ahead journal: crash durability for the job queue.
//!
//! The checkpoint layer already makes a *single job* resumable from
//! quiescent-point bytes; the journal extends that guarantee to the
//! whole queue. Every accepted submission is appended (and fsynced)
//! before its handle is returned, every preemption commit appends the
//! job's latest checkpoint bytes, and every terminal state appends the
//! result. [`crate::Server::start`] with a journal path replays the
//! file: finished jobs come back with their byte-identical results,
//! in-flight jobs re-enter the run queue at their last quiescent
//! checkpoint, and — because every slice is deterministic — the
//! recovered run produces results byte-identical to an uninterrupted
//! one.
//!
//! Record framing is `[u32 len][u64 fnv1a(payload)][payload]`, payload
//! = record tag byte + checkpoint-style LE body (see
//! [`crate::wire`]). A crash can tear at most the tail record: replay
//! stops at the first truncated or checksum-failing frame and reports
//! it, so a torn append costs exactly the unacknowledged record and
//! nothing before it. On startup the server *compacts* the replayed
//! journal — one `Submit` (plus latest `Commit`, or the terminal
//! record) per live job — so repeated crash/restart cycles do not grow
//! the file without bound. Ids are assigned and journaled under one
//! lock, so `Submit` records arrive in id order and the fold finds a
//! job by binary search: replay is linear in the file.
//!
//! Replay policy per record kind:
//! - `Submit` — readmit the job (its id, tenant, lane and idempotency
//!   token are restored verbatim; ids never recycle).
//! - `Commit` — the job's latest checkpoint; earlier commits are
//!   superseded. Probed (streaming) jobs discard their checkpoint and
//!   restart from cycle zero instead: probe ring state is not
//!   journaled, and a deterministic from-scratch run regenerates the
//!   identical row stream for a reconnecting subscriber.
//! - `Done` — the terminal result; replay resolves the job immediately
//!   with the recorded bytes.
//! - `Cancelled` — replay resolves the job as cancelled.
//! - `Failed` — the record only marks that a failure happened; the job
//!   *re-executes* on recovery (failures are deterministic, and the
//!   partial report is cheaper to regenerate than to serialize with
//!   its typed error).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::job::{JobId, Lane};
use crate::server::Submission;
use crate::wire;
use xmt_sim::simcfg::fnv1a;

/// Hard cap on one journal record (a checkpoint of a paper-scale
/// memory image is megabytes; nothing legitimate approaches this).
const MAX_RECORD: usize = 256 << 20;

/// One durable event in the job queue's history.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A submission was accepted (admission control already passed).
    Submit {
        /// Server-assigned id, stable across restarts.
        id: JobId,
        /// Submitting tenant.
        tenant: String,
        /// Scheduling lane.
        lane: Lane,
        /// Client idempotency token (0 = none).
        token: u64,
        /// The request, encoded with [`wire::encode_request`].
        req: Vec<u8>,
    },
    /// A preemption commit: the job's latest quiescent checkpoint.
    Commit {
        /// The job.
        id: JobId,
        /// Simulated cycle of the checkpoint.
        at_cycle: u64,
        /// Serialized [`xmt_sim::Checkpoint`] bytes.
        checkpoint: Vec<u8>,
    },
    /// The job completed; `report` is the canonical result bytes.
    Done {
        /// The job.
        id: JobId,
        /// Worker slices consumed.
        slices: u32,
        /// Served from the content cache.
        from_cache: bool,
        /// Canonical [`wire::encode_report`] bytes.
        report: Vec<u8>,
    },
    /// The simulation failed; the job re-executes on replay.
    Failed {
        /// The job.
        id: JobId,
    },
    /// The job was cancelled.
    Cancelled {
        /// The job.
        id: JobId,
    },
}

impl Record {
    fn encode(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64);
        match self {
            Record::Submit {
                id,
                tenant,
                lane,
                token,
                req,
            } => {
                b.push(0);
                wire::put_u64(&mut b, *id);
                wire::put_str(&mut b, tenant);
                b.push(*lane as u8);
                wire::put_u64(&mut b, *token);
                wire::put_u32(&mut b, req.len() as u32);
                b.extend_from_slice(req);
            }
            Record::Commit {
                id,
                at_cycle,
                checkpoint,
            } => {
                b.push(1);
                wire::put_u64(&mut b, *id);
                wire::put_u64(&mut b, *at_cycle);
                wire::put_u32(&mut b, checkpoint.len() as u32);
                b.extend_from_slice(checkpoint);
            }
            Record::Done {
                id,
                slices,
                from_cache,
                report,
            } => {
                b.push(2);
                wire::put_u64(&mut b, *id);
                wire::put_u32(&mut b, *slices);
                b.push(u8::from(*from_cache));
                wire::put_u32(&mut b, report.len() as u32);
                b.extend_from_slice(report);
            }
            Record::Failed { id } => {
                b.push(3);
                wire::put_u64(&mut b, *id);
            }
            Record::Cancelled { id } => {
                b.push(4);
                wire::put_u64(&mut b, *id);
            }
        }
        b
    }

    fn decode(payload: &[u8]) -> Result<Record, &'static str> {
        wire::whole(payload, "trailing bytes after journal record", |r| {
            Ok(match r.u8()? {
                0 => Record::Submit {
                    id: r.u64()?,
                    tenant: r.str(256)?,
                    lane: Lane::from_code(r.u8()?)?,
                    token: r.u64()?,
                    req: r.blob()?,
                },
                1 => Record::Commit {
                    id: r.u64()?,
                    at_cycle: r.u64()?,
                    checkpoint: r.blob()?,
                },
                2 => Record::Done {
                    id: r.u64()?,
                    slices: r.u32()?,
                    from_cache: match r.u8()? {
                        0 => false,
                        1 => true,
                        _ => return Err("bad from_cache flag"),
                    },
                    report: r.blob()?,
                },
                3 => Record::Failed { id: r.u64()? },
                4 => Record::Cancelled { id: r.u64()? },
                _ => return Err("unknown journal record tag"),
            })
        })
    }

    /// The record as it sits in the file: `[len][fnv][payload]`.
    fn frame(&self) -> Vec<u8> {
        let payload = self.encode();
        let mut frame = Vec::with_capacity(12 + payload.len());
        wire::put_u32(&mut frame, payload.len() as u32);
        wire::put_u64(&mut frame, fnv1a(&payload));
        frame.extend_from_slice(&payload);
        frame
    }
}

/// Everything replay recovered about one journaled job, Submit record
/// folded together with its latest Commit and terminal record.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// Server-assigned id (restored verbatim).
    pub id: JobId,
    /// The submission as it was accepted, request decoded.
    pub sub: Submission,
    /// Latest quiescent checkpoint `(at_cycle, bytes)`, if any slice
    /// committed before the crash.
    pub checkpoint: Option<(u64, Vec<u8>)>,
    /// How the job ended, if it did: its latest `Done`, `Failed` or
    /// `Cancelled` record.
    pub terminal: Option<Record>,
}

/// What [`Journal::replay`] found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Recovered jobs in id (= submission) order.
    pub jobs: Vec<RecoveredJob>,
    /// True when replay stopped at a torn or corrupt tail frame.
    pub torn_tail: bool,
    /// Checksum-valid records whose body failed to decode (version
    /// skew); they are skipped, not fatal.
    pub skipped: u64,
}

/// An append-only journal file. The server holds it under a mutex and
/// appends through [`Journal::append`]; every append is flushed and
/// fsynced before the caller proceeds, so an acknowledged submission
/// survives `SIGKILL`.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Open (creating if absent) the journal at `path` for appending.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Append one record durably: frame, write, flush, `sync_data`.
    pub fn append(&mut self, rec: &Record) -> std::io::Result<()> {
        self.file.write_all(&rec.frame())?;
        self.file.sync_data()
    }

    /// Read the journal back, folding records into per-job recovery
    /// state. Missing file = empty replay. Stops at the first torn
    /// frame (see module docs).
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        };
        let mut out = Replay::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if bytes.len() - pos < 12 {
                out.torn_tail = true;
                break;
            }
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
            if len > MAX_RECORD || bytes.len() - pos - 12 < len {
                out.torn_tail = true;
                break;
            }
            let payload = &bytes[pos + 12..pos + 12 + len];
            if fnv1a(payload) != sum {
                out.torn_tail = true;
                break;
            }
            pos += 12 + len;
            match Record::decode(payload) {
                Err(_) => out.skipped += 1,
                Ok(rec) => out.fold(rec),
            }
        }
        Ok(out)
    }

    /// Atomically replace the journal with a compacted record list
    /// (write to `<path>.tmp`, fsync, rename) and return the new
    /// append handle. Called by the server after replay so restart
    /// loops do not grow the file.
    pub fn rewrite(path: &Path, records: &[Record]) -> std::io::Result<Journal> {
        let tmp = path.with_extension("journal.tmp");
        {
            let mut f = File::create(&tmp)?;
            for rec in records {
                f.write_all(&rec.frame())?;
            }
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Journal::open(path)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the journal file right now (tests and the stats
    /// endpoint).
    pub fn len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }

    /// True when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Replay {
    fn fold(&mut self, rec: Record) {
        match rec {
            Record::Submit {
                id,
                tenant,
                lane,
                token,
                req,
            } => {
                let Ok(req) = wire::decode_request(&req) else {
                    self.skipped += 1;
                    return;
                };
                // Duplicate submit ids cannot happen in a well-formed
                // journal; keep the first.
                if let Err(at) = self.slot(id) {
                    self.jobs.insert(
                        at,
                        RecoveredJob {
                            id,
                            sub: Submission {
                                req,
                                tenant,
                                lane,
                                token,
                            },
                            checkpoint: None,
                            terminal: None,
                        },
                    );
                }
            }
            Record::Commit {
                id,
                at_cycle,
                checkpoint,
            } => {
                if let Ok(at) = self.slot(id) {
                    self.jobs[at].checkpoint = Some((at_cycle, checkpoint));
                }
            }
            Record::Done { id, .. } | Record::Failed { id } | Record::Cancelled { id } => {
                if let Ok(at) = self.slot(id) {
                    self.jobs[at].terminal = Some(rec);
                }
            }
        }
    }

    /// Where job `id` is (`Ok`) or belongs (`Err`) in `jobs`, which is
    /// kept sorted by id: a well-formed journal submits in id order, so
    /// a new job lands at the end.
    fn slot(&self, id: JobId) -> Result<usize, usize> {
        self.jobs.binary_search_by_key(&id, |j| j.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::SimRequest;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xmt-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("jobs.journal")
    }

    fn submit_rec(id: JobId) -> Record {
        Record::Submit {
            id,
            tenant: "acme".into(),
            lane: Lane::High,
            token: 7,
            req: wire::encode_request(&SimRequest::golden("ps_tickets").unwrap()),
        }
    }

    #[test]
    fn replay_folds_submit_commit_done() {
        let path = scratch("fold");
        let mut j = Journal::open(&path).unwrap();
        j.append(&submit_rec(0)).unwrap();
        j.append(&submit_rec(1)).unwrap();
        j.append(&Record::Commit {
            id: 0,
            at_cycle: 500,
            checkpoint: vec![1, 2, 3],
        })
        .unwrap();
        j.append(&Record::Commit {
            id: 0,
            at_cycle: 900,
            checkpoint: vec![4, 5],
        })
        .unwrap();
        j.append(&Record::Done {
            id: 1,
            slices: 1,
            from_cache: false,
            report: vec![9; 16],
        })
        .unwrap();
        let rep = Journal::replay(&path).unwrap();
        assert!(!rep.torn_tail);
        assert_eq!(rep.skipped, 0);
        assert_eq!(rep.jobs.len(), 2);
        assert_eq!(
            rep.jobs[0].checkpoint,
            Some((900, vec![4, 5])),
            "latest commit wins"
        );
        assert!(rep.jobs[0].terminal.is_none());
        assert!(matches!(
            rep.jobs[1].terminal,
            Some(Record::Done { ref report, .. }) if report == &vec![9; 16]
        ));
        assert_eq!(rep.jobs[1].sub.tenant, "acme");
        assert_eq!(rep.jobs[1].sub.token, 7);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_loses_only_the_last_record() {
        let path = scratch("torn");
        let mut j = Journal::open(&path).unwrap();
        j.append(&submit_rec(0)).unwrap();
        j.append(&submit_rec(1)).unwrap();
        // Tear the file mid-frame, as a crash during the final append
        // would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let rep = Journal::replay(&path).unwrap();
        assert!(rep.torn_tail);
        assert_eq!(rep.jobs.len(), 1, "only the torn record is lost");
        assert_eq!(rep.jobs[0].id, 0);
        // A checksum flip likewise stops replay at that frame.
        let mut flipped = std::fs::read(&path).unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let rep = Journal::replay(&path).unwrap();
        assert!(rep.torn_tail || rep.skipped > 0 || rep.jobs.len() <= 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let path = scratch("compact");
        let mut j = Journal::open(&path).unwrap();
        for i in 0..4 {
            j.append(&submit_rec(i)).unwrap();
            j.append(&Record::Commit {
                id: i,
                at_cycle: 100 * i,
                checkpoint: vec![0; 64],
            })
            .unwrap();
        }
        let before = j.len();
        drop(j);
        let compact = vec![submit_rec(3)];
        let j2 = Journal::rewrite(&path, &compact).unwrap();
        assert!(j2.len() < before, "compaction must shrink the file");
        let rep = Journal::replay(&path).unwrap();
        assert_eq!(rep.jobs.len(), 1);
        assert_eq!(rep.jobs[0].id, 3);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn missing_journal_is_empty() {
        let rep = Journal::replay(Path::new("/nonexistent/xmt/jobs.journal")).unwrap();
        assert!(rep.jobs.is_empty());
        assert!(!rep.torn_tail);
    }
}
