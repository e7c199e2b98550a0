//! Adversarial-input properties of the job service's wire codecs.
//!
//! The journal replays whatever a crash left on disk and the TCP
//! front end and client parse whatever a socket delivers, so every
//! decoder in `xmt_server::wire` and `xmt_server::net` (requests and
//! responses), journal replay itself — and the checkpoint decoder,
//! whose bytes a journal `Commit` record carries — is a trust
//! boundary. The
//! properties pin the contract: on *arbitrary* bytes, on *truncated*
//! valid encodings, and on *bit-flipped* valid encodings, every
//! decoder returns a typed error or a (harmless) decoded value — it
//! never panics and never reads past the buffer. Round-trips of valid
//! values stay exact under the same generators.

use proptest::prelude::*;
use xmt_server::journal::Record;
use xmt_server::net::{self, Request};
use xmt_server::{decode_report, decode_request, decode_row, encode_request, Journal, SimRequest};
use xmt_sim::{Checkpoint, SimError, XmtConfig};

/// All the golden names the request codec can carry.
const NAMES: [&str; 3] = ["ps_tickets", "fft_radix8_n512", "spawn_storm"];

/// Every decoder at the trust boundary, behind one callable so each
/// property covers them all.
fn decode_all(bytes: &[u8]) {
    let _ = decode_request(bytes);
    let _ = decode_report(bytes);
    let _ = decode_row(bytes);
    let _ = Checkpoint::from_bytes(bytes);
    let _ = net::split_frame(bytes);
    let _ = net::decode_stats(bytes);
    let _ = net::decode_status(bytes);
    // A frame body under every request and response tag, known and
    // unknown.
    for tag in 0..=u8::MAX {
        let _ = net::decode_request_frame(tag, bytes);
        let _ = net::decode_response(tag, bytes);
    }
}

/// A journal file of `bytes`, replayed: whatever a crash or a bad disk
/// left must come back as a (possibly empty, possibly torn) replay,
/// never a panic. One file per calling test.
fn replay_file(test: &str, bytes: &[u8]) -> xmt_server::journal::Replay {
    let path = std::env::temp_dir().join(format!("xmt-wire-{test}-{}.journal", std::process::id()));
    std::fs::write(&path, bytes).unwrap();
    let replay = Journal::replay(&path).expect("replay only fails on I/O");
    let _ = std::fs::remove_file(&path);
    replay
}

/// The bytes of a well-formed journal holding every record kind.
fn valid_journal() -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("xmt-wire-valid-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let mut j = Journal::open(&path).unwrap();
    for (id, name) in NAMES.iter().enumerate() {
        j.append(&Record::Submit {
            id: id as u64,
            tenant: "prop".into(),
            lane: xmt_server::Lane::High,
            token: id as u64,
            req: encode_request(&SimRequest::golden(name).unwrap()),
        })
        .unwrap();
    }
    for rec in [
        Record::Commit {
            id: 0,
            at_cycle: 40,
            checkpoint: vec![7; 33],
        },
        Record::Done {
            id: 0,
            slices: 2,
            from_cache: false,
            report: vec![9; 21],
        },
        Record::Failed { id: 1 },
        Record::Cancelled { id: 2 },
    ] {
        j.append(&rec).unwrap();
    }
    drop(j);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A valid encoded submit-request frame to mutate, plus its tag.
fn valid_frame(name: &str, lane_high: bool, token: u64) -> (u8, Vec<u8>) {
    let mut sub = xmt_server::Submission::new(SimRequest::golden(name).unwrap())
        .tenant("prop")
        .token(token);
    if lane_high {
        sub = sub.lane(xmt_server::Lane::High);
    }
    net::encode_request_frame(&Request::Submit(Box::new(sub)))
}

/// Single-field changes to a request's machine geometry, each of which
/// used to decode, be admitted, and then panic a machine constructor
/// (or, for the DRAM rate, the first burst) on the worker thread.
const BAD_GEOMETRY: [fn(&mut XmtConfig); 13] = [
    |a| a.tcus_per_cluster = 65,
    |a| a.clusters = 3,
    |a| a.memory_modules = 0,
    |a| a.memory_modules = 3,
    |a| a.mm_per_dram_ctrl = 0,
    |a| a.mm_per_dram_ctrl = 5,
    |a| a.cache.lines = 0,
    |a| a.cache.ways = 0,
    |a| a.cache.ways = 3,
    |a| a.cache.line_words = 0,
    |a| a.cache.line_words = 3,
    |a| a.dram.bytes_per_cycle = 0.0,
    |a| a.butterfly_levels = 31,
];

/// Single-field changes a machine can be built from (whatever it then
/// computes): the decoder must keep accepting them.
const ODD_GEOMETRY: [fn(&mut XmtConfig); 7] = [
    |a| a.tcus = 1,
    |a| a.tcus_per_cluster = 1,
    |a| a.fpus_per_cluster = 0,
    |a| a.lsus_per_cluster = 0,
    |a| a.mot_levels = 0,
    |a| a.cache.hit_latency = 0,
    |a| a.dram.access_latency = 0,
];

/// The geometry rules are stated once (`XmtConfig::validate`) and both
/// doors check them: a bad request is a typed error at the socket, and
/// a typed `InvalidConfig` — never a panic — when built in-process.
/// What the decoder lets through builds and runs to a typed outcome.
#[test]
fn bad_geometry_is_a_typed_error_at_both_doors() {
    let base = SimRequest::golden("ps_tickets").unwrap();
    for (i, change) in BAD_GEOMETRY.iter().enumerate() {
        let mut req = base.clone();
        change(&mut req.sim.arch);
        assert!(
            decode_request(&encode_request(&req)).is_err(),
            "bad geometry {i} decodes"
        );
        assert!(
            matches!(
                req.builder().try_build(),
                Err(SimError::InvalidConfig { .. })
            ),
            "bad geometry {i} builds"
        );
    }
    for (i, change) in ODD_GEOMETRY.iter().enumerate() {
        let mut req = base.clone().with_sim(|s| s.max_cycles(100_000));
        change(&mut req.sim.arch);
        let decoded = decode_request(&encode_request(&req))
            .unwrap_or_else(|e| panic!("odd geometry {i} rejected: {e}"));
        assert_eq!(decoded, req);
        let mut m = decoded
            .builder()
            .try_build()
            .unwrap_or_else(|e| panic!("odd geometry {i} does not build: {e}"));
        let _ = m.run();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: every decoder returns, with no panic and no
    /// over-read (the slice bound is the proof — Reader can't index
    /// outside it without panicking, which this property forbids).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        decode_all(&bytes);
    }

    /// Journal replay over arbitrary bytes, and over a well-formed
    /// journal truncated or bit-flipped anywhere: it returns, and a
    /// damaged file never yields more than the intact one held — at
    /// most the jobs whose `Submit` precedes the damage.
    #[test]
    fn journal_replay_survives_any_file(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        cut in 0.0f64..1.0,
        bit_frac in 0.0f64..1.0,
    ) {
        replay_file("any", &bytes);
        let full = valid_journal();
        prop_assert_eq!(replay_file("any", &full).jobs.len(), NAMES.len());
        // A cut loses exactly the frame it lands in: the tail is torn
        // unless the cut falls between two frames.
        let mut ends = vec![0];
        while let Some(len4) = full.get(ends[ends.len() - 1]..).and_then(|rest| rest.get(..4)) {
            let len = u32::from_le_bytes(len4.try_into().unwrap()) as usize;
            ends.push(ends[ends.len() - 1] + 12 + len);
        }
        let cut = (full.len() as f64 * cut) as usize;
        let torn = replay_file("any", &full[..cut]);
        prop_assert!(torn.jobs.len() <= NAMES.len());
        prop_assert_eq!(torn.torn_tail, !ends.contains(&cut));
        let mut flipped = full.clone();
        let bit = (flipped.len() * 8 - 1).min((flipped.len() as f64 * 8.0 * bit_frac) as usize);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let damaged = replay_file("any", &flipped);
        prop_assert!(damaged.jobs.len() <= NAMES.len());
        // A flipped bit fails its frame's checksum: replay stops there.
        prop_assert!(damaged.torn_tail);
    }

    /// Truncating a valid request encoding at any point yields a typed
    /// error, never a panic and never a bogus success.
    #[test]
    fn truncated_requests_are_typed_errors(
        pick in 0usize..3,
        cut in 0.0f64..1.0,
    ) {
        let full = encode_request(&SimRequest::golden(NAMES[pick]).unwrap());
        let cut = ((full.len() as f64 * cut) as usize).min(full.len() - 1);
        prop_assert!(decode_request(&full[..cut]).is_err());
        decode_all(&full[..cut]);
    }

    /// Bit-flipping any single bit of a valid request either fails
    /// typed or decodes to a *different* value than the original —
    /// silent corruption may pass the codec (the digest downstream
    /// catches payload flips), but it must never panic the decoder.
    #[test]
    fn bit_flipped_requests_never_panic(
        pick in 0usize..3,
        bit_frac in 0.0f64..1.0,
    ) {
        let mut bytes = encode_request(&SimRequest::golden(NAMES[pick]).unwrap());
        let bit = (bytes.len() * 8 - 1).min((bytes.len() as f64 * 8.0 * bit_frac) as usize);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_request(&bytes);
        decode_all(&bytes);
    }

    /// The same three adversarial shapes against the framed submit
    /// request: truncation and bit flips must never panic the frame
    /// decoder, and honest frames round-trip exactly.
    #[test]
    fn request_frames_survive_mutation(
        pick in 0usize..3,
        lane_high in any::<bool>(),
        token in any::<u64>(),
        cut in 0.0f64..1.0,
        bit_frac in 0.0f64..1.0,
        wrong_tag in any::<u8>(),
    ) {
        let (tag, body) = valid_frame(NAMES[pick], lane_high, token);
        // Round-trip.
        let decoded = net::decode_request_frame(tag, &body).unwrap();
        prop_assert_eq!(net::encode_request_frame(&decoded), (tag, body.clone()));
        // Truncation: typed error (a shorter submit body can never be
        // a valid submit — every field is length-checked).
        let cut = (body.len() as f64 * cut) as usize;
        if cut < body.len() {
            prop_assert!(net::decode_request_frame(tag, &body[..cut]).is_err());
        }
        // Bit flip anywhere: no panic.
        let mut flipped = body.clone();
        let bit = (flipped.len() * 8 - 1).min((flipped.len() as f64 * 8.0 * bit_frac) as usize);
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = net::decode_request_frame(tag, &flipped);
        // The body under every other tag: no panic (wrong-tag bodies
        // are exactly what a desynchronized peer would send).
        let _ = net::decode_request_frame(wrong_tag, &body);
    }
}
