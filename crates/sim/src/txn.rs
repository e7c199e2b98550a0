//! A memory transaction travels as its own tag.
//!
//! Every load and store a TCU issues crosses the request NoC, a memory
//! module's queue and the reply NoC as one `u64` tag, and the tag *is*
//! the transaction — no hop after issue looks anything up:
//!
//! * **Request tag** (request flit): the word address in bits 0–31,
//!   the issuing TCU in 32–37, the kind in 38–39 (0 store, 1 integer
//!   load, 2 FP load), the destination register in 40–44 and, for a
//!   store, its store slot in 45–47. The cluster is the flit's source.
//! * **Reply token** (module queue, outbox, reply flit): the value in
//!   bits 0–31 (the loaded word; the stored one for a store), TCU,
//!   kind and register where the request had them, and the cluster in
//!   45–63.
//!
//! A store's value does not fit beside its address, so it waits in one
//! of its TCU's [`MAX_OUTSTANDING`] store slots from the accepted
//! injection until the request reaches its home module. A TCU below
//! its cap always has a free slot: a slot is held by a store in flight,
//! and every transaction in flight counts against the cap until its
//! reply lands.

use xmt_isa::reg::{fr, ir, FReg, IReg};
use xmt_noc::{Flit, Network};

/// Maximum outstanding memory operations per TCU (models the XMT
/// prefetch/decoupling capability), and store slots per TCU.
pub(crate) const MAX_OUTSTANDING: u8 = 8;

const TCU_SHIFT: u32 = 32;
const KIND_SHIFT: u32 = 38;
const REG_SHIFT: u32 = 40;
const SLOT_SHIFT: u32 = 45;
const CLUSTER_SHIFT: u32 = 45;
/// TCU, kind and register: the bits a reply token keeps from its request.
const WHO_MASK: u64 = ((1 << SLOT_SHIFT) - 1) & !(u32::MAX as u64);

/// Clusters a reply token can name (its 19-bit cluster field);
/// [`crate::XmtConfig::validate`] holds machines to it.
pub(crate) const MAX_CLUSTERS: usize = 1 << (u64::BITS - CLUSTER_SHIFT);

/// What a memory transaction will do when its reply arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnKind {
    LoadI(IReg),
    LoadF(FReg),
    Store,
}

impl TxnKind {
    /// Kind and register, tag bits 38–44.
    #[inline(always)]
    fn bits(self) -> u64 {
        let (kind, reg) = match self {
            TxnKind::Store => (0, 0),
            TxnKind::LoadI(rd) => (1, rd.index()),
            TxnKind::LoadF(fd) => (2, fd.index()),
        };
        (kind << KIND_SHIFT) | (reg as u64) << REG_SHIFT
    }

    #[inline(always)]
    fn of(tag: u64) -> Self {
        let reg = (tag >> REG_SHIFT) as usize & 31;
        match (tag >> KIND_SHIFT) & 3 {
            0 => TxnKind::Store,
            1 => TxnKind::LoadI(ir(reg)),
            _ => TxnKind::LoadF(fr(reg)),
        }
    }
}

/// A request tag's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    pub(crate) addr: u32,
    pub(crate) tcu: usize,
    pub(crate) kind: TxnKind,
    /// The store slot holding a store's value (0 for a load).
    pub(crate) slot: usize,
}

impl Request {
    /// The request flit's tag.
    #[inline(always)]
    pub(crate) fn tag(self) -> u64 {
        u64::from(self.addr)
            | (self.tcu as u64) << TCU_SHIFT
            | self.kind.bits()
            | (self.slot as u64) << SLOT_SHIFT
    }

    #[inline(always)]
    pub(crate) fn of(tag: u64) -> Self {
        Self {
            addr: tag as u32,
            tcu: (tag >> TCU_SHIFT) as usize & 63,
            kind: TxnKind::of(tag),
            slot: (tag >> SLOT_SHIFT) as usize & 7,
        }
    }
}

/// A reply on its way to its TCU: the reply token's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Reply {
    pub(crate) cluster: usize,
    pub(crate) tcu: usize,
    pub(crate) kind: TxnKind,
    pub(crate) value: u32,
}

impl Reply {
    /// The token the request tagged `request` becomes at its home
    /// module, where `value` was read (or written) on behalf of
    /// `cluster`.
    #[inline(always)]
    pub(crate) fn token(request: u64, value: u32, cluster: usize) -> u64 {
        u64::from(value) | (request & WHO_MASK) | (cluster as u64) << CLUSTER_SHIFT
    }

    #[inline(always)]
    pub(crate) fn of(token: u64) -> Self {
        Self {
            cluster: (token >> CLUSTER_SHIFT) as usize,
            tcu: (token >> TCU_SHIFT) as usize & 63,
            kind: TxnKind::of(token),
            value: token as u32,
        }
    }
}

/// One TCU's store slots: a free bit each, and the values held.
#[derive(Debug, Clone, Copy, Default)]
struct StoreSlots {
    taken: u8,
    values: [u32; MAX_OUTSTANDING as usize],
}

/// The memory transactions in flight: how many, and the values of the
/// stores among them that have not reached their home module yet.
#[derive(Debug, Clone)]
pub(crate) struct Txns {
    /// Per cluster, its TCUs' store slots; empty until the cluster's
    /// first store, as its register store is until its first thread.
    stores: Vec<Vec<StoreSlots>>,
    tcus_per_cluster: usize,
    /// Transactions in flight: accepted injections whose reply has not
    /// reached its TCU.
    pub(crate) in_flight: usize,
}

impl Txns {
    /// No transactions, on a machine of `clusters × tcus_per_cluster`.
    pub(crate) fn new(clusters: usize, tcus_per_cluster: usize) -> Self {
        Self {
            stores: vec![Vec::new(); clusters],
            tcus_per_cluster,
            in_flight: 0,
        }
    }

    /// Offer `request` from `cluster` to `req_net`, bound for `module`;
    /// false if the network refused it this cycle. A store's `value`
    /// rides in a free slot of its TCU, which this picks (the slot the
    /// caller names is ignored). A refusal leaves every slot and the
    /// in-flight count as they were.
    #[inline(always)]
    pub(crate) fn inject(
        &mut self,
        req_net: &mut dyn Network,
        cluster: usize,
        module: usize,
        mut request: Request,
        value: u32,
    ) -> bool {
        let (tcu, kind) = (request.tcu, request.kind);
        if kind == TxnKind::Store {
            let stores = &mut self.stores[cluster];
            if stores.is_empty() {
                *stores = vec![StoreSlots::default(); self.tcus_per_cluster];
            }
            request.slot = (!stores[tcu].taken).trailing_zeros() as usize;
            debug_assert!(stores[tcu].taken != u8::MAX, "store slots full");
        }
        let tag = request.tag();
        if !req_net.try_inject(Flit {
            src: cluster,
            dst: module,
            tag,
        }) {
            return false;
        }
        if kind == TxnKind::Store {
            let slots = &mut self.stores[cluster][tcu];
            slots.taken |= 1 << request.slot;
            slots.values[request.slot] = value;
        }
        self.in_flight += 1;
        true
    }

    /// A store from `cluster` reached its home module: its value,
    /// releasing its slot.
    #[inline(always)]
    pub(crate) fn take_store(&mut self, cluster: usize, request: Request) -> u32 {
        let slots = &mut self.stores[cluster][request.tcu];
        debug_assert!(slots.taken & 1 << request.slot != 0, "store slot not taken");
        slots.taken &= !(1 << request.slot);
        slots.values[request.slot]
    }

    /// Store slots taken across the machine.
    #[cfg(test)]
    pub(crate) fn taken_slots(&self) -> usize {
        let slots = self.stores.iter().flatten();
        slots.map(|s| s.taken.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<TxnKind> {
        let mut kinds = vec![TxnKind::Store];
        for r in 0..32 {
            kinds.push(TxnKind::LoadI(ir(r)));
            kinds.push(TxnKind::LoadF(fr(r)));
        }
        kinds
    }

    #[test]
    fn request_tags_and_reply_tokens_round_trip_every_field_at_its_extremes() {
        for kind in kinds() {
            for tcu in [0, 63] {
                for slot in [0, 7] {
                    for addr in [0, u32::MAX] {
                        let req = Request {
                            addr,
                            tcu,
                            kind,
                            slot,
                        };
                        assert_eq!(Request::of(req.tag()), req);
                        for value in [0, u32::MAX] {
                            for cluster in [0, MAX_CLUSTERS - 1] {
                                let token = Reply::token(req.tag(), value, cluster);
                                let reply = Reply {
                                    cluster,
                                    tcu,
                                    kind,
                                    value,
                                };
                                assert_eq!(Reply::of(token), reply);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Each field, at its all-ones value with the others zero, sets
    /// its own bits and no other field's; together they cover the tag.
    #[test]
    fn fields_never_overlap() {
        let request = [
            Request::tag(Request {
                addr: u32::MAX,
                tcu: 0,
                kind: TxnKind::Store,
                slot: 0,
            }),
            Request::tag(Request {
                addr: 0,
                tcu: 63,
                kind: TxnKind::Store,
                slot: 0,
            }),
            TxnKind::LoadF(fr(31)).bits() | TxnKind::LoadI(ir(31)).bits(),
            Request::tag(Request {
                addr: 0,
                tcu: 0,
                kind: TxnKind::Store,
                slot: 7,
            }),
        ];
        let reply = [
            Reply::token(0, u32::MAX, 0),
            Reply::token(request[1], 0, 0),
            Reply::token(request[2], 0, 0),
            Reply::token(0, 0, MAX_CLUSTERS - 1),
        ];
        for (fields, width) in [(request, 48), (reply, 64)] {
            let mut seen = 0u64;
            for bits in fields {
                assert_ne!(bits, 0);
                assert_eq!(seen & bits, 0, "{bits:#x} overlaps {seen:#x}");
                seen |= bits;
            }
            assert_eq!(seen, u64::MAX >> (64 - width));
        }
    }
}
