//! Common flit-level network interface shared by the MoT, butterfly and
//! hybrid models, plus delivery bookkeeping.

/// One network flit: a request or reply travelling from a source port
/// to a destination port. `tag` is an opaque caller token (the
/// simulator's memory transactions travel in it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Source.
    pub src: usize,
    /// Destination.
    pub dst: usize,
    /// Opaque caller token.
    pub tag: u64,
}

/// A flit that reached its destination port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivered {
    /// The delivered flit.
    pub flit: Flit,
    /// Cycle the flit was injected.
    pub injected_at: u64,
    /// Cycle the flit was delivered (current cycle at delivery).
    pub delivered_at: u64,
}

impl Delivered {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.delivered_at - self.injected_at
    }
}

/// A cycle-stepped interconnect model.
///
/// Protocol: call [`Network::try_inject`] any number of times for the
/// current cycle (it returns `false` when the source port has already
/// injected this cycle or input buffering is full — backpressure), then
/// call [`Network::step`] exactly once to advance the clock; `step`
/// returns the flits delivered during that cycle.
///
/// `Send`, so a machine holding its networks as trait objects is
/// `Send` too: the job server keeps a paused machine between slices and
/// whichever worker runs the next slice takes it.
pub trait Network: Send {
    /// (source ports, destination ports).
    fn ports(&self) -> (usize, usize);
    /// Attempt to inject a flit at the current cycle.
    fn try_inject(&mut self, flit: Flit) -> bool;
    /// Advance one cycle, appending deliveries to `out` (which the
    /// caller typically clears and reuses across cycles — the hot
    /// simulator loop must not allocate per cycle).
    fn step_into(&mut self, out: &mut Vec<Delivered>);
    /// Advance one cycle; returns deliveries in a fresh `Vec`.
    /// Convenience wrapper over [`Network::step_into`] for tests and
    /// offline traffic harnesses.
    fn step(&mut self) -> Vec<Delivered> {
        let mut out = Vec::new();
        self.step_into(&mut out);
        out
    }
    /// Flits currently inside the network.
    fn in_flight(&self) -> usize;
    /// Current cycle number (starts at 0; incremented by `step`).
    fn cycle(&self) -> u64;
    /// Minimum possible traversal latency in cycles.
    fn min_latency(&self) -> u64;

    /// Earliest future cycle (in this network's clock domain) at which
    /// a `step` could deliver a flit or move internal state, assuming
    /// no further injections. `None` means the network is empty and
    /// stepping it is a pure clock tick. The returned cycle may be
    /// conservative (earlier than the true next event), never later.
    fn next_event(&self) -> Option<u64> {
        if self.in_flight() == 0 {
            None
        } else {
            Some(self.cycle() + 1)
        }
    }

    /// Advance the clock by `n` cycles during which the caller
    /// guarantees (via [`Network::next_event`]) that no flit moves and
    /// nothing is injected. Must leave the network in exactly the
    /// state `n` successive event-free `step` calls would. The default
    /// simply steps, which is always correct but forfeits the speedup.
    fn skip_idle(&mut self, n: u64) {
        for _ in 0..n {
            let delivered = self.step();
            debug_assert!(delivered.is_empty(), "skip_idle crossed a delivery");
        }
    }

    /// Flits `src` could still successfully inject before the next
    /// `step`, assuming it has not injected this cycle: the per-cycle
    /// rate limit (always 1) minus any input-buffer backpressure.
    /// Callers that batch a cycle's injections may rely on this to
    /// predict `try_inject` outcomes exactly.
    fn inject_budget(&self, src: usize) -> usize {
        let _ = src;
        1
    }

    /// Snapshot of the accumulated [`NetStats`]. Observability probes
    /// sample this at interval boundaries; it must be cheap (a copy of
    /// counters the model already maintains).
    fn stats(&self) -> NetStats;

    /// Overwrite the accumulated [`NetStats`] wholesale. Checkpoint
    /// restore uses this to resume a run with the counters it had at
    /// the save point; the network itself must be empty (`in_flight ==
    /// 0`) when called. The default is a no-op for models that keep no
    /// restorable counters.
    fn restore_stats(&mut self, stats: NetStats) {
        let _ = stats;
    }
}

/// Aggregate statistics a network keeps about its own operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// The `injected` value.
    pub injected: u64,
    /// The `delivered` value.
    pub delivered: u64,
    /// The `total_latency` value.
    pub total_latency: u64,
    /// The `peak_in_flight` value.
    pub peak_in_flight: usize,
    /// Injections refused due to per-port rate or buffer backpressure.
    pub inject_rejections: u64,
    /// Deliveries detected as corrupted by the link-fault layer (see
    /// `faulty::FaultyNetwork`); zero on a fault-free network.
    pub corrupted: u64,
    /// Redeliveries scheduled after a corrupted delivery (bounded
    /// retry with exponential backoff).
    pub retried: u64,
    /// Corrupted deliveries whose retry budget was exhausted; the flit
    /// is delivered anyway (end-to-end recovery) and counted here.
    pub retry_exhausted: u64,
}

impl NetStats {
    /// Mean end-to-end latency of delivered flits.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivered_latency() {
        let d = Delivered {
            flit: Flit {
                src: 0,
                dst: 1,
                tag: 9,
            },
            injected_at: 10,
            delivered_at: 25,
        };
        assert_eq!(d.latency(), 15);
    }

    #[test]
    fn stats_mean_latency() {
        let mut s = NetStats::default();
        assert_eq!(s.mean_latency(), 0.0);
        s.delivered = 4;
        s.total_latency = 10;
        assert_eq!(s.mean_latency(), 2.5);
    }
}
