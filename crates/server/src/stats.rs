//! Lock-free server counters, snapshot into the wire `ServerStats`.

use dfs_obs::AtomicHistogram;
use dfs_proto::ServerStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters bumped from accept, handler, and worker threads,
/// plus log-bucketed latency histograms so `dfs stats` and the
/// end-to-end benchmark's storm ledger see tails, not just totals.
#[derive(Debug, Default)]
pub struct Stats {
    pub connections: AtomicU64,
    pub served: AtomicU64,
    pub succeeded: AtomicU64,
    pub shed: AtomicU64,
    pub panicked: AtomicU64,
    pub deadline_exceeded: AtomicU64,
    pub malformed: AtomicU64,
    /// End-to-end request latency (ns), recorded by the connection
    /// handler for every admitted query when its reply resolves.
    pub latency: AtomicHistogram,
    /// Queue wait (ns): admission to execution start, recorded by the
    /// worker as it picks the job up.
    pub queue_wait: AtomicHistogram,
}

impl Stats {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot with the warm-cache counters supplied by the engine.
    pub fn snapshot(&self, ranking_computes: u64, ranking_hits: u64) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            succeeded: self.succeeded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            ranking_computes,
            ranking_hits,
            latency_hist: self.latency.snapshot().encode_sparse(),
            queue_hist: self.queue_wait.snapshot().encode_sparse(),
            // The split cache's counters are the engine's to fill.
            ..ServerStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_obs::Histogram;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::default();
        Stats::bump(&s.served);
        Stats::bump(&s.served);
        Stats::bump(&s.shed);
        let snap = s.snapshot(3, 9);
        assert_eq!(snap.served, 2);
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.ranking_computes, 3);
        assert_eq!(snap.ranking_hits, 9);
        assert_eq!(snap.panicked, 0);
    }

    #[test]
    fn snapshot_carries_decodable_histograms() {
        let s = Stats::default();
        s.latency.record(1_500_000);
        s.latency.record(2_500_000);
        s.queue_wait.record(10_000);
        let snap = s.snapshot(0, 0);
        let lat = Histogram::decode_sparse(&snap.latency_hist).expect("latency decodes");
        assert_eq!(lat.count, 2);
        assert_eq!(lat.sum, 4_000_000);
        let queue = Histogram::decode_sparse(&snap.queue_hist).expect("queue decodes");
        assert_eq!(queue.count, 1);
    }
}
