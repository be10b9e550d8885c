//! A timing decorator over any [`Communicator`].
//!
//! [`TimingComm`] forwards every trait method to the wrapped communicator
//! and splits the time spent inside it three ways:
//!
//! - **collective**: blocking collectives (`barrier`, `all_reduce_*`,
//!   `broadcast_u64`, `all_gather_*`, `alltoallv_u64`) and their `try_*`
//!   forms;
//! - **post**: inside `post_exchange_u64`, the nonblocking exchange post;
//! - **wait**: blocked in `wait_exchange` until peers have deposited.
//!
//! Unlike `RunReport.overlap_nanos`, which sums post-to-wait windows, the
//! wait share here is time the rank actually sat blocked.

use std::cell::Cell;
use std::time::Instant;

use ripples_comm::{CommError, CommHealth, CommStats, Communicator, ExchangeHandle};

/// Time and call counts one rank spent inside its communicator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommTimes {
    /// Seconds inside blocking collectives.
    pub collective_s: f64,
    /// Seconds inside nonblocking exchange posts.
    pub post_s: f64,
    /// Seconds blocked waiting for posted exchanges.
    pub wait_s: f64,
    /// Blocking collective calls, `try_*` forms included.
    pub collective_calls: u64,
    /// Exchanges started: `alltoallv_u64` calls plus posts.
    pub exchange_calls: u64,
}

impl CommTimes {
    /// Seconds inside the communicator, all three kinds together.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.collective_s + self.post_s + self.wait_s
    }
}

/// Wraps `C`, timing every call into it. See the module docs.
pub struct TimingComm<C> {
    inner: C,
    collective_nanos: Cell<u64>,
    post_nanos: Cell<u64>,
    wait_nanos: Cell<u64>,
    collective_calls: Cell<u64>,
    exchange_calls: Cell<u64>,
}

impl<C: Communicator> TimingComm<C> {
    /// Wraps `inner` with all timers at zero.
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            collective_nanos: Cell::new(0),
            post_nanos: Cell::new(0),
            wait_nanos: Cell::new(0),
            collective_calls: Cell::new(0),
            exchange_calls: Cell::new(0),
        }
    }

    /// What this rank has spent inside the communicator so far.
    #[must_use]
    pub fn times(&self) -> CommTimes {
        CommTimes {
            collective_s: nanos_to_s(self.collective_nanos.get()),
            post_s: nanos_to_s(self.post_nanos.get()),
            wait_s: nanos_to_s(self.wait_nanos.get()),
            collective_calls: self.collective_calls.get(),
            exchange_calls: self.exchange_calls.get(),
        }
    }

    fn timed<T>(&self, slot: &Cell<u64>, f: impl FnOnce(&C) -> T) -> T {
        let start = Instant::now();
        let out = f(&self.inner);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        slot.set(slot.get().saturating_add(nanos));
        out
    }

    fn collective<T>(&self, f: impl FnOnce(&C) -> T) -> T {
        self.collective_calls.set(self.collective_calls.get() + 1);
        self.timed(&self.collective_nanos, f)
    }

    fn exchange<T>(&self, f: impl FnOnce(&C) -> T) -> T {
        self.exchange_calls.set(self.exchange_calls.get() + 1);
        self.collective(f)
    }
}

fn nanos_to_s(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

impl<C: Communicator> Communicator for TimingComm<C> {
    fn rank(&self) -> u32 {
        self.inner.rank()
    }

    fn size(&self) -> u32 {
        self.inner.size()
    }

    fn barrier(&self) {
        self.collective(Communicator::barrier);
    }

    fn all_reduce_sum_u64(&self, buf: &mut [u64]) {
        self.collective(|c| c.all_reduce_sum_u64(buf));
    }

    fn all_reduce_sum_f64(&self, value: f64) -> f64 {
        self.collective(|c| c.all_reduce_sum_f64(value))
    }

    fn all_reduce_max_f64(&self, value: f64) -> f64 {
        self.collective(|c| c.all_reduce_max_f64(value))
    }

    fn broadcast_u64(&self, root: u32, value: u64) -> u64 {
        self.collective(|c| c.broadcast_u64(root, value))
    }

    fn all_gather_u64(&self, value: u64) -> Vec<u64> {
        self.collective(|c| c.all_gather_u64(value))
    }

    fn all_gather_u64_list(&self, items: &[u64]) -> Vec<Vec<u64>> {
        self.collective(|c| c.all_gather_u64_list(items))
    }

    fn alltoallv_u64(&self, sends: &[Vec<u64>]) -> Vec<Vec<u64>> {
        self.exchange(|c| c.alltoallv_u64(sends))
    }

    fn post_exchange_u64(&self, sends: &[Vec<u64>]) -> ExchangeHandle {
        self.exchange_calls.set(self.exchange_calls.get() + 1);
        self.timed(&self.post_nanos, |c| c.post_exchange_u64(sends))
    }

    fn wait_exchange(&self, handle: ExchangeHandle) -> Vec<Vec<u64>> {
        self.timed(&self.wait_nanos, |c| c.wait_exchange(handle))
    }

    fn stats(&self) -> CommStats {
        self.inner.stats()
    }

    fn try_barrier(&self) -> Result<(), CommError> {
        self.collective(Communicator::try_barrier)
    }

    fn try_all_reduce_sum_u64(&self, buf: &mut [u64]) -> Result<(), CommError> {
        self.collective(|c| c.try_all_reduce_sum_u64(buf))
    }

    fn try_all_reduce_sum_f64(&self, value: f64) -> Result<f64, CommError> {
        self.collective(|c| c.try_all_reduce_sum_f64(value))
    }

    fn try_all_reduce_max_f64(&self, value: f64) -> Result<f64, CommError> {
        self.collective(|c| c.try_all_reduce_max_f64(value))
    }

    fn try_broadcast_u64(&self, root: u32, value: u64) -> Result<u64, CommError> {
        self.collective(|c| c.try_broadcast_u64(root, value))
    }

    fn try_all_gather_u64(&self, value: u64) -> Result<Vec<u64>, CommError> {
        self.collective(|c| c.try_all_gather_u64(value))
    }

    fn try_all_gather_u64_list(&self, items: &[u64]) -> Result<Vec<Vec<u64>>, CommError> {
        self.collective(|c| c.try_all_gather_u64_list(items))
    }

    fn try_alltoallv_u64(&self, sends: &[Vec<u64>]) -> Result<Vec<Vec<u64>>, CommError> {
        self.exchange(|c| c.try_alltoallv_u64(sends))
    }

    fn dead_ranks(&self) -> Vec<u32> {
        self.inner.dead_ranks()
    }

    fn declare_dead(&self, rank: u32) {
        self.inner.declare_dead(rank);
    }

    fn clock_ticks(&self) -> u64 {
        self.inner.clock_ticks()
    }

    fn advance_clock(&self, ticks: u64) {
        self.inner.advance_clock(ticks);
    }

    fn health(&self) -> CommHealth {
        self.inner.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripples_comm::ThreadWorld;
    use ripples_core::dist_sharded::imm_sharded;
    use ripples_core::ImmParams;
    use ripples_diffusion::DiffusionModel;
    use ripples_graph::generators::erdos_renyi;
    use ripples_graph::WeightModel;

    #[test]
    fn seeds_are_bitwise_equal_with_and_without_the_wrapper() {
        let graph = erdos_renyi(400, 3200, WeightModel::UniformRandom { seed: 3 }, false, 11);
        let params = ImmParams::new(8, 0.5, DiffusionModel::IndependentCascade, 5);
        for ranks in [1, 2] {
            let world = ThreadWorld::new(ranks);
            let plain = world.run(|comm| imm_sharded(comm, &graph, &params));
            let timed = world.run(|comm| {
                let timing = TimingComm::new(comm);
                let result = imm_sharded(&timing, &graph, &params);
                (result, timing.times())
            });
            for (p, (t, times)) in plain.iter().zip(&timed) {
                assert_eq!(p.seeds, t.seeds, "seeds at {ranks} ranks");
                assert_eq!(p.theta, t.theta);
                assert_eq!(p.coverage_fraction.to_bits(), t.coverage_fraction.to_bits());
                assert_eq!(
                    p.report.comm, t.report.comm,
                    "comm counters at {ranks} ranks"
                );
                assert!(times.collective_calls > 0);
                assert!(times.exchange_calls > 0);
            }
        }
    }

    #[test]
    fn splits_collective_post_and_wait_time() {
        let per_rank = ThreadWorld::new(2).run(|comm| {
            let timing = TimingComm::new(comm);
            let mut buf = [1u64, 2];
            timing.all_reduce_sum_u64(&mut buf);
            let _ = timing.try_barrier();
            let sends = vec![vec![u64::from(timing.rank())]; 2];
            let handle = timing.post_exchange_u64(&sends);
            let got = timing.wait_exchange(handle);
            let direct = timing.alltoallv_u64(&sends);
            (buf, got, direct, timing.times(), timing.stats())
        });
        for (buf, got, direct, times, stats) in per_rank {
            assert_eq!(buf, [2, 4]);
            assert_eq!(got, vec![vec![0], vec![1]]);
            assert_eq!(direct, got);
            // all_reduce + try_barrier + alltoallv.
            assert_eq!(times.collective_calls, 3);
            assert_eq!(times.exchange_calls, 2);
            assert_eq!(stats.exchange_calls, 2);
            assert!(times.collective_s > 0.0 && times.post_s > 0.0 && times.wait_s > 0.0);
            let sum = times.collective_s + times.post_s + times.wait_s;
            assert!((times.busy_s() - sum).abs() < 1e-15);
        }
    }
}
