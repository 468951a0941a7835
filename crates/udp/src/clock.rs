//! Wall-clock to virtual-time mapping.

use std::time::Instant;

use gossip_types::{Duration, Time};

/// Maps monotonic wall-clock instants onto the protocol's [`Time`] axis.
///
/// All nodes of one cluster share a single epoch, so timestamps embedded
/// in packets by the source are directly comparable with receiver clocks
/// (single-machine deployment; distributed deployments would need clock
/// sync, which is out of scope for the paper's metrics).
///
/// # Examples
///
/// ```
/// use gossip_udp::clock::ClusterClock;
///
/// let clock = ClusterClock::start();
/// let a = clock.now();
/// let b = clock.now();
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ClusterClock {
    epoch: Instant,
}

impl ClusterClock {
    /// Fixes the epoch at the current instant.
    pub fn start() -> Self {
        ClusterClock { epoch: Instant::now() }
    }

    /// Fixes the epoch at an explicit instant — possibly in the future.
    ///
    /// This is how a multi-process deployment synchronises its timeline:
    /// the coordinator broadcasts one wall-clock start, every process maps
    /// it onto a local [`Instant`] and anchors its clock there, so
    /// `Time::ZERO` (and with it the compiled fault timeline) coincides
    /// across processes to within wall-clock skew. Before the epoch,
    /// [`ClusterClock::now`] saturates at [`Time::ZERO`].
    pub fn with_epoch(epoch: Instant) -> Self {
        ClusterClock { epoch }
    }

    /// Returns the current virtual time ([`Time::ZERO`] before the epoch).
    pub fn now(&self) -> Time {
        Time::from_micros(Instant::now().saturating_duration_since(self.epoch).as_micros() as u64)
    }

    /// Converts a virtual deadline back into a wall-clock wait from now
    /// ([`Duration::ZERO`] if the deadline has passed).
    pub fn until(&self, deadline: Time) -> std::time::Duration {
        let now = self.now();
        if deadline <= now {
            return std::time::Duration::ZERO;
        }
        std::time::Duration::from_micros((deadline - now).as_micros())
    }

    /// Converts a protocol duration into a wall-clock duration.
    pub fn to_std(d: Duration) -> std::time::Duration {
        std::time::Duration::from_micros(d.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let clock = ClusterClock::start();
        let mut prev = clock.now();
        for _ in 0..100 {
            let now = clock.now();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn until_past_deadline_is_zero() {
        let clock = ClusterClock::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(clock.until(Time::ZERO), std::time::Duration::ZERO);
    }

    #[test]
    fn until_future_deadline_is_positive() {
        let clock = ClusterClock::start();
        let future = clock.now() + Duration::from_secs(1);
        let wait = clock.until(future);
        assert!(wait > std::time::Duration::from_millis(500));
    }
}
