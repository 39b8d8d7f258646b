//! Open-loop schedule arithmetic: when each request is due, how late the
//! generator sent it, and how long it took measured from when it was due.

use crate::stats::Rng;

/// When request `i` is due, in nanoseconds after the schedule starts, at a
/// fixed offered `rate` (requests per second).
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// One request's place against the schedule, in nanoseconds after start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the schedule wanted the request sent.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When the response was complete.
    pub done_ns: u64,
}

impl Timing {
    /// Latency counted from the due time, so a stall that delays later
    /// sends is charged to the requests it delayed.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent the request (0 when on time).
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// `n` items drawn in blocks: every block holds each item exactly `weight`
/// times, in a seeded order, so any prefix of whole blocks has the exact
/// composition the weights state.
pub fn block_sequence<T: Copy>(weights: &[(T, usize)], n: usize, rng: &mut Rng) -> Vec<T> {
    let mut block: Vec<T> = weights
        .iter()
        .flat_map(|&(item, w)| std::iter::repeat_n(item, w))
        .collect();
    let mut out = Vec::with_capacity(n + block.len());
    while out.len() < n && !block.is_empty() {
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        assert_eq!(due_ns(0, 400.0), 0);
        assert_eq!(due_ns(1, 400.0), 2_500_000);
        assert_eq!(due_ns(400, 400.0), 1_000_000_000);
        assert_eq!(due_ns(3, 3.0), 1_000_000_000);
    }

    #[test]
    fn latency_counts_from_due_and_lag_from_send() {
        // On time: sent when due, latency is service time.
        let on_time = Timing {
            due_ns: 1_000,
            sent_ns: 1_000,
            done_ns: 1_400,
        };
        assert_eq!((on_time.lag_ns(), on_time.latency_ns()), (0, 400));
        // The generator ran late by 300: the wait is charged to latency.
        let late = Timing {
            due_ns: 1_000,
            sent_ns: 1_300,
            done_ns: 1_700,
        };
        assert_eq!((late.lag_ns(), late.latency_ns()), (300, 700));
        // Sent marginally early (timer granularity): no negative lag.
        let early = Timing {
            due_ns: 1_000,
            sent_ns: 990,
            done_ns: 1_200,
        };
        assert_eq!((early.lag_ns(), early.latency_ns()), (0, 200));
    }

    #[test]
    fn blocks_have_exact_composition_and_seeded_order() {
        let weights = [('a', 5), ('b', 3), ('c', 2)];
        let seq = block_sequence(&weights, 100, &mut Rng::new(9, 0));
        assert_eq!(seq.len(), 100);
        for block in seq.chunks(10) {
            assert_eq!(block.iter().filter(|&&c| c == 'a').count(), 5);
            assert_eq!(block.iter().filter(|&&c| c == 'b').count(), 3);
            assert_eq!(block.iter().filter(|&&c| c == 'c').count(), 2);
        }
        assert_eq!(seq, block_sequence(&weights, 100, &mut Rng::new(9, 0)));
        assert_ne!(seq, block_sequence(&weights, 100, &mut Rng::new(10, 0)));
        assert_eq!(block_sequence(&weights, 7, &mut Rng::new(9, 0)).len(), 7);
    }
}
