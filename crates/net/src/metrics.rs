//! Quantitative performance metrics (§3 of the paper):
//! communication complexity (bits exchanged among honest parties), message
//! complexity, and asynchronous rounds (the causal-depth / virtual-round
//! measure of Canetti–Rabin).

use crate::party::PartyId;

/// Counters collected by the simulator for one protocol execution.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Messages sent by honest parties.
    pub honest_messages: u64,
    /// Total bytes of messages sent by honest parties (exact wire encoding).
    pub honest_bytes: u64,
    /// Messages sent by corrupted parties (not charged to the protocol, but
    /// useful for debugging adversaries).
    pub byzantine_messages: u64,
    /// Messages actually delivered.
    pub delivered_messages: u64,
    /// Messages purged undelivered because their receiver crashed (dropped
    /// at send time or withdrawn from flight when the receiver crashed).
    /// `sent == delivered + purged + still-in-flight` at every point.
    pub purged_messages: u64,
    /// Per-party bytes sent (indexed by party id), honest and corrupted.
    pub per_party_bytes: Vec<u64>,
    /// Per-party messages sent.
    pub per_party_messages: Vec<u64>,
    /// Causal depth ("asynchronous rounds") at which each party produced its
    /// output; `None` if it never did.
    pub output_rounds: Vec<Option<u64>>,
    /// Parties excluded from the round metric and from termination
    /// (Byzantine, crashed, or mounted to crash mid-run): they are not
    /// expected to ever produce an output.
    pub excluded: Vec<bool>,
    /// Non-excluded parties with no recorded output, kept in O(1) by
    /// [`Self::exclude`] and [`Self::record_output`]; a run stops when it
    /// reaches zero.
    awaiting: usize,
    /// Maximum causal depth reached by any delivered message.
    pub max_depth: u64,
    /// Pre-activation envelopes still buffered inside the parties' routers
    /// when the run stopped (occupancy; see
    /// [`PreActivationBuffer`](crate::mux::PreActivationBuffer)).  Polled
    /// from the party state machines at the end of a run.
    pub pre_activation_buffered: u64,
    /// Pre-activation envelopes dropped by the routers' per-sender caps,
    /// duplicate filters, or retirement tombstones over the whole run.
    pub pre_activation_dropped: u64,
}

impl Metrics {
    /// Creates zeroed metrics for `n` parties.
    pub fn new(n: usize) -> Self {
        Metrics {
            per_party_bytes: vec![0; n],
            per_party_messages: vec![0; n],
            output_rounds: vec![None; n],
            excluded: vec![false; n],
            awaiting: n,
            ..Default::default()
        }
    }

    /// Excludes a party (Byzantine, crashed, or mounted to crash) from the
    /// round metric and stops awaiting it.
    pub fn exclude(&mut self, party: PartyId) {
        if let Some(e) = self.excluded.get_mut(party.index()) {
            if !*e && self.output_rounds[party.index()].is_none() {
                self.awaiting -= 1;
            }
            *e = true;
        }
    }

    /// Number of non-excluded parties that have no recorded output.
    pub(crate) fn awaiting(&self) -> usize {
        self.awaiting
    }

    /// Records that `sender` sent a message of `bytes` bytes.
    pub fn record_send(&mut self, sender: PartyId, bytes: usize, honest: bool) {
        if honest {
            self.honest_messages += 1;
            self.honest_bytes += bytes as u64;
        } else {
            self.byzantine_messages += 1;
        }
        if let Some(b) = self.per_party_bytes.get_mut(sender.index()) {
            *b += bytes as u64;
        }
        if let Some(m) = self.per_party_messages.get_mut(sender.index()) {
            *m += 1;
        }
    }

    /// Records a delivery at the given causal depth.
    pub fn record_delivery(&mut self, depth: u64) {
        self.delivered_messages += 1;
        self.max_depth = self.max_depth.max(depth);
    }

    /// Records a message that left the network undelivered (receiver
    /// crashed).
    pub fn record_purge(&mut self) {
        self.purged_messages += 1;
    }

    /// Records the causal depth at which a party first produced output.
    pub fn record_output(&mut self, party: PartyId, depth: u64) {
        if let Some(slot) = self.output_rounds.get_mut(party.index()) {
            if slot.is_none() {
                *slot = Some(depth);
                if !self.excluded[party.index()] {
                    self.awaiting -= 1;
                }
            }
        }
    }

    /// The asynchronous-round count of the execution: the largest causal
    /// depth at which an honest party produced its output.  `None` if some
    /// honest (non-excluded) party has not output yet.  Excluded parties'
    /// outputs are ignored entirely — an adversarial machine must not be
    /// able to inflate the honest round count.
    pub fn rounds_to_all_outputs(&self) -> Option<u64> {
        let mut max = None;
        for (i, r) in self.output_rounds.iter().enumerate() {
            if self.excluded.get(i).copied().unwrap_or(false) {
                continue;
            }
            match r {
                Some(d) => max = Some(max.unwrap_or(0).max(*d)),
                None => return None,
            }
        }
        // `None` when no party is measurable (all excluded): there is no
        // honest execution to report a round count for.
        max
    }

    /// Communication in bits (the paper reports bits, the simulator counts
    /// bytes).
    pub fn honest_bits(&self) -> u64 {
        self.honest_bytes * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new(3);
        m.record_send(PartyId(0), 10, true);
        m.record_send(PartyId(1), 20, true);
        m.record_send(PartyId(2), 99, false);
        assert_eq!(m.honest_messages, 2);
        assert_eq!(m.honest_bytes, 30);
        assert_eq!(m.honest_bits(), 240);
        assert_eq!(m.byzantine_messages, 1);
        assert_eq!(m.per_party_bytes, vec![10, 20, 99]);
        assert_eq!(m.per_party_messages, vec![1, 1, 1]);
    }

    #[test]
    fn output_rounds_tracking() {
        let mut m = Metrics::new(2);
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.record_output(PartyId(0), 3);
        m.record_output(PartyId(0), 9); // later output does not overwrite
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.record_output(PartyId(1), 5);
        assert_eq!(m.rounds_to_all_outputs(), Some(5));
        assert_eq!(m.output_rounds[0], Some(3));
    }

    #[test]
    fn excluded_parties_do_not_block_round_metric() {
        let mut m = Metrics::new(3);
        assert_eq!(m.awaiting(), 3);
        m.record_output(PartyId(0), 3);
        m.record_output(PartyId(1), 6);
        assert_eq!(m.awaiting(), 1);
        // A second output of the same party is not a second recorded output.
        m.record_output(PartyId(1), 8);
        assert_eq!(m.awaiting(), 1);
        // Party 2 is a silent Byzantine party: without exclusion the metric
        // is undefined, with exclusion it reflects the honest parties.
        assert_eq!(m.rounds_to_all_outputs(), None);
        m.exclude(PartyId(2));
        assert_eq!(m.awaiting(), 0);
        assert_eq!(m.rounds_to_all_outputs(), Some(6));
        // Excluding a party twice stops awaiting it once.
        m.exclude(PartyId(2));
        assert_eq!(m.awaiting(), 0);
        // An excluded (adversarial) party outputting late must not inflate
        // the honest round count, nor be counted as an awaited output.
        m.record_output(PartyId(2), 9);
        assert_eq!(m.awaiting(), 0);
        assert_eq!(m.rounds_to_all_outputs(), Some(6));
        // With every party excluded there is nothing to measure.
        m.exclude(PartyId(0));
        m.exclude(PartyId(1));
        assert_eq!(m.awaiting(), 0);
        assert_eq!(m.rounds_to_all_outputs(), None);
    }

    #[test]
    fn delivery_depth_tracked() {
        let mut m = Metrics::new(1);
        m.record_delivery(2);
        m.record_delivery(7);
        m.record_delivery(4);
        assert_eq!(m.delivered_messages, 3);
        assert_eq!(m.max_depth, 7);
    }
}
