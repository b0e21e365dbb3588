//! Bracha's vote counting, shared by every `Echo`/`Ready` amplification in
//! the workspace: the RBC itself, the AVSS ciphertext dissemination and the
//! Seeding reveal (and the AVSS key votes).
//!
//! Each sender's **first** vote counts and later ones are ignored.  An
//! honest party votes once, so honest runs count exactly what a per-value
//! set of senders would; a Byzantine sender gets one vote however many
//! distinct values it sends.  The tally therefore holds at most `n` values,
//! and it compares them by equality instead of keying a map by a digest of
//! every message.

use crate::party::PartyId;

/// One kind of vote (say, every `Echo` of one broadcast instance), counted
/// once per sender.
#[derive(Debug, Clone)]
pub struct VoteTally<V> {
    /// Whether each sender has voted.
    voted: Vec<bool>,
    /// Each distinct value voted for, with its number of votes.
    values: Vec<(V, usize)>,
}

impl<V: PartialEq> VoteTally<V> {
    /// An empty tally over senders `0..n`.
    pub fn new(n: usize) -> Self {
        VoteTally { voted: vec![false; n], values: Vec::new() }
    }

    /// Counts `from`'s vote for `value` if it is `from`'s first vote and
    /// returns the stored value with its vote count; returns `None` for a
    /// repeat vote or a sender outside `0..n`.
    pub fn vote(&mut self, from: PartyId, value: V) -> Option<(&V, usize)> {
        let voted = self.voted.get_mut(from.index())?;
        if *voted {
            return None;
        }
        *voted = true;
        let slot = match self.values.iter().position(|(v, _)| *v == value) {
            Some(slot) => slot,
            None => {
                self.values.push((value, 0));
                self.values.len() - 1
            }
        };
        let (value, count) = &mut self.values[slot];
        *count += 1;
        Some((value, *count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_senders_first_vote_only() {
        let mut tally = VoteTally::new(4);
        assert_eq!(tally.vote(PartyId(0), "a"), Some((&"a", 1)));
        assert_eq!(tally.vote(PartyId(1), "b"), Some((&"b", 1)));
        assert_eq!(tally.vote(PartyId(2), "a"), Some((&"a", 2)));
        // A repeat, for the same or another value, is not counted.
        assert_eq!(tally.vote(PartyId(0), "a"), None);
        assert_eq!(tally.vote(PartyId(1), "a"), None);
        assert_eq!(tally.vote(PartyId(3), "a"), Some((&"a", 3)));
        // Unknown senders are ignored.
        assert_eq!(tally.vote(PartyId(4), "a"), None);
    }

    #[test]
    fn holds_at_most_one_value_per_sender() {
        let mut tally = VoteTally::new(3);
        for k in 0..1000u32 {
            let _ = tally.vote(PartyId(k as usize % 3), k);
        }
        assert_eq!(tally.values.len(), 3);
    }
}
