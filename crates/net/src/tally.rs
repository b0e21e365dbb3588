//! Bracha's vote counting and amplification, written once for the
//! workspace.
//!
//! [`VoteTally`] counts one kind of vote.  Each sender's **first** vote
//! counts and later ones are ignored.  An honest party votes once, so honest
//! runs count exactly what a per-value set of senders would; a Byzantine
//! sender gets one vote however many distinct values it sends.  The tally
//! therefore holds at most `n` values, and it compares them by equality
//! instead of keying a map by a digest of every message.  The AVSS key votes
//! use it directly.
//!
//! [`Amplifier`] is the `Echo`/`Ready` amplification of one Bracha
//! broadcast, on two tallies: the RBC itself, the AVSS ciphertext
//! dissemination (Alg 1 lines 20–26) and the Seeding reveal (Alg 7
//! lines 11–17).  Each protocol keeps its own echo trigger and its own
//! output.

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

/// The echo/ready amplification of one Bracha broadcast, tolerating `f`
/// faults among `n ≥ 3f + 1` parties.  Its three rules each fire at most
/// once:
///
/// * `2f + 1` echoes of a value: send `Ready` for it;
/// * `f + 1` readies of a value: send `Ready` for it (amplification);
/// * `2f + 1` readies of a value: deliver it.
///
/// Any two sets of `2f + 1` votes share an honest party, so no two values
/// reach an echo quorum, and `f + 1` readies include an honest one.  Votes
/// are counted once per sender, as [`VoteTally`] does.
#[derive(Debug, Clone)]
pub struct Amplifier<V> {
    f: usize,
    echoes: VoteTally<V>,
    readies: VoteTally<V>,
    ready_sent: bool,
    delivered: bool,
}

/// What one counted `Ready` vote makes due, returned by
/// [`Amplifier::ready`].
#[derive(Debug, PartialEq, Eq)]
pub struct ReadyDue<'a, V> {
    /// The value the vote was for.
    pub value: &'a V,
    /// Multicast `Ready` for `value` now.
    pub send_ready: bool,
    /// Deliver `value` now.
    pub deliver: bool,
}

impl<V: PartialEq> Amplifier<V> {
    /// The amplification of one broadcast among senders `0..n`, tolerating
    /// `f` faults.
    pub fn new(n: usize, f: usize) -> Self {
        Amplifier {
            f,
            echoes: VoteTally::new(n),
            readies: VoteTally::new(n),
            ready_sent: false,
            delivered: false,
        }
    }

    fn quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Counts `from`'s echo for `value`.  Returns the value to multicast
    /// `Ready` for when this echo completes its quorum and no `Ready` has
    /// been sent yet.
    pub fn echo(&mut self, from: PartyId, value: V) -> Option<&V> {
        let quorum = self.quorum();
        let (value, count) = self.echoes.vote(from, value)?;
        if count < quorum || self.ready_sent {
            return None;
        }
        self.ready_sent = true;
        Some(value)
    }

    /// Counts `from`'s ready for `value`.  Returns what the vote makes due,
    /// or `None` when it makes nothing due (a repeat vote included).
    pub fn ready(&mut self, from: PartyId, value: V) -> Option<ReadyDue<'_, V>> {
        let (amplify, quorum) = (self.f + 1, self.quorum());
        let (value, count) = self.readies.vote(from, value)?;
        let send_ready = count >= amplify && !self.ready_sent;
        let deliver = count >= quorum && !self.delivered;
        self.ready_sent |= send_ready;
        self.delivered |= deliver;
        (send_ready || deliver).then_some(ReadyDue { value, send_ready, deliver })
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

    #[test]
    fn an_echo_quorum_sends_ready_once() {
        // n = 4, f = 1: the third echo of a value completes the quorum.
        let mut amp = Amplifier::new(4, 1);
        assert_eq!(amp.echo(PartyId(0), "v"), None);
        assert_eq!(amp.echo(PartyId(0), "v"), None, "a repeat echo is not counted");
        assert_eq!(amp.echo(PartyId(1), "w"), None);
        assert_eq!(amp.echo(PartyId(2), "v"), None);
        assert_eq!(amp.echo(PartyId(3), "v"), Some(&"v"));
        // Readies after the echo quorum never send a second Ready.
        assert_eq!(amp.ready(PartyId(0), "v"), None);
        let due = amp.ready(PartyId(1), "v");
        assert_eq!(due, None, "two readies neither amplify (sent) nor deliver");
        assert_eq!(
            amp.ready(PartyId(2), "v"),
            Some(ReadyDue { value: &"v", send_ready: false, deliver: true })
        );
        assert_eq!(amp.ready(PartyId(3), "v"), None, "delivery fires once");
    }

    #[test]
    fn f_plus_one_readies_amplify_and_two_f_plus_one_deliver() {
        // n = 7, f = 2.
        let mut amp = Amplifier::new(7, 2);
        assert_eq!(amp.ready(PartyId(0), 9), None);
        assert_eq!(amp.ready(PartyId(1), 8), None, "votes for another value count apart");
        assert_eq!(amp.ready(PartyId(2), 9), None);
        assert_eq!(
            amp.ready(PartyId(3), 9),
            Some(ReadyDue { value: &9, send_ready: true, deliver: false })
        );
        assert_eq!(amp.ready(PartyId(4), 9), None);
        assert_eq!(
            amp.ready(PartyId(5), 9),
            Some(ReadyDue { value: &9, send_ready: false, deliver: true })
        );
        // An echo quorum after the amplified Ready sends nothing more.
        for p in 0..7 {
            assert_eq!(amp.echo(PartyId(p), 9), None);
        }
        // Senders outside 0..n are ignored.
        assert_eq!(amp.ready(PartyId(7), 9), None);
    }
}
